import itertools
import random
import string
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgmon import kernels
from kgmon.extract import load_dictionary
from kgmon.graph import normalize_entity
from kgmon.ontology import load_ontology

from conftest import NOT_LINE_BREAKS, text_mode_lines

_PUNCT = frozenset(string.punctuation)


def _reference_tokenize(text):
    # Per-character oracle for kernels.token_texts: str.isspace() separates,
    # each ASCII punctuation character is a token of its own, and anything
    # else forms maximal runs.
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(ch)
            i += 1
            continue
        start = i
        i += 1
        while i < n and not text[i].isspace() and text[i] not in _PUNCT:
            i += 1
        tokens.append(text[start:i])
    return tokens


# Separators str.isspace() knows but ASCII does not (\x1c-\x1f, NEL, NBSP,
# LINE SEPARATOR, IDEOGRAPHIC SPACE), ASCII punctuation, and non-ASCII
# punctuation that must stay inside word runs.
_TOKEN_ALPHABET = (
    "aZ9\u00e9\u4eba \t\n\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u2013\u201c"
    + string.punctuation
)


def _random_text(rng, n):
    alphabet = string.ascii_letters + string.digits + string.punctuation + " \t\né人 "
    return "".join(rng.choice(alphabet) for _ in range(n))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=40))
@example("")
@example("\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")
@example("a\u2013b \u201cc\u201d d\u3000e.")
def test_tokenize_matches_reference(text):
    assert kernels.token_texts(text) == _reference_tokenize(text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=40) | st.text(max_size=40))
@example("\u3000a\xa0b\x1c")
@example("St. Louis")
def test_normalized_surface_tokens(text):
    # What load_dictionary relies on: a non-empty normalized surface has a
    # token, and one where find_punctuation finds nothing tokenizes to its
    # words.
    assert kernels.token_texts(text) == _reference_tokenize(text)
    surface = normalize_entity(text)
    tokens = kernels.token_texts(surface)
    assert bool(tokens) == bool(surface)
    has_punct = not _PUNCT.isdisjoint(surface)
    assert (kernels.find_punctuation(surface) is not None) == has_punct
    if not has_punct:
        assert tokens == surface.split()


# Put between consecutive code points, so that each one meets a letter, a
# space, ASCII punctuation or another code point on either side.
_CODE_POINT_FILLERS = ("a", " ", ".", "", "Z-", " (", "\t9")


def test_tokenize_matches_reference_on_every_code_point():
    fillers = itertools.cycle(_CODE_POINT_FILLERS)
    end = sys.maxunicode + 1
    for start in range(0, end, 4096):
        text = "".join(
            chr(cp) + next(fillers) for cp in range(start, min(start + 4096, end))
        )
        assert kernels.token_texts(text) == _reference_tokenize(text), hex(start)


def test_tokenize_basic():
    assert kernels.token_texts("Alice works.") == ["Alice", "works", "."]
    assert kernels.token_texts("") == []
    assert kernels.token_texts(" \t\n") == []
    assert kernels.token_texts("a,b") == ["a", ",", "b"]
    assert kernels.token_texts("..") == [".", "."]


def test_tokenize_punctuation_isolated():
    for token in kernels.token_texts("state-of-the-art (really)!"):
        if token in string.punctuation:
            assert len(token) == 1
        else:
            assert not any(c in string.punctuation for c in token)


def test_tokenize_covers_all_non_space():
    rng = random.Random(6)
    for _ in range(100):
        text = _random_text(rng, rng.randrange(0, 60))
        covered = "".join(kernels.token_texts(text))
        assert covered == "".join(c for c in text if not c.isspace())


_THING = load_ontology("CLASS Thing\n")


def _scan(surfaces, token_texts):
    d = load_dictionary("".join(f"{s}\tThing\n" for s in surfaces), _THING)
    return kernels.find_matches(token_texts, d.surface_class, d.aliases, d.lengths)


def test_find_matches_prefers_longest():
    toks = kernels.token_texts("Acme Corp Ltd hired Acme Corp and Acme")
    assert _scan(["Acme", "Acme Corp", "Acme Corp Ltd"], toks) == [
        (0, 3, "Acme Corp Ltd"),
        (4, 2, "Acme Corp"),
        (7, 1, "Acme"),
    ]


def test_find_matches_non_overlapping():
    assert _scan(["a b", "b c"], ["a", "b", "c"]) == [(0, 2, "a b")]


def test_find_matches_case_sensitive():
    assert _scan(["Acme"], ["acme"]) == []
    assert _scan(["Acme"], ["Acme"]) == [(0, 1, "Acme")]


def test_find_matches_truncated_tail():
    assert _scan(["a b c"], ["a", "b"]) == []
    # A longer candidate that runs past the end gives way to a shorter one.
    assert _scan(["a b c", "b"], ["a", "b", "b"]) == [(1, 1, "b"), (2, 1, "b")]
    assert _scan(["a b c", "a"], ["x", "a", "b"]) == [(1, 1, "a")]


def test_find_matches_token_tuple_tie_takes_smallest_surface():
    # "A.B" and "A . B" both tokenize to ("A", ".", "B"); " " sorts before
    # ".", so "A . B" wins whichever line comes first.
    for surfaces in (["A.B", "A . B"], ["A . B", "A.B"]):
        assert _scan(surfaces, kernels.token_texts("A.B and A . B")) == [
            (0, 3, "A . B"),
            (4, 3, "A . B"),
        ]


def _tuple_keyed_scan(surfaces, token_texts):
    # The scan over a tuple-keyed index: each surface's token tuple maps to
    # the smallest surface with those tokens, and a candidate span is
    # looked up as a tuple.
    by_tokens = {}
    by_first = {}
    for surface in surfaces:
        toks = tuple(_reference_tokenize(surface))
        held = by_tokens.get(toks)
        if held is None or surface < held:
            by_tokens[toks] = surface
        by_first.setdefault(toks[0], set()).add(len(toks))
    matches = []
    i = 0
    while i < len(token_texts):
        for k in sorted(by_first.get(token_texts[i], ()), reverse=True):
            surface = by_tokens.get(tuple(token_texts[i:i + k]))
            if surface is not None and i + k <= len(token_texts):
                matches.append((i, k, surface))
                i += k
                break
        else:
            i += 1
    return matches


# Pieces of surfaces: words, ASCII punctuation that splits them ("St." and
# "St ." tokenize alike), and "\x01", which is no whitespace and sorts
# before " ", so ".\x01" is smaller than its key ". \x01".
_SURFACE_PIECES = ["St", ".", "Louis", "A", "B", "-", "\x01", "x", "Acme", "Corp"]


@st.composite
def _surface(draw):
    pieces = draw(st.lists(st.sampled_from(_SURFACE_PIECES), min_size=1, max_size=4))
    gaps = draw(st.lists(st.sampled_from(["", " "]), min_size=len(pieces) - 1,
                         max_size=len(pieces) - 1))
    return pieces[0] + "".join(g + p for g, p in zip(gaps, pieces[1:]))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(_surface(), min_size=1, max_size=8),
    st.lists(st.sampled_from(_SURFACE_PIECES + ["y", "Corp."]), max_size=25),
)
@example([".\x01", ". \x01"], [".", "\x01", "x", ".", "\x01"])
@example(["St.Louis", "St . Louis", "St. Louis"], ["St", ".", "Louis", "St"])
@example(["A-B", "A - B", "A", "B"], ["A", "-", "B", "A", "B"])
def test_find_matches_equals_tuple_keyed_scan(surfaces, texts):
    # The joined-key index finds what a tuple-keyed one finds, ties
    # included, whichever order the dictionary lists the surfaces in.
    token_texts = [t for text in texts for t in _reference_tokenize(text)]
    for ordered in (surfaces, surfaces[::-1]):
        d = load_dictionary("".join(f"{s}\tThing\n" for s in ordered), _THING)
        got = kernels.find_matches(token_texts, d.surface_class, d.aliases, d.lengths)
        assert got == _tuple_keyed_scan(list(d.surface_class), token_texts)
        # Only punctuated surfaces can differ from their key.
        for key, surface in d.aliases.items():
            assert key != surface and kernels.find_punctuation(surface)
            assert key == " ".join(kernels.token_texts(surface))


def test_find_matches_tie_smaller_than_its_key():
    # ".\x01" tokenizes like ". \x01" and sorts before it, so the key
    # ". \x01", itself a surface, is an alias of the smaller one.
    for surfaces in ([".\x01", ". \x01"], [". \x01", ".\x01"]):
        d = load_dictionary("".join(f"{s}\tThing\n" for s in surfaces), _THING)
        assert d.aliases == {". \x01": ".\x01"}
        assert _scan(surfaces, [".", "\x01"]) == [(0, 2, ".\x01")]


_LINE_ALPHABET = "ab \t\n\r" + "".join(NOT_LINE_BREAKS)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_LINE_ALPHABET, max_size=24))
@example("")
@example("a\r\n\r\nb\r")
@example("\n\r\r\n")
@example("a\u2028b\x1c\n\x85")
def test_split_lines_breaks_as_a_text_mode_read(text):
    assert kernels.split_lines(text) == text_mode_lines(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab \t\n\r", max_size=24))
def test_split_lines_is_splitlines_where_only_text_mode_breaks_occur(text):
    # So loader line numbers and the count of lines in a response without
    # sentinels stay as they were.
    assert kernels.split_lines(text) == text.splitlines()
