import random
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgmon import kernels
from kgmon.extract import load_dictionary
from kgmon.graph import normalize_entity
from kgmon.ontology import load_ontology

_PUNCT = frozenset(string.punctuation)


def _reference_tokenize(text):
    # Per-character oracle for kernels.tokenize: str.isspace() separates,
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
            tokens.append((ch, i))
            i += 1
            continue
        start = i
        i += 1
        while i < n and not text[i].isspace() and text[i] not in _PUNCT:
            i += 1
        tokens.append((text[start:i], start))
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
    assert kernels.tokenize(text) == _reference_tokenize(text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=40) | st.text(max_size=40))
@example("\u3000a\xa0b\x1c")
@example("St. Louis")
def test_normalized_surface_tokens(text):
    # token_texts drops only the offsets. What load_dictionary relies on: a
    # non-empty normalized surface has a token, and one where
    # find_punctuation finds nothing tokenizes to its words.
    assert kernels.token_texts(text) == [t for t, _ in kernels.tokenize(text)]
    surface = normalize_entity(text)
    tokens = kernels.token_texts(surface)
    assert bool(tokens) == bool(surface)
    has_punct = not _PUNCT.isdisjoint(surface)
    assert (kernels.find_punctuation(surface) is not None) == has_punct
    if not has_punct:
        assert tokens == surface.split()


def test_tokenize_basic():
    assert kernels.tokenize("Alice works.") == [("Alice", 0), ("works", 6), (".", 11)]
    assert kernels.tokenize("") == []
    assert kernels.tokenize(" \t\n") == []
    assert kernels.tokenize("a,b") == [("a", 0), (",", 1), ("b", 2)]
    assert kernels.tokenize("..") == [(".", 0), (".", 1)]


def test_tokenize_offsets_point_into_text():
    rng = random.Random(5)
    for _ in range(200):
        text = _random_text(rng, rng.randrange(0, 80))
        for token, offset in kernels.tokenize(text):
            assert text[offset:offset + len(token)] == token
            assert not any(c.isspace() for c in token)


def test_tokenize_punctuation_isolated():
    for token, _ in kernels.tokenize("state-of-the-art (really)!"):
        if token in string.punctuation:
            assert len(token) == 1
        else:
            assert not any(c in string.punctuation for c in token)


def test_tokenize_covers_all_non_space():
    rng = random.Random(6)
    for _ in range(100):
        text = _random_text(rng, rng.randrange(0, 60))
        covered = "".join(tok for tok, _ in kernels.tokenize(text))
        assert covered == "".join(c for c in text if not c.isspace())


_THING = load_ontology("CLASS Thing\n")


def _scan(surfaces, token_texts):
    d = load_dictionary("".join(f"{s}\tThing\n" for s in surfaces), _THING)
    return kernels.find_matches(token_texts, d.surfaces, d.lengths)


def _texts(text):
    return [t for t, _ in kernels.tokenize(text)]


def test_find_matches_prefers_longest():
    toks = _texts("Acme Corp Ltd hired Acme Corp and Acme")
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
        assert _scan(surfaces, _texts("A.B and A . B")) == [
            (0, 3, "A . B"),
            (4, 3, "A . B"),
        ]
