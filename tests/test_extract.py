import hashlib
import json
import marshal
import random
import re
import string
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgmon import extract, kernels
from kgmon.extract import (
    INDEX_SUFFIX,
    ArticleDoc,
    ExtractError,
    LiteralItem,
    NerDictionary,
    OntologyTable,
    PatternRule,
    SlotItem,
    build_baseline,
    extract_article,
    load_dictionary,
    load_dictionary_file,
    load_rules,
)
from kgmon.graph import (
    EntityAssertion,
    TripleAssertion,
    build_graph,
    canonical_serialize,
    normalize_entity,
)
from kgmon.ontology import Ontology, is_permissible

from conftest import DICTIONARY_TEXT

_ORACLE_TOKEN_RE = re.compile(
    "[" + re.escape(string.punctuation) + "]"
    "|[^\\s" + re.escape(string.punctuation) + "]+"
)


def oracle_tokenize(text):
    return _ORACLE_TOKEN_RE.findall(text)


def oracle_ner(text, surface_class):
    # Independent longest-match scan: try every surface at every position,
    # longest first, ties by surface, skipping past each hit.
    texts = oracle_tokenize(text)
    surf_toks = {s: tuple(oracle_tokenize(s)) for s in surface_class}
    order = sorted(surface_class, key=lambda s: (-len(surf_toks[s]), s))
    out = []
    i = 0
    while i < len(texts):
        hit = None
        for s in order:
            st = surf_toks[s]
            if st and tuple(texts[i:i + len(st)]) == st:
                hit = (i, len(st), s)
                break
        if hit:
            out.append(hit)
            i += hit[1]
        else:
            i += 1
    return out


def scan(text, dictionary):
    # (token_start, token_count, surface, class) per dictionary match.
    return [
        (start, count, surface, dictionary.surface_class[surface])
        for start, count, surface in kernels.find_matches(
            kernels.token_texts(text),
            dictionary.surface_class,
            dictionary.aliases,
            dictionary.lengths,
        )
    ]


def test_load_dictionary_happy_path(onto, dictionary):
    assert len(dictionary) == 9
    assert dictionary.surface_class["Acme Corp"] == "Company"
    # "Acme" only starts "Acme Corp": alone it is no match.
    assert scan("Acme hired Acme Corp", dictionary) == [(2, 2, "Acme Corp", "Company")]


def test_load_dictionary_normalization_and_repeats(onto):
    d = load_dictionary("Acme   Corp\tCompany\nAcme Corp\tCompany\n", onto)
    assert len(d) == 1
    assert d.surface_class == {"Acme Corp": "Company"}


def test_load_dictionary_longest_first_index(onto):
    d = load_dictionary(
        "Acme\tOrganization\nAcme Corp\tCompany\nAcme Corp Ltd\tCompany\n", onto
    )
    assert scan("Acme Corp Ltd hired Acme Corp and Acme", d) == [
        (0, 3, "Acme Corp Ltd", "Company"),
        (4, 2, "Acme Corp", "Company"),
        (7, 1, "Acme", "Organization"),
    ]


def test_load_dictionary_errors(onto):
    with pytest.raises(ExtractError, match="expected 2 fields"):
        load_dictionary("Acme Corp\n", onto)
    with pytest.raises(ExtractError, match="unknown class"):
        load_dictionary("Acme Corp\tGhost\n", onto)
    with pytest.raises(ExtractError, match="empty field"):
        load_dictionary("   \tCompany\n", onto)
    with pytest.raises(ExtractError, match="mapped to both"):
        load_dictionary("Acme\tCompany\nAcme\tOrganization\n", onto)
    with pytest.raises(ExtractError, match="line 1"):
        load_dictionary("  # indented comment is data\n", onto)


def reference_load_dictionary(text, ontology):
    # Reference loader: normalize_entity and a findall on every surface,
    # then the repeat check. Its no-tokens branch is the one load_dictionary
    # leaves out; test_kernels shows a normalized surface always has a token.
    surface_class = {}
    surfaces = {}
    by_first = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ExtractError(f"dictionary line {lineno}: expected 2 fields")
        surface = normalize_entity(fields[0])
        cls = fields[1].strip()
        if not surface or not cls:
            raise ExtractError(f"dictionary line {lineno}: empty field")
        if cls not in ontology.classes:
            raise ExtractError(f"dictionary line {lineno}: unknown class {cls!r}")
        toks = tuple(kernels.TOKEN_RE.findall(surface))
        if not toks:
            raise ExtractError(f"dictionary line {lineno}: surface has no tokens")
        if surface in surface_class:
            if surface_class[surface] != cls:
                raise ExtractError(
                    f"dictionary line {lineno}: surface {surface!r} mapped to both "
                    f"{surface_class[surface]!r} and {cls!r}"
                )
            continue
        surface_class[surface] = cls
        held = surfaces.get(toks)
        if held is None or surface < held:
            surfaces[toks] = surface
        by_first.setdefault(toks[0], set()).add(len(toks))
    lengths = {
        first: tuple(sorted(counts, reverse=True)) for first, counts in by_first.items()
    }
    # The string-keyed index: a surface's tokens joined with spaces, mapped
    # to the smallest surface with those tokens where that is not the key.
    aliases = {" ".join(toks): s for toks, s in surfaces.items() if " ".join(toks) != s}
    return NerDictionary(
        surface_class=surface_class, aliases=aliases, lengths=lengths
    )


def _load_outcome(load, text, onto):
    # Everything a loader returns, in dict iteration order, or its error.
    try:
        d = load(text, onto)
    except ExtractError as exc:
        return "error", str(exc)
    return (
        "ok",
        list(d.surface_class.items()),
        list(d.aliases.items()),
        list(d.lengths.items()),
    )


# Surface words with and without ASCII punctuation (some tokenize alike),
# the gaps between them (Unicode whitespace included), classes (known,
# unknown, blank, padded) and the line breaks str.splitlines honours.
_DICT_WORDS = ["Acme", "Corp", "St.", "St", ".", "Louis", "A.B", "x-y", "\u00e9", "\u4eba", "#1"]
_DICT_GAPS = ["", " ", "  ", "\xa0", "\u3000", "\x1f"]
_DICT_CLASSES = ["Company", "City", "Person", "Organization", " City ", "Ghost", ""]
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x1c", "\u2028", "\x85", "\x0b"]


@st.composite
def _dictionary_line(draw, pool):
    # Mostly entries for the surfaces of a small pool, each spaced its own
    # way and mostly with the pool's class for it, so that repeats and
    # surfaces mapped to two classes both occur.
    kind = draw(st.sampled_from(["entry"] * 12 + ["comment", "indented", "blank", "tabs"]))
    if kind == "comment":
        return "#" + draw(st.sampled_from(["", " note", "\tCity", "#"]))
    if kind == "blank":
        return draw(st.text(alphabet=" \t\xa0\u3000", max_size=3))
    words, cls = draw(st.sampled_from(pool))
    gaps = draw(st.lists(st.sampled_from(_DICT_GAPS), min_size=len(words) + 1,
                         max_size=len(words) + 1))
    surface = gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))
    if kind == "indented":
        surface = draw(st.sampled_from([" ", "\t", "\xa0"])) + "#" + surface
    if draw(st.integers(0, 9)) == 0:
        cls = draw(st.sampled_from(_DICT_CLASSES))
    if kind == "tabs":
        return draw(st.sampled_from([
            surface, f"{surface}\t{cls}\tx", f"\t{surface}\t{cls}", f"{gaps[0]}\t{cls}"
        ]))
    return f"{surface}\t{cls}"


@st.composite
def _dictionary_texts(draw):
    pool = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(_DICT_WORDS), min_size=1, max_size=3),
            st.sampled_from(_DICT_CLASSES[:4]),
        ),
        min_size=1, max_size=6,
    ))
    lines = draw(st.lists(_dictionary_line(pool), max_size=12))
    breaks = draw(st.lists(st.sampled_from(_LINE_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    return "".join(line + brk for line, brk in zip(lines, breaks))


@settings(max_examples=300, deadline=None)
@given(_dictionary_texts())
@example("Acme Corp\tCompany\nAcme\xa0 Corp\tCompany\nSt. Louis\tCity\n")
@example("A.B\tCompany\nA . B\tCompany\nA\u3000.B\tCompany\n")
@example("Acme\tCompany\r\n\x1cAcme\tOrganization\u2028")
@example("# x\n  # indented\tCity\n")
@example(" \t \nAcme\tGhost\n")
def test_load_dictionary_matches_reference(onto, text):
    assert _load_outcome(load_dictionary, text, onto) == _load_outcome(
        reference_load_dictionary, text, onto
    )


def _file_outcome(path, onto):
    return _load_outcome(lambda _text, o: load_dictionary_file(str(path), o), None, onto)


def _no_parse():
    return mock.patch.object(
        extract, "load_dictionary", side_effect=AssertionError("dictionary parsed")
    )


@settings(max_examples=100, deadline=None)
@given(text=_dictionary_texts())
@example(text="St. Louis\tCity\nSt . Louis\tCity\nAcme\tCompany\r\nAcme \tCompany\r")
def test_dictionary_index_hit_matches_parse(onto, tmp_path_factory, text):
    path = tmp_path_factory.mktemp("index") / "dictionary.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected = _load_outcome(load_dictionary, text, onto)
    # Decoding the bytes splits lines as a text-mode read does.
    assert _load_outcome(load_dictionary, path.read_text(encoding="utf-8"), onto) == expected
    assert _file_outcome(path, onto) == expected
    index = Path(str(path) + INDEX_SUFFIX)
    assert index.exists() == (expected[0] == "ok")
    if index.exists():
        with _no_parse():
            assert _file_outcome(path, onto) == expected


def test_dictionary_index_stale_key_reparses(onto, tmp_path):
    path = tmp_path / "dictionary.tsv"
    index = Path(str(path) + INDEX_SUFFIX)
    path.write_text(DICTIONARY_TEXT, encoding="utf-8")
    load_dictionary_file(str(path), onto)
    before = index.read_bytes()
    path.write_text(DICTIONARY_TEXT + "Paris\tCity\n", encoding="utf-8")
    d = load_dictionary_file(str(path), onto)
    assert d.surface_class["Paris"] == "City"
    assert index.read_bytes() != before
    with _no_parse():
        assert load_dictionary_file(str(path), onto) == d
    # A parse error raises before the index is rewritten.
    path.write_text("Paris\tGhost\n", encoding="utf-8")
    after = index.read_bytes()
    with pytest.raises(ExtractError, match="unknown class 'Ghost'"):
        load_dictionary_file(str(path), onto)
    assert index.read_bytes() == after


def test_dictionary_index_of_format_1_is_rewritten(onto, tmp_path):
    # Format 1 stored a map from token tuples to surfaces where format 2
    # stores aliases; both bodies are three dicts, so only the format tag
    # in the key tells them apart.
    text = _SCAN_DICTIONARY_TEXT + "St.Louis\tCity\n"
    path = tmp_path / "dictionary.tsv"
    path.write_text(text, encoding="utf-8")
    raw = path.read_bytes()
    fresh = load_dictionary(text, onto)
    tuple_keyed = {}
    for surface in fresh.surface_class:
        toks = tuple(kernels.token_texts(surface))
        tuple_keyed[toks] = min(tuple_keyed.get(toks, surface), surface)
    old_tag = f"kgmon dictionary index 1 {sys.implementation.cache_tag}\n".encode()
    old_key = hashlib.sha256(old_tag)
    old_key.update(json.dumps(sorted(onto.classes)).encode())
    old_key.update(raw)
    body = marshal.dumps((fresh.surface_class, tuple_keyed, fresh.lengths))
    index = Path(str(path) + INDEX_SUFFIX)
    index.write_bytes(_forged(old_key.digest(), body))

    with mock.patch.object(extract, "load_dictionary", wraps=load_dictionary) as parse:
        assert load_dictionary_file(str(path), onto) == fresh
    assert parse.call_count == 1
    assert fresh.aliases == {"St . Louis": "St. Louis", "A . B": "A.B"}
    # The rewritten sidecar is the one a first load writes.
    other = tmp_path / "other" / "dictionary.tsv"
    other.parent.mkdir()
    other.write_bytes(raw)
    load_dictionary_file(str(other), onto)
    assert index.read_bytes() == Path(str(other) + INDEX_SUFFIX).read_bytes()
    with _no_parse():
        assert load_dictionary_file(str(path), onto) == fresh


def _forged(key, body):
    return key + hashlib.sha256(body).digest() + body


_DAMAGE = {
    "truncated": lambda good: good[: len(good) // 2],
    "flipped body byte": lambda good: good[:-1] + bytes([good[-1] ^ 1]),
    "flipped digest byte": lambda good: good[:40] + bytes([good[40] ^ 1]) + good[41:],
    "empty": lambda good: b"",
    "garbage": lambda good: b"\x00not an index\xff" * 9,
    "not marshal data": lambda good: _forged(good[:32], b"\xff\xfe"),
    "not three dicts": lambda good: _forged(good[:32], marshal.dumps(({}, {}, []))),
}


@pytest.mark.parametrize("damage", sorted(_DAMAGE))
def test_dictionary_index_corrupt_file_is_rewritten(onto, dictionary, tmp_path, damage):
    path = tmp_path / "dictionary.tsv"
    index = Path(str(path) + INDEX_SUFFIX)
    path.write_text(DICTIONARY_TEXT, encoding="utf-8")
    load_dictionary_file(str(path), onto)
    good = index.read_bytes()
    index.write_bytes(_DAMAGE[damage](good))
    assert load_dictionary_file(str(path), onto) == dictionary
    assert index.read_bytes() == good


def test_dictionary_index_path_taken_by_directory(onto, dictionary, tmp_path):
    path = tmp_path / "dictionary.tsv"
    path.write_text(DICTIONARY_TEXT, encoding="utf-8")
    Path(str(path) + INDEX_SUFFIX).mkdir()
    for _ in range(2):
        assert load_dictionary_file(str(path), onto) == dictionary
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dictionary.tsv",
        "dictionary.tsv" + INDEX_SUFFIX,
    ]


def test_comments_and_blanks_skipped(onto):
    d = load_dictionary("# header\n\nBerlin\tCity\n", onto)
    assert len(d) == 1


def test_load_rules_happy_path(onto, rules):
    assert [r.rule_id for r in rules] == ["r1", "r2"]
    r1 = rules[0]
    assert r1.predicate == "worksFor"
    assert r1.items == (
        SlotItem("subject", "Person"),
        LiteralItem(("works",)),
        LiteralItem(("for",)),
        SlotItem("object", "Organization"),
    )


def test_load_rules_errors(onto):
    with pytest.raises(ExtractError, match="expected 3 fields"):
        load_rules("r1\tjust two\n", onto)
    with pytest.raises(ExtractError, match="duplicate rule id"):
        load_rules(
            "r1\t{subject:Person} x {object:Organization}\tworksFor\n"
            "r1\t{subject:Person} y {object:Organization}\tworksFor\n",
            onto,
        )
    with pytest.raises(ExtractError, match="unknown predicate"):
        load_rules("r1\t{subject:Person} x {object:Person}\tghost\n", onto)
    with pytest.raises(ExtractError, match="unknown class"):
        load_rules("r1\t{subject:Ghost} x {object:Organization}\tworksFor\n", onto)
    with pytest.raises(ExtractError, match="more than one subject"):
        load_rules(
            "r1\t{subject:Person} {subject:Person} x {object:Organization}\tworksFor\n",
            onto,
        )
    with pytest.raises(ExtractError, match="one subject and one object"):
        load_rules("r1\t{subject:Person} works\tworksFor\n", onto)
    with pytest.raises(ExtractError, match="empty field"):
        load_rules("r1\t\tworksFor\n", onto)


def test_load_rules_drops_impermissible(onto, caplog):
    with caplog.at_level("WARNING", logger="kgmon.extract"):
        rules = load_rules(
            "r1\t{subject:Person} visited {object:Person}\tworksFor\n", onto
        )
    assert rules == []
    assert any("dropped" in r.message for r in caplog.records)


def test_load_rules_multi_token_literal_warns_but_keeps(onto, caplog):
    with caplog.at_level("WARNING", logger="kgmon.extract"):
        rules = load_rules(
            "r1\t{subject:Person} works-at {object:Organization}\tworksFor\n", onto
        )
    assert len(rules) == 1
    assert LiteralItem(("works", "-", "at")) in rules[0].items
    assert any("spans 3 tokens" in r.message for r in caplog.records)


def test_scan_basics(dictionary):
    assert scan("Alice Chen met Bob Marsh in Berlin.", dictionary) == [
        (0, 2, "Alice Chen", "Person"),
        (3, 2, "Bob Marsh", "Person"),
        (6, 1, "Berlin", "City"),
    ]


def test_scan_case_sensitive_and_normalizing(dictionary):
    assert scan("alice chen was here", dictionary) == []
    assert scan("Acme    Corp\tgrew", dictionary) == [(0, 2, "Acme Corp", "Company")]


def test_scan_greedy_longest(onto):
    d = load_dictionary("Acme\tOrganization\nAcme Corp\tCompany\n", onto)
    assert [m[2] for m in scan("Acme Corp and Acme", d)] == ["Acme Corp", "Acme"]


def test_scan_token_tuple_tie_takes_smallest_surface(onto):
    # Both surfaces tokenize to ("St", ".", "Louis"); the smaller one,
    # "St . Louis", wins with its own class, in either line order.
    for text in (
        "St.Louis\tCity\nSt . Louis\tLocation\n",
        "St . Louis\tLocation\nSt.Louis\tCity\n",
    ):
        d = load_dictionary(text, onto)
        assert scan("Flights to St.Louis.", d) == [(2, 3, "St . Louis", "Location")]


def test_scan_candidate_longer_than_remaining_tokens(onto):
    d = load_dictionary("Acme Corp Ltd\tCompany\nCorp\tOrganization\n", onto)
    assert scan("hired Acme Corp", d) == [(2, 1, "Corp", "Organization")]
    assert scan("Acme", d) == []


def test_scan_matches_oracle(dictionary):
    rng = random.Random(19)
    surfaces = list(dictionary.surface_class)
    fillers = ["the", "committee", "met", "works", "for", "in", ".", ",", "near"]
    for _ in range(200):
        words = []
        for _ in range(rng.randrange(0, 25)):
            if rng.random() < 0.4:
                words.append(rng.choice(surfaces))
            else:
                words.append(rng.choice(fillers))
        text = " ".join(words)
        got = [m[:3] for m in scan(text, dictionary)]
        assert got == oracle_ner(text, dictionary.surface_class)


_SCAN_DICTIONARY_TEXT = DICTIONARY_TEXT + "St. Louis\tCity\nA.B\tCompany\nAcme\tOrganization\n"
_SCAN_WORDS = [line.split("\t")[0] for line in _SCAN_DICTIONARY_TEXT.splitlines()] + [
    "Corp", "St.", "Louis", "A", ".", "B", "works", "for", ",", "\u00e9"
]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_SCAN_WORDS),
            st.sampled_from(["", " ", "  ", "\n", "\xa0", "\u3000"]),
        ),
        max_size=30,
    )
)
@example([("Acme", " "), ("Corp", ""), (".", "\u3000"), ("St.", " "), ("Louis", "")])
def test_extract_article_entities_match_oracle(onto, rules, pieces):
    # extract_article asserts one entity per match of the independent
    # oracle scan, in text order.
    dictionary = load_dictionary(_SCAN_DICTIONARY_TEXT, onto)
    text = "".join(word + gap for word, gap in pieces)
    entities, _, _ = extract_article(
        ArticleDoc("d", 0, text), dictionary, rules, OntologyTable(onto, rules)
    )
    expected = oracle_ner(text, dictionary.surface_class)
    assert [(e.entity, e.cls) for e in entities] == [
        (surface, dictionary.surface_class[surface]) for _, _, surface in expected
    ]
    assert all(e.provenance == "d" for e in entities)


def test_extract_article_fixture(onto, dictionary, rules, article):
    entities, triples, rejected = extract_article(
        article, dictionary, rules, OntologyTable(onto, rules)
    )
    assert rejected == 0
    assert sorted((e.entity, e.cls, e.provenance) for e in entities) == [
        ("Acme Corp", "Company", "a1"),
        ("Acme Corp", "Company", "a1"),
        ("Alice Chen", "Person", "a1"),
        ("Berlin", "City", "a1"),
    ]
    assert sorted((t.subject, t.predicate, t.object) for t in triples) == [
        ("Acme Corp", "locatedIn", "Berlin"),
        ("Alice Chen", "worksFor", "Acme Corp"),
    ]


def test_rules_respect_sentence_boundaries(onto, dictionary, rules):
    doc = ArticleDoc(
        id="a2",
        published_at=0,
        text="Alice Chen works for Globex. Bob Marsh works for Initech.",
    )
    _, triples, _ = extract_article(doc, dictionary, rules, OntologyTable(onto, rules))
    assert sorted((t.subject, t.object) for t in triples) == [
        ("Alice Chen", "Globex"),
        ("Bob Marsh", "Initech"),
    ]
    split = ArticleDoc(
        id="a3", published_at=0, text="Alice Chen works for. Globex grew."
    )
    _, triples, _ = extract_article(split, dictionary, rules, OntologyTable(onto, rules))
    assert triples == []


def test_rule_slot_type_check(onto, dictionary, rules):
    doc = ArticleDoc(
        id="a4", published_at=0, text="Alice Chen works for Bob Marsh."
    )
    entities, triples, _ = extract_article(
        doc, dictionary, rules, OntologyTable(onto, rules)
    )
    assert len(entities) == 2
    assert triples == []


def test_rule_literals_casefold(onto, dictionary, rules):
    doc = ArticleDoc(id="a5", published_at=0, text="Alice Chen WORKS FOR Globex.")
    _, triples, _ = extract_article(doc, dictionary, rules, OntologyTable(onto, rules))
    assert [(t.subject, t.object) for t in triples] == [("Alice Chen", "Globex")]


def test_rule_defensive_permissibility_recheck(onto, dictionary):
    sneaky = PatternRule(
        rule_id="rx",
        items=(
            SlotItem("subject", "Person"),
            LiteralItem(("works",)),
            LiteralItem(("for",)),
            SlotItem("object", "Person"),
        ),
        predicate="worksFor",
    )
    doc = ArticleDoc(id="a6", published_at=0, text="Alice Chen works for Bob Marsh.")
    _, triples, rejected = extract_article(
        doc, dictionary, [sneaky], OntologyTable(onto, [sneaky])
    )
    assert triples == []
    assert rejected == 1


def _corpus(rng, n, surfaces):
    fillers = ["the", "board", "said", "works", "for", "is", "based", "in", "while"]
    articles = []
    for i in range(n):
        words = []
        for _ in range(rng.randrange(3, 30)):
            words.append(
                rng.choice(surfaces) if rng.random() < 0.35 else rng.choice(fillers)
            )
            if rng.random() < 0.12:
                words.append(".")
        articles.append(
            ArticleDoc(id=f"doc-{i:03d}", published_at=i, text=" ".join(words))
        )
    return articles


def test_build_baseline_deterministic(onto, dictionary, rules):
    rng = random.Random(41)
    articles = _corpus(rng, 30, list(dictionary.surface_class))
    ref_graph, _ = build_baseline(articles, dictionary, rules, onto, batch_id="b")
    ref = canonical_serialize(ref_graph)
    assert ref
    for _ in range(9):
        shuffled = articles[:]
        rng.shuffle(shuffled)
        g, _ = build_baseline(shuffled, dictionary, rules, onto, batch_id="b")
        assert canonical_serialize(g) == ref


def test_build_baseline_provenance_and_metadata(onto, dictionary, rules, article):
    graph, diags = build_baseline(
        [article], dictionary, rules, onto, batch_id="batch-7", timestamp=77
    )
    assert graph.batch_id == "batch-7"
    assert graph.timestamp == 77
    assert graph.entities["Alice Chen"] == ("Person", "a1")
    assert graph.triples[("Alice Chen", "worksFor", "Acme Corp")] == "a1"
    assert diags.closure_violations == 0


def test_build_baseline_duplicate_ids(onto, dictionary, rules, article):
    with pytest.raises(ExtractError, match="duplicate article ids"):
        build_baseline([article, article], dictionary, rules, onto)


def test_build_baseline_empty_batch(onto, dictionary, rules):
    graph, diags = build_baseline([], dictionary, rules, onto)
    assert len(graph) == 0
    assert diags.malformed_lines == 0


def reference_rules(text, surface_class, rules, onto):
    # Every rule at every token of every sentence, the plain R x T loop.
    # Returns (triples, rejected) in emission order.
    def below(cls, ancestor):
        return cls == ancestor or ancestor in onto.ancestors(cls)

    texts = oracle_tokenize(text)
    match_at = {
        start: (count, surface)
        for start, count, surface in oracle_ner(text, surface_class)
    }
    sentences, start = [], 0
    for idx, tok in enumerate(texts):
        if tok in ".!?":
            sentences.append((start, idx + 1))
            start = idx + 1
    if start < len(texts):
        sentences.append((start, len(texts)))

    triples, rejected = [], 0
    for rule in rules:
        for start, end in sentences:
            for pos in range(start, end):
                cursor, bound = pos, {}
                for item in rule.items:
                    if isinstance(item, LiteralItem):
                        k = len(item.tokens)
                        span = [t.casefold() for t in texts[cursor:cursor + k]]
                        if cursor + k > end or span != list(item.tokens):
                            break
                        cursor += k
                    else:
                        hit = match_at.get(cursor)
                        if hit is None or cursor + hit[0] > end:
                            break
                        cls = surface_class[hit[1]]
                        if not below(cls, item.cls):
                            break
                        bound[item.role] = (hit[1], cls)
                        cursor += hit[0]
                else:
                    (subj, s_cls), (obj, o_cls) = bound["subject"], bound["object"]
                    prop = onto.properties[rule.predicate]
                    if below(s_cls, prop.domain) and below(o_cls, prop.range):
                        triples.append((subj, rule.predicate, obj))
                    else:
                        rejected += 1
    return triples, rejected


def _random_rule(rng, i, onto, literals):
    # One subject and one object slot in either order, up to two literals
    # anywhere, so some rules start with a literal. Slot classes mostly
    # follow the predicate's domain and range; the rule is built directly,
    # so an impermissible one survives to exercise the rejected count.
    # Returns the rule and, per item, its literal's source or slot class.
    prop = onto.properties[rng.choice(sorted(onto.properties))]
    classes = sorted(onto.classes)
    subject_cls = prop.domain if rng.random() < 0.6 else rng.choice(classes)
    object_cls = prop.range if rng.random() < 0.6 else rng.choice(classes)
    items = [
        (SlotItem("subject", subject_cls), subject_cls),
        (SlotItem("object", object_cls), object_cls),
    ]
    rng.shuffle(items)
    for _ in range(rng.randrange(0, 3)):
        piece = rng.choice(literals)
        toks = tuple(t.casefold() for t in oracle_tokenize(piece))
        items.insert(rng.randrange(0, len(items) + 1), (LiteralItem(toks), piece))
    rule = PatternRule(
        rule_id=f"g{i}", items=tuple(item for item, _ in items), predicate=prop.name
    )
    return rule, [(isinstance(item, SlotItem), src) for item, src in items]


def _render(rng, pieces, surface_class, onto, noise):
    # Text that nearly fits a rule: literals in random case, slots mostly
    # filled with a surface of a fitting class, and now and then a noise
    # word or a sentence end.
    words = []
    for is_slot, src in pieces:
        if rng.random() < 0.15:
            words.append(rng.choice(noise))
        if not is_slot:
            words.append(rng.choice((src, src.upper(), src.lower(), src.title())))
            continue
        fitting = [s for s, c in surface_class.items() if onto.is_subclass(c, src)]
        if fitting and rng.random() < 0.8:
            words.append(rng.choice(fitting))
        else:
            words.append(rng.choice(list(surface_class)))
    return " ".join(words)


def test_extract_article_rules_match_reference(onto):
    # "St. Louis" runs past the sentence end its "." makes, so a slot bound
    # to it never fits inside one sentence.
    surface_class = dict(line.split("\t") for line in DICTIONARY_TEXT.splitlines())
    surface_class["St. Louis"] = "City"
    dictionary = load_dictionary(
        "".join(f"{s}\t{c}\n" for s, c in surface_class.items()), onto
    )
    literals = ["works", "for", "based in", "Co-Founded", "Ms.", "!", "IS"]
    noise = ["the", "board", "said", ".", "?", "in"]
    rng = random.Random(7)
    triples_seen = rejected_seen = 0
    for n in range(300):
        drawn = [_random_rule(rng, i, onto, literals) for i in range(rng.randrange(1, 5))]
        rules = [rule for rule, _ in drawn]
        text = " ".join(
            _render(rng, rng.choice(drawn)[1], surface_class, onto, noise)
            for _ in range(rng.randrange(0, 8))
        )
        doc = ArticleDoc(id=f"d{n}", published_at=n, text=text)
        _, triples, rejected = extract_article(
            doc, dictionary, rules, OntologyTable(onto, rules)
        )
        got = [(t.subject, t.predicate, t.object) for t in triples]
        assert (got, rejected) == reference_rules(text, surface_class, rules, onto)
        triples_seen += len(got)
        rejected_seen += rejected
    assert triples_seen > 100 and rejected_seen > 100


# Rule items for the dispatch test: slots of every class, and literals of
# one token, of two ("St.") and three ("co-founded") tokens, and of a
# sentence end.
_CLASSES = ["Person", "Organization", "Company", "Location", "City"]
_LITERALS = ["works", "for", "in", "co-founded", "St.", "!", "based"]


@st.composite
def _dispatch_rule(draw, i):
    subject = SlotItem("subject", draw(st.sampled_from(_CLASSES)))
    obj = SlotItem("object", draw(st.sampled_from(_CLASSES)))
    items = draw(st.permutations([subject, obj]))
    for piece in draw(st.lists(st.sampled_from(_LITERALS), max_size=2)):
        toks = tuple(t.casefold() for t in oracle_tokenize(piece))
        items.insert(draw(st.integers(0, len(items))), LiteralItem(toks))
    predicate = draw(st.sampled_from(["worksFor", "locatedIn"]))
    return PatternRule(rule_id=f"h{i}", items=tuple(items), predicate=predicate)


@st.composite
def _dispatch_rules(draw):
    rules = [draw(_dispatch_rule(i)) for i in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        # A second rule on the same slot class and literal as the first.
        rules.append(
            PatternRule("h-twin", rules[0].items, draw(st.sampled_from(["worksFor", "locatedIn"])))
        )
    return rules


_DISPATCH_SURFACES = DICTIONARY_TEXT + "St. Louis\tCity\nCo-Founded Ltd\tCompany\n"
_DISPATCH_WORDS = [line.split("\t")[0] for line in _DISPATCH_SURFACES.splitlines()] + [
    "works", "WORKS", "for", "in", "based", "co-founded", "St.", "!", ".", "?", "Ltd"
]


@settings(max_examples=300, deadline=None)
@given(_dispatch_rules(), st.lists(st.sampled_from(_DISPATCH_WORDS), max_size=20))
@example(
    # Two slot-first rules on one slot class and literal, a literal at the
    # article's end and a three-token literal.
    [
        PatternRule("a", (SlotItem("subject", "Person"), LiteralItem(("works",)),
                          SlotItem("object", "Organization")), "worksFor"),
        PatternRule("b", (SlotItem("subject", "Person"), LiteralItem(("works",)),
                          LiteralItem(("for",)), SlotItem("object", "Company")), "worksFor"),
        PatternRule("c", (SlotItem("object", "Location"), SlotItem("subject", "Company"),
                          LiteralItem(("co", "-", "founded"))), "locatedIn"),
    ],
    ["Alice Chen", "works", "Acme Corp", "Alice Chen", "works", "for", "Initech", ".",
     "Geneva", "Initech", "co-founded", "Alice Chen", "works"],
)
@example(
    # The literal after the slot falls past the sentence end.
    [PatternRule("d", (SlotItem("subject", "Person"), LiteralItem(("!",)),
                       SlotItem("object", "Company")), "worksFor")],
    ["Dana Wu", "!", "Acme Corp", "Dana Wu", ".", "!", "Initech"],
)
def test_extract_article_equals_every_rule_at_every_token(onto, rules, words):
    dictionary = load_dictionary(_DISPATCH_SURFACES, onto)
    text = " ".join(words)
    entities, triples, rejected = extract_article(
        ArticleDoc("d", 0, text), dictionary, rules, OntologyTable(onto, rules)
    )
    got = [(t.subject, t.predicate, t.object) for t in triples]
    assert (got, rejected) == reference_rules(text, dictionary.surface_class, rules, onto)
    assert [e.entity for e in entities] == [
        s for _, _, s in oracle_ner(text, dictionary.surface_class)
    ]


@settings(max_examples=150, deadline=None)
@given(
    _dispatch_rules(),
    st.lists(
        st.lists(st.sampled_from(_DISPATCH_WORDS), max_size=16), min_size=1, max_size=5
    ),
)
@example(
    # Twin slot classes: two slot-first rules on Person, one whose second
    # slot wants an Organization and gets a Company, one whose second slot
    # wants a Company; and a Company in the first slot of an Organization
    # rule. Every article repeats, so later articles reuse what the first
    # one asked.
    [
        PatternRule("a", (SlotItem("subject", "Person"), LiteralItem(("works",)),
                          SlotItem("object", "Organization")), "worksFor"),
        PatternRule("b", (SlotItem("subject", "Person"), LiteralItem(("works",)),
                          SlotItem("object", "Company")), "worksFor"),
        PatternRule("c", (SlotItem("subject", "Organization"), LiteralItem(("in",)),
                          SlotItem("object", "Location")), "locatedIn"),
    ],
    [["Alice Chen", "works", "Acme Corp", ".", "Initech", "in", "Geneva"]] * 3
    + [["Dana Wu", "works", "Globex", "!", "Globex", "in", "Lake Victoria"]],
)
def test_build_baseline_with_one_table_equals_asking_at_every_use(onto, rules, articles):
    # build_baseline shares one OntologyTable across the batch; the
    # reference re-derives every subclass and permissibility answer at each
    # use, article by article, and unions the fragments with build_graph.
    dictionary = load_dictionary(_DISPATCH_SURFACES, onto)
    surface_class = dictionary.surface_class
    docs = [ArticleDoc(f"d{i}", i, " ".join(words)) for i, words in enumerate(articles)]
    entities, triples, rejected = [], [], 0
    for doc in docs:
        entities += [
            EntityAssertion(s, surface_class[s], doc.id)
            for _, _, s in oracle_ner(doc.text, surface_class)
        ]
        got, rej = reference_rules(doc.text, surface_class, rules, onto)
        triples += [TripleAssertion(s, p, o, doc.id) for s, p, o in got]
        rejected += rej
    expected, expected_diags = build_graph(entities, triples, batch_id="b")
    if rejected:
        expected_diags.notes.append(f"{rejected} rule triples failed permissibility")
    graph, diags = build_baseline(docs, dictionary, rules, onto, batch_id="b")
    assert canonical_serialize(graph) == canonical_serialize(expected)
    assert diags == expected_diags


def test_build_baseline_asks_the_ontology_once_per_batch(onto, dictionary, rules, article):
    # The number of ontology questions depends on the classes and rules in
    # play, not on the number of articles that repeat them.
    def asked(copies):
        docs = [ArticleDoc(f"a{i}", i, article.text) for i in range(copies)]
        with mock.patch.object(
            Ontology, "is_subclass", autospec=True, side_effect=Ontology.is_subclass
        ) as subclass, mock.patch.object(
            extract, "is_permissible", wraps=is_permissible
        ) as permissible:
            graph, _ = build_baseline(docs, dictionary, rules, onto)
        assert len(graph.triples) == 2
        return subclass.call_count, permissible.call_count

    once = asked(1)
    assert once[0] > 0 and once[1] > 0
    assert asked(20) == once
