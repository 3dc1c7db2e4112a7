import random
import re
import string

import pytest

from kgmon.extract import (
    ArticleDoc,
    ExtractError,
    LiteralItem,
    PatternRule,
    SlotItem,
    build_baseline,
    dict_ner,
    extract_article,
    load_dictionary,
    load_rules,
)
from kgmon.graph import canonical_serialize

from conftest import DICTIONARY_TEXT

_ORACLE_TOKEN_RE = re.compile(
    "[" + re.escape(string.punctuation) + "]"
    "|[^\\s" + re.escape(string.punctuation) + "]+"
)


def oracle_tokenize(text):
    return [(m.group(), m.start()) for m in _ORACLE_TOKEN_RE.finditer(text)]


def oracle_ner(text, surface_class):
    # Independent longest-match scan: try every surface at every position,
    # longest first, ties by surface, skipping past each hit.
    texts = [t for t, _ in oracle_tokenize(text)]
    surf_toks = {
        s: tuple(t for t, _ in oracle_tokenize(s)) for s in surface_class
    }
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


def test_load_dictionary_happy_path(onto, dictionary):
    assert len(dictionary) == 9
    assert dictionary.surface_class["Acme Corp"] == "Company"
    # "Acme" only starts "Acme Corp": alone it is no match.
    matches = dict_ner("Acme hired Acme Corp", dictionary)
    assert [(m.token_start, m.token_count, m.surface, m.cls) for m in matches] == [
        (2, 2, "Acme Corp", "Company")
    ]


def test_load_dictionary_normalization_and_repeats(onto):
    d = load_dictionary("Acme   Corp\tCompany\nAcme Corp\tCompany\n", onto)
    assert len(d) == 1
    assert d.surface_class == {"Acme Corp": "Company"}


def test_load_dictionary_longest_first_index(onto):
    d = load_dictionary(
        "Acme\tOrganization\nAcme Corp\tCompany\nAcme Corp Ltd\tCompany\n", onto
    )
    matches = dict_ner("Acme Corp Ltd hired Acme Corp and Acme", d)
    assert [(m.token_start, m.token_count, m.surface, m.cls) for m in matches] == [
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


def test_dict_ner_basics(dictionary):
    matches = dict_ner("Alice Chen met Bob Marsh in Berlin.", dictionary)
    assert [(m.surface, m.cls) for m in matches] == [
        ("Alice Chen", "Person"),
        ("Bob Marsh", "Person"),
        ("Berlin", "City"),
    ]
    assert matches[0].token_start == 0 and matches[0].token_count == 2
    assert matches[0].char_offset == 0
    assert matches[2].char_offset == "Alice Chen met Bob Marsh in Berlin.".index("Berlin")


def test_dict_ner_case_sensitive_and_normalizing(dictionary):
    assert dict_ner("alice chen was here", dictionary) == []
    matches = dict_ner("Acme    Corp\tgrew", dictionary)
    assert [(m.surface, m.cls) for m in matches] == [("Acme Corp", "Company")]


def test_dict_ner_greedy_longest(onto):
    d = load_dictionary("Acme\tOrganization\nAcme Corp\tCompany\n", onto)
    matches = dict_ner("Acme Corp and Acme", d)
    assert [(m.surface,) for m in matches] == [("Acme Corp",), ("Acme",)]


def test_dict_ner_token_tuple_tie_takes_smallest_surface(onto):
    # Both surfaces tokenize to ("St", ".", "Louis"); the smaller one,
    # "St . Louis", wins with its own class, in either line order.
    for text in (
        "St.Louis\tCity\nSt . Louis\tLocation\n",
        "St . Louis\tLocation\nSt.Louis\tCity\n",
    ):
        d = load_dictionary(text, onto)
        matches = dict_ner("Flights to St.Louis.", d)
        assert [(m.surface, m.cls, m.char_offset) for m in matches] == [
            ("St . Louis", "Location", 11)
        ]


def test_dict_ner_candidate_longer_than_remaining_tokens(onto):
    d = load_dictionary("Acme Corp Ltd\tCompany\nCorp\tOrganization\n", onto)
    assert [(m.token_start, m.surface) for m in dict_ner("hired Acme Corp", d)] == [
        (2, "Corp")
    ]
    assert dict_ner("Acme", d) == []


def test_dict_ner_matches_oracle(dictionary):
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
        got = [(m.token_start, m.token_count, m.surface) for m in dict_ner(text, dictionary)]
        assert got == oracle_ner(text, dictionary.surface_class)


def test_extract_article_fixture(onto, dictionary, rules, article):
    entities, triples, rejected = extract_article(article, dictionary, rules, onto)
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
    _, triples, _ = extract_article(doc, dictionary, rules, onto)
    assert sorted((t.subject, t.object) for t in triples) == [
        ("Alice Chen", "Globex"),
        ("Bob Marsh", "Initech"),
    ]
    split = ArticleDoc(
        id="a3", published_at=0, text="Alice Chen works for. Globex grew."
    )
    _, triples, _ = extract_article(split, dictionary, rules, onto)
    assert triples == []


def test_rule_slot_type_check(onto, dictionary, rules):
    doc = ArticleDoc(
        id="a4", published_at=0, text="Alice Chen works for Bob Marsh."
    )
    entities, triples, _ = extract_article(doc, dictionary, rules, onto)
    assert len(entities) == 2
    assert triples == []


def test_rule_literals_casefold(onto, dictionary, rules):
    doc = ArticleDoc(id="a5", published_at=0, text="Alice Chen WORKS FOR Globex.")
    _, triples, _ = extract_article(doc, dictionary, rules, onto)
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
    _, triples, rejected = extract_article(doc, dictionary, [sneaky], onto)
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

    texts = [t for t, _ in oracle_tokenize(text)]
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
        toks = tuple(t.casefold() for t, _ in oracle_tokenize(piece))
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
        _, triples, rejected = extract_article(doc, dictionary, rules, onto)
        got = [(t.subject, t.predicate, t.object) for t in triples]
        assert (got, rejected) == reference_rules(text, surface_class, rules, onto)
        triples_seen += len(got)
        rejected_seen += rejected
    assert triples_seen > 100 and rejected_seen > 100
