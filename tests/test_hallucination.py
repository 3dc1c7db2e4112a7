import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kgmon import hallucination
from kgmon.extract import ArticleDoc
from kgmon.graph import KnowledgeGraph, normalize_entity, parse_records
from kgmon.hallucination import (
    FAIL_STAGES,
    STAGE_NONE,
    STAGE_RULES,
    STAGE_SCHEMA,
    STAGE_SOURCE,
    HallucinationReport,
    ValidationVerdict,
    source_text,
    validate_graph,
)
from kgmon.ontology import is_permissible


def _batch(*texts):
    return [
        ArticleDoc(id=f"a{i}", text=t) for i, t in enumerate(texts)
    ]


def _source_traced(onto, entities, batch):
    graph = KnowledgeGraph(entities={e: ("Person", "a0") for e in entities})
    return {
        v.entity: v.failed_stage != STAGE_SOURCE
        for v in validate_graph(graph, source_text(batch), onto).verdicts
    }


def test_source_trace_normalized_casefold(onto):
    batch = _batch("The  ACME   Corp board met in\nBerlin today.")
    assert _source_traced(
        onto,
        ["acme corp", "Acme   Corp", "berlin", "ACME CORP BOARD", "Globex", "   "],
        batch,
    ) == {
        "acme corp": True,
        "Acme   Corp": True,
        "berlin": True,
        "ACME CORP BOARD": True,
        "Globex": False,
        "   ": False,
    }
    assert _source_traced(onto, ["Berlin"], []) == {"Berlin": False}


def test_trace_never_spans_two_articles(onto):
    batch = _batch("Shares rose at Acme", "Corp said nothing.")
    graph = KnowledgeGraph(
        entities={"Acme": ("Company", "a0"), "Acme Corp": ("Company", "a0")}
    )
    report = validate_graph(graph, source_text(batch), onto)
    assert [(v.entity, v.failed_stage) for v in report.verdicts] == [
        ("Acme", STAGE_NONE),
        ("Acme Corp", STAGE_SOURCE),
    ]


def test_articles_sharing_an_id_never_run_together(onto):
    batch = [
        ArticleDoc(id="a0", text="Shares rose at Acme"),
        ArticleDoc(id="a0", text="Corp said nothing."),
    ]
    graph = KnowledgeGraph(
        entities={"Acme": ("Company", "a0"), "AcmeCorp": ("Company", "a0")}
    )
    report = validate_graph(graph, source_text(batch), onto)
    assert [(v.entity, v.failed_stage) for v in report.verdicts] == [
        ("Acme", STAGE_NONE),
        ("AcmeCorp", STAGE_SOURCE),
    ]


# Whitespace that str.split() breaks on (newline, \x1c, \x85, U+3000) and
# letters whose casefold changes length or depends on context.
_TRACE_ALPHABET = "aAcC \n\x1c\x85\u3000ßẞΣσςİi."


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(st.text(alphabet=_TRACE_ALPHABET, max_size=12), max_size=4),
    data=st.data(),
)
def test_source_trace_matches_per_article_reference(onto, texts, data):
    # Needles are cut from the articles joined end to end, so many of them
    # straddle two articles, plus free strings over the same alphabet.
    joined = " ".join(texts)
    cuts = data.draw(
        st.lists(st.tuples(st.integers(0, len(joined)), st.integers(0, 8)), max_size=6)
    )
    free = data.draw(st.lists(st.text(alphabet=_TRACE_ALPHABET, max_size=6), max_size=3))
    entities = {joined[i:i + k] for i, k in cuts} | set(free)
    batch = _batch(*texts)
    graph = KnowledgeGraph(entities={e: ("Person", "a0") for e in entities})

    def reference(entity):
        needle = normalize_entity(entity).casefold()
        return bool(needle) and any(
            needle in normalize_entity(a.text).casefold() for a in batch
        )

    report = validate_graph(graph, source_text(batch), onto)
    for verdict in report.verdicts:
        traced = reference(verdict.entity)
        assert (verdict.failed_stage == STAGE_SOURCE) is not traced


def _reference_report(g, batch, onto):
    """validate_graph written out plainly: every needle searched in all the
    articles joined by newlines, every triple's classes checked anew."""
    haystack = "\n".join(normalize_entity(a.text).casefold() for a in batch)
    verdicts = []
    for entity in sorted(g.entities):
        cls = g.entities[entity][0]
        needle = normalize_entity(entity).casefold()
        stage, evidence = STAGE_NONE, ""
        if not (needle and needle in haystack):
            stage, evidence = STAGE_SOURCE, "absent from batch"
        elif cls not in onto.classes:
            stage, evidence = STAGE_SCHEMA, cls
        else:
            for s, p, o in sorted(g.triples):
                if entity in (s, o) and not is_permissible(
                    onto, g.entities[s][0], p, g.entities[o][0]
                ):
                    stage, evidence = STAGE_RULES, f"({s}, {p}, {o})"
                    break
        verdicts.append(ValidationVerdict(entity, stage, evidence))
    per_stage = {
        stage: sum(v.failed_stage == stage for v in verdicts) for stage in FAIL_STAGES
    }
    hallucinated = sum(per_stage.values())
    return HallucinationReport(
        total=len(verdicts),
        hallucinated=hallucinated,
        score=hallucinated / len(verdicts) if verdicts else 0.0,
        per_stage=per_stage,
        verdicts=verdicts,
    )


@settings(max_examples=300, deadline=None)
@given(
    articles=st.lists(
        st.tuples(
            # A small id pool, so that two articles often share an id.
            st.sampled_from(["a0", "a1", "a2"]),
            st.text(alphabet=_TRACE_ALPHABET, max_size=12),
        ),
        max_size=4,
    ),
    data=st.data(),
)
def test_own_article_first_traces_as_the_whole_batch(onto, articles, data):
    batch = [ArticleDoc(id=aid, text=text) for aid, text in articles]
    ids = sorted({a.id for a in batch})
    joined = data.draw(st.sampled_from(["", " "])).join(a.text for a in batch)

    def cuts(text):
        spans = st.tuples(st.integers(0, len(text)), st.integers(0, 8))
        return [text[i : i + k] for i, k in data.draw(st.lists(spans, max_size=3))]

    # (needle, id of the article it was cut from, or None). Cuts from one
    # article overlap one another; cuts from the articles joined end to end
    # may straddle two of them.
    needles = [(cut, aid) for aid, text in articles for cut in cuts(text)]
    needles += [(cut, None) for cut in cuts(joined)]
    # Suffixes of other needles, and free strings.
    needles += [
        (needle[data.draw(st.integers(0, len(needle))) :], aid)
        for needle, aid in needles
    ]
    free = st.lists(st.text(alphabet=_TRACE_ALPHABET, max_size=6), max_size=3)
    needles += [(text, None) for text in data.draw(free)]
    entities = {}
    for needle, aid in needles:
        # Provenance: the article it was cut from, any article of the batch
        # (some share an id), or an id that names no article.
        own = [aid] if aid else []
        provenance = data.draw(st.sampled_from([*own, *ids, "missing"]))
        entities.setdefault(needle, ("Person", provenance))
    graph = KnowledgeGraph(entities=entities)
    report = validate_graph(graph, source_text(batch), onto)
    assert report == _reference_report(graph, batch, onto)


_CLASSES = ["Person", "Organization", "Company", "Location", "City", "Martian"]
_PROPERTIES = ["worksFor", "locatedIn", "contains"]
_NAMES = ["Alice", "Bob", "Globex", "Initech", "Berlin", "Geneva", "Zorblax"]


@settings(max_examples=200, deadline=None)
@given(
    typed=st.dictionaries(
        st.sampled_from(_NAMES), st.sampled_from(_CLASSES), min_size=1
    ),
    data=st.data(),
)
def test_rule_verdicts_equal_a_per_triple_reference(onto, typed, data):
    # Classes and properties are drawn from declared and undeclared ones
    # alike, so the triples mix permissible and impermissible combinations.
    names = st.sampled_from(sorted(typed))
    triples = data.draw(
        st.lists(st.tuples(names, st.sampled_from(_PROPERTIES), names), max_size=12)
    )
    graph = KnowledgeGraph(
        entities={name: (cls, "a0") for name, cls in typed.items()},
        triples={triple: "a0" for triple in triples},
    )
    # Every name but Zorblax occurs in the batch.
    batch = _batch("Alice and Bob left Globex and Initech for Berlin and Geneva.")
    report = validate_graph(graph, source_text(batch), onto)
    assert report == _reference_report(graph, batch, onto)


@settings(max_examples=150, deadline=None)
@given(
    articles=st.lists(
        st.tuples(
            st.sampled_from(["a0", "a1", "a2"]),
            st.text(alphabet=_TRACE_ALPHABET + "GlobexBerlin", max_size=16),
        ),
        max_size=4,
    ),
    data=st.data(),
)
def test_one_source_text_serves_every_graph(onto, articles, data):
    # One SourceText, validated against several graphs in turn, gives each
    # graph the report that a SourceText prepared for it alone gives, and
    # its text fields are left as they were.
    batch = [ArticleDoc(id=aid, text=text) for aid, text in articles]
    shared = source_text(batch)
    joined = " ".join(text for _, text in articles)
    needles = st.one_of(
        st.sampled_from(_NAMES),
        st.text(alphabet=_TRACE_ALPHABET, max_size=6),
        st.tuples(st.integers(0, len(joined)), st.integers(0, 8)).map(
            lambda cut: joined[cut[0] : cut[0] + cut[1]]
        ),
    )
    for _ in range(data.draw(st.integers(1, 4))):
        typed = data.draw(
            st.dictionaries(
                needles,
                st.tuples(
                    st.sampled_from(_CLASSES),
                    st.sampled_from(["a0", "a1", "a2", "missing"]),
                ),
            )
        )
        names = sorted(typed)
        triples = (
            data.draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(names),
                        st.sampled_from(_PROPERTIES),
                        st.sampled_from(names),
                    ),
                    max_size=6,
                )
            )
            if names
            else []
        )
        graph = KnowledgeGraph(
            entities=typed, triples={triple: "a0" for triple in triples}
        )
        report = validate_graph(graph, shared, onto)
        assert report == validate_graph(graph, source_text(batch), onto)
        assert report == _reference_report(graph, batch, onto)
    assert shared == source_text(batch)


def test_a_name_traces_alike_from_either_article(onto):
    # "Globex" is asserted from a0, which lacks it, in one graph and from
    # a1, which has it, in the other; one SourceText serves both, in either
    # order.
    batch = _batch("Alice slept.", "Globex expanded.")
    lacking = KnowledgeGraph(entities={"Globex": ("Company", "a0")})
    having = KnowledgeGraph(entities={"Globex": ("Company", "a1")})
    for first, second in ((lacking, having), (having, lacking)):
        shared = source_text(batch)
        for graph in (first, second):
            report = validate_graph(graph, shared, onto)
            assert report == _reference_report(graph, batch, onto)
            assert report.verdicts[0].failed_stage == STAGE_NONE


def _counting(monkeypatch, name):
    calls = []
    real = getattr(hallucination, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hallucination, name, counted)
    return calls


def test_each_triple_is_checked_once(onto, monkeypatch):
    graph, _ = parse_records(
        "E\tAlice\tPerson\ta0\n"
        "E\tBob\tPerson\ta0\n"
        "E\tGlobex\tOrganization\ta0\n"
        "E\tBerlin\tCity\ta0\n"
        "T\tAlice\tworksFor\tGlobex\ta0\n"
        "T\tBob\tworksFor\tGlobex\ta0\n"
        "T\tBerlin\tworksFor\tGlobex\ta0\n"
        "T\tAlice\tworksFor\tBerlin\ta0\n"
    )
    batch = _batch("Alice and Bob work for Globex in Berlin.")
    calls = _counting(monkeypatch, "is_permissible")
    report = validate_graph(graph, source_text(batch), onto)
    assert len(calls) <= len(graph.triples)
    assert report == _reference_report(graph, batch, onto)
    assert {v.entity: v.evidence for v in report.verdicts} == {
        "Alice": "(Alice, worksFor, Berlin)",
        "Berlin": "(Alice, worksFor, Berlin)",
        "Bob": "",
        "Globex": "(Berlin, worksFor, Globex)",
    }


def test_each_name_is_normalized_once_per_source_text(onto, monkeypatch):
    batch = _batch("Alice and Bob left Globex.", "Berlin and Geneva.")
    shared = source_text(batch)
    calls = _counting(monkeypatch, "normalize_entity")
    graphs = [
        KnowledgeGraph(entities={n: ("Person", aid) for n in names})
        for names, aid in (
            (["Alice", "Bob", "Zorblax"], "a0"),
            (["Alice", "Berlin", "Zorblax"], "a1"),
            (["Bob", "Berlin", "Geneva", "Zorblax"], "missing"),
        )
    ]
    for graph in graphs:
        assert validate_graph(graph, shared, onto) == _reference_report(
            graph, batch, onto
        )
    names = [args[0] for args in calls]
    assert sorted(names) == ["Alice", "Berlin", "Bob", "Geneva", "Zorblax"]


def test_all_stages_pass(onto):
    graph, _ = parse_records(
        "E\tAlice Chen\tPerson\ta0\n"
        "E\tGlobex\tOrganization\ta0\n"
        "T\tAlice Chen\tworksFor\tGlobex\ta0\n"
    )
    batch = _batch("Alice Chen works for Globex.")
    report = validate_graph(graph, source_text(batch), onto)
    assert report.total == 2
    assert report.hallucinated == 0
    assert report.score == 0.0
    assert all(v.failed_stage == STAGE_NONE for v in report.verdicts)
    assert report.per_stage == {
        STAGE_SOURCE: 0,
        STAGE_SCHEMA: 0,
        STAGE_RULES: 0,
    }


def test_source_trace_failure(onto):
    graph, _ = parse_records("E\tZorblax\tPerson\ta0\nE\tGlobex\tOrganization\ta0\n")
    report = validate_graph(graph, source_text(_batch("Globex expanded.")), onto)
    assert report.per_stage[STAGE_SOURCE] == 1
    assert report.score == 0.5
    verdict = {v.entity: v for v in report.verdicts}["Zorblax"]
    assert verdict.failed_stage == STAGE_SOURCE
    assert verdict.evidence == "absent from batch"


def test_schema_alignment_failure(onto):
    graph, _ = parse_records("E\tGlobex\tMegacorp\ta0\n")
    report = validate_graph(graph, source_text(_batch("Globex expanded.")), onto)
    verdict = report.verdicts[0]
    assert verdict.failed_stage == STAGE_SCHEMA
    assert verdict.evidence == "Megacorp"
    assert report.score == 1.0


def test_ner_map_targets_count_as_schema(onto):
    graph, _ = parse_records("E\tGlobex\tOrganization\ta0\n")
    report = validate_graph(graph, source_text(_batch("Globex expanded.")), onto)
    assert report.verdicts[0].failed_stage == STAGE_NONE


def test_rule_conformance_unknown_predicate(onto):
    graph, _ = parse_records(
        "E\tGliese 581g\tLocation\ta0\n"
        "E\twater\tLocation\ta0\n"
        "T\tGliese 581g\tcontains\twater\ta0\n"
    )
    batch = _batch("Astronomers report Gliese 581g may hold water.")
    report = validate_graph(graph, source_text(batch), onto)
    assert report.total == 2
    assert report.hallucinated == 2
    assert report.score == 1.0
    assert report.per_stage[STAGE_RULES] == 2
    for v in report.verdicts:
        assert v.failed_stage == STAGE_RULES
        assert v.evidence == "(Gliese 581g, contains, water)"


def test_rule_conformance_domain_violation(onto):
    graph, _ = parse_records(
        "E\tGlobex\tOrganization\ta0\n"
        "E\tBerlin\tCity\ta0\n"
        "T\tBerlin\tworksFor\tGlobex\ta0\n"
    )
    report = validate_graph(graph, source_text(_batch("Globex sits in Berlin.")), onto)
    assert report.per_stage[STAGE_RULES] == 2
    assert all(v.failed_stage == STAGE_RULES for v in report.verdicts)


def test_rule_conformance_out_of_schema_endpoint_class(onto):
    graph, _ = parse_records(
        "E\tAlice\tPerson\ta0\n"
        "E\tGlobex\tWidget\ta0\n"
        "T\tAlice\tworksFor\tGlobex\ta0\n"
    )
    report = validate_graph(graph, source_text(_batch("Alice joined Globex.")), onto)
    by_entity = {v.entity: v.failed_stage for v in report.verdicts}
    assert by_entity["Globex"] == STAGE_SCHEMA
    assert by_entity["Alice"] == STAGE_RULES


def test_first_failing_stage_wins(onto):
    graph, _ = parse_records(
        "E\tZorblax\tMartian\ta0\n"
        "E\tAlice\tPerson\ta0\n"
        "T\tZorblax\tabducted\tAlice\ta0\n"
    )
    report = validate_graph(graph, source_text(_batch("Alice slept.")), onto)
    by_entity = {v.entity: v.failed_stage for v in report.verdicts}
    assert by_entity["Zorblax"] == STAGE_SOURCE
    assert by_entity["Alice"] == STAGE_RULES


def test_empty_batch_warns_and_fails_all(onto, caplog):
    graph, _ = parse_records("E\tAlice\tPerson\ta0\nE\tGlobex\tOrganization\ta0\n")
    with caplog.at_level("WARNING", logger="kgmon.hallucination"):
        report = validate_graph(graph, source_text([]), onto)
    assert report.score == 1.0
    assert report.per_stage[STAGE_SOURCE] == 2
    assert any("empty batch" in r.message for r in caplog.records)


def test_empty_graph_warns_scores_zero(onto, caplog):
    graph, _ = parse_records("")
    with caplog.at_level("WARNING", logger="kgmon.hallucination"):
        report = validate_graph(graph, source_text(_batch("anything")), onto)
    assert report.total == 0
    assert report.score == 0.0
    assert report.verdicts == []
    assert any("empty candidate graph" in r.message for r in caplog.records)


def test_verdicts_sorted_and_score_is_fraction(onto):
    rng = random.Random(71)
    vocab = ["Alice", "Globex", "Berlin", "Zorblax", "Widgetron", "Dana"]
    classes = ["Person", "Organization", "City", "Martian"]
    for _ in range(100):
        lines = []
        for e in rng.sample(vocab, rng.randint(1, len(vocab))):
            lines.append(f"E\t{e}\t{rng.choice(classes)}\ta0")
        graph, _ = parse_records("\n".join(lines) + "\n")
        batch = _batch("Alice and Dana visited Globex in Berlin.")
        report = validate_graph(graph, source_text(batch), onto)
        assert [v.entity for v in report.verdicts] == sorted(graph.entities)
        assert report.hallucinated == sum(report.per_stage.values())
        assert report.score == report.hallucinated / report.total
        failed = sum(1 for v in report.verdicts if v.failed_stage != STAGE_NONE)
        assert failed == report.hallucinated
