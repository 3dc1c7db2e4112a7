import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgmon.graph
import kgmon.metrics
import kgmon.ontology
from kgmon.graph import (
    EntityAssertion,
    KnowledgeGraph,
    TripleAssertion,
    build_graph,
    canonical_serialize,
    instantiated_classes,
    instantiated_properties,
    normalize_entity,
    parse_record_line,
    parse_records,
)

from conftest import NOT_LINE_BREAKS, codepoint


def _random_graph(rng, tag="g"):
    entities = [
        EntityAssertion(
            f"e{rng.randrange(12)}",
            rng.choice("ABCD"),
            f"{tag}{rng.randrange(4)}",
        )
        for _ in range(rng.randrange(0, 15))
    ]
    names = [r.entity for r in entities] or ["e0"]
    triples = [
        TripleAssertion(
            rng.choice(names),
            rng.choice("pq"),
            rng.choice(names),
            f"{tag}{rng.randrange(4)}",
        )
        for _ in range(rng.randrange(0, 10))
    ]
    graph, _ = build_graph(entities, triples)
    return graph


def test_normalize_entity():
    assert normalize_entity("  Acme   Corp \t") == "Acme Corp"
    assert normalize_entity("Acme Corp") == "Acme Corp"
    assert normalize_entity(" \t ") == ""
    assert normalize_entity("ACME") == "ACME"


def test_parse_record_line_shapes():
    rec = parse_record_line("E\t Alice  Chen\tPerson\ta1")
    assert rec == EntityAssertion("Alice Chen", "Person", "a1")
    rec = parse_record_line("T\tAlice Chen\tworksFor\tAcme  Corp\ta1")
    assert rec == TripleAssertion("Alice Chen", "worksFor", "Acme Corp", "a1")
    for bad in (
        "E\tAlice\tPerson",
        "E\tAlice\tPerson\ta1\textra",
        "E\t  \tPerson\ta1",
        "E\tAlice\tPer son\ta1",
        "E\tAlice\tPerson\ta 1",
        "T\tAlice\tworksFor\ta1",
        "T\t\tworksFor\tAcme\ta1",
        "T\tAlice\twork For\tAcme\ta1",
        "X\tAlice\tPerson\ta1",
        "garbage",
    ):
        assert parse_record_line(bad) is None


def test_token_fields_reject_exactly_what_split_breaks_on():
    # Every whitespace code point, a stride through all the others, and a
    # few that look like spaces but are not whitespace to str.split().
    spaces = [c for c in range(0x110000) if chr(c).isspace()]
    others = range(0, 0x110000, 97)
    for c in [*spaces, *others, 0x200B, 0x2060, 0xFEFF, 0x180E]:
        ch = chr(c)
        breaks = len(f"P{ch}Q".split()) > 1
        assert breaks is ch.isspace()
        for line in (
            f"E\tAlice\tP{ch}Q\ta1",
            f"E\tAlice\tPerson\tA{ch}1",
            f"T\tAlice\tworks{ch}For\tAcme\ta1",
        ):
            assert (parse_record_line(line) is None) is breaks, hex(c)


def test_parse_records_counts_and_content():
    text = (
        "E\tAlice\tPerson\ta1\n"
        "\n"
        "not a record\n"
        "E\tAcme\tOrganization\ta1\n"
        "T\tAlice\tworksFor\tAcme\ta1\n"
        "T\tAlice\tworksFor\tGhost\ta1\n"
    )
    graph, diags = parse_records(text)
    assert diags.malformed_lines == 1
    assert diags.closure_violations == 1
    assert graph.entities == {"Alice": ("Person", "a1"), "Acme": ("Organization", "a1")}
    assert graph.triples == {("Alice", "worksFor", "Acme"): "a1"}


def test_triple_may_precede_entity_declarations():
    text = (
        "T\tAlice\tworksFor\tAcme\ta1\n"
        "E\tAlice\tPerson\ta1\n"
        "E\tAcme\tOrganization\ta1\n"
    )
    graph, diags = parse_records(text)
    assert diags.closure_violations == 0
    assert ("Alice", "worksFor", "Acme") in graph.triples


def test_class_conflict_keeps_smaller_class():
    records = [
        EntityAssertion("Alice", "Person", "a2"),
        EntityAssertion("Alice", "Agent", "a9"),
        EntityAssertion("Alice", "Agent", "a3"),
    ]
    graph, diags = build_graph(records, [])
    assert diags.class_conflicts == 1
    assert graph.entities["Alice"] == ("Agent", "a3")


def test_duplicate_provenance_keeps_smallest():
    records = [
        EntityAssertion("Alice", "Person", "a9"),
        EntityAssertion("Alice", "Person", "a1"),
    ]
    triples = [
        TripleAssertion("Alice", "knows", "Alice", "a7"),
        TripleAssertion("Alice", "knows", "Alice", "a2"),
    ]
    graph, diags = build_graph(records, triples)
    assert diags.class_conflicts == 0
    assert graph.entities["Alice"] == ("Person", "a1")
    assert graph.triples[("Alice", "knows", "Alice")] == "a2"


def test_build_is_order_insensitive():
    rng = random.Random(11)
    for _ in range(100):
        entities = [
            EntityAssertion(f"e{rng.randrange(6)}", rng.choice("AB"), f"a{rng.randrange(3)}")
            for _ in range(rng.randrange(1, 10))
        ]
        triples = [
            TripleAssertion(f"e{rng.randrange(6)}", "p", f"e{rng.randrange(6)}", "a0")
            for _ in range(rng.randrange(0, 6))
        ]
        base, _ = build_graph(entities, triples)
        shuffled_e, shuffled_t = entities[:], triples[:]
        rng.shuffle(shuffled_e)
        rng.shuffle(shuffled_t)
        again, _ = build_graph(shuffled_e, shuffled_t)
        assert again == base


@pytest.mark.parametrize("module", [kgmon.graph, kgmon.metrics, kgmon.ontology])
def test_public_names_resolve(module):
    # A name left in __all__ after its definition is gone breaks
    # `from module import *`.
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_instantiation_views():
    graph, _ = parse_records(
        "E\tAlice\tPerson\ta1\n"
        "E\tAcme\tCompany\ta1\n"
        "E\tBerlin\tCity\ta1\n"
        "T\tAlice\tworksFor\tAcme\ta1\n"
    )
    assert instantiated_classes(graph) == {"Person", "Company", "City"}
    assert instantiated_properties(graph) == {"worksFor"}


def test_canonical_serialize_round_trip_and_stability():
    rng = random.Random(37)
    for _ in range(100):
        graph = _random_graph(rng)
        text = canonical_serialize(graph)
        reparsed, diags = parse_records(text)
        assert diags.malformed_lines == 0
        assert diags.closure_violations == 0
        assert reparsed == graph
        assert canonical_serialize(reparsed) == text
        lines = text.splitlines()
        assert lines == sorted(lines, key=lambda l: (l[0] != "E", l))


def test_canonical_serialize_empty():
    assert canonical_serialize(KnowledgeGraph()) == ""
    graph, _ = parse_records("")
    assert graph == KnowledgeGraph()
    assert len(graph.entities) == 0


def _reference_build_graph(entity_records, triple_records):
    # Every entity's assertions gathered first, then settled by min over
    # all of them: the class, then the provenance among that class.
    by_entity = {}
    for rec in entity_records:
        by_entity.setdefault(rec.entity, []).append(rec)
    entities, conflicts = {}, 0
    for entity, recs in by_entity.items():
        kept_cls = min(r.cls for r in recs)
        conflicts += any(r.cls != kept_cls for r in recs)
        prov = min(r.provenance for r in recs if r.cls == kept_cls)
        entities[entity] = (kept_cls, prov)
    triples, dropped = {}, 0
    for rec in triple_records:
        if rec.subject not in entities or rec.object not in entities:
            dropped += 1
            continue
        key = (rec.subject, rec.predicate, rec.object)
        triples[key] = min(triples.get(key, rec.provenance), rec.provenance)
    return entities, triples, conflicts, dropped


_ENTITY = st.builds(
    EntityAssertion,
    st.sampled_from(["e0", "e1", "e2", "E0", "e0 x"]),
    st.sampled_from(["A", "B", "Ab", "a"]),
    st.sampled_from(["p0", "p1", "p10", "P2"]),
)
_TRIPLE = st.builds(
    TripleAssertion,
    st.sampled_from(["e0", "e1", "e2", "e3"]),
    st.sampled_from(["q", "r"]),
    st.sampled_from(["e0", "e1", "e2", "e3"]),
    st.sampled_from(["p0", "p1", "p10"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_ENTITY, max_size=14), st.lists(_TRIPLE, max_size=8))
@example(
    # A conflict whose smaller class arrives last, and a repeat of the
    # first class with a smaller provenance after it.
    [
        EntityAssertion("e0", "B", "p1"),
        EntityAssertion("e1", "A", "p1"),
        EntityAssertion("e0", "B", "p0"),
        EntityAssertion("e0", "A", "p10"),
        EntityAssertion("e1", "A", "p0"),
    ],
    [TripleAssertion("e0", "q", "e1", "p1"), TripleAssertion("e0", "q", "e3", "p0")],
)
def test_build_graph_equals_min_over_all_records(entity_records, triple_records):
    graph, diags = build_graph(entity_records, triple_records)
    entities, triples, conflicts, dropped = _reference_build_graph(
        entity_records, triple_records
    )
    # Dicts compare without order; the entity order is compared apart.
    assert list(graph.entities.items()) == list(entities.items())
    assert list(graph.triples.items()) == list(triples.items())
    assert diags.class_conflicts == conflicts
    assert diags.closure_violations == dropped


@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=codepoint)
def test_parse_records_keeps_unicode_line_separators_in_a_record(char):
    graph, diags = parse_records(f"E\tAl{char}ice\tPerson\ta1\nE\tBob\tPerson\ta1\n")
    assert graph.entities == {"Al ice": ("Person", "a1"), "Bob": ("Person", "a1")}
    assert diags.malformed_lines == 0


@pytest.mark.parametrize("brk", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_parse_records_breaks_lines_as_text_mode_does(brk):
    text = brk.join(["E\tAlice\tPerson\ta1", "", "bad", "E\tBob\tPerson\ta1", ""])
    graph, diags = parse_records(text)
    assert list(graph.entities) == ["Alice", "Bob"]
    assert diags.malformed_lines == 1
