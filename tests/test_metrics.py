import math
import random

import pytest

from kgmon.graph import EntityAssertion, TripleAssertion, build_graph
from kgmon.metrics import (
    MetricsError,
    MetricVector,
    ci,
    icr,
    ipr,
    metric_delta,
    metric_vector,
)
from kgmon.ontology import load_ontology


def _graph(entity_specs, triple_specs=()):
    entities = [EntityAssertion(e, c, "a1") for e, c in entity_specs]
    triples = [TripleAssertion(s, p, o, "a1") for s, p, o in triple_specs]
    graph, _ = build_graph(entities, triples)
    return graph


def random_ontology(rng):
    n = rng.randint(1, 10)
    names = [f"C{i}" for i in range(n)]
    depths = {}
    lines = []
    for i, name in enumerate(names):
        shallow = [p for p in names[:i] if depths[p] < 3]
        if shallow and rng.random() < 0.55:
            parent = rng.choice(shallow)
            depths[name] = depths[parent] + 1
            lines.append(f"CLASS {name} SUBCLASS_OF {parent}")
        else:
            depths[name] = 0
            lines.append(f"CLASS {name}")
    for j in range(rng.randint(1, 8)):
        lines.append(
            f"PROPERTY P{j} DOMAIN {rng.choice(names)} RANGE {rng.choice(names)}"
        )
    return load_ontology("\n".join(lines)), depths


def random_graph(rng, onto):
    class_pool = list(onto.classes) + ["Zoff1", "Zoff2"]
    entity_specs = [
        (f"e{i}", rng.choice(class_pool)) for i in range(rng.randrange(0, 50))
    ]
    names = [e for e, _ in entity_specs] or ["e0"]
    pred_pool = list(onto.properties) + ["qoff"]
    triple_specs = [
        (rng.choice(names), rng.choice(pred_pool), rng.choice(names))
        for _ in range(rng.randrange(0, 30))
    ]
    return _graph(entity_specs, triple_specs)


def oracle_metrics(graph, onto, depths):
    hit = sum(
        1
        for c in onto.classes
        if any(cls == c for cls, _ in graph.entities.values())
    )
    o_icr = hit / len(onto.classes)
    used = sum(
        1
        for p in onto.properties
        if any(pred == p for (_, pred, _) in graph.triples)
    )
    o_ipr = used / len(onto.properties)
    classed = [c for c, _ in graph.entities.values() if c in onto.classes]
    if not classed:
        o_ci = 0.0
    else:
        o_ci = sum(
            (classed.count(c) / len(classed)) / (2 ** depths[c])
            for c in onto.classes
        )
    return o_icr, o_ipr, o_ci


def test_icr_examples(onto):
    g = _graph([("Alice", "Person"), ("Acme", "Company"), ("Berlin", "City")])
    assert icr(g, onto) == 3 / 5
    assert icr(_graph([]), onto) == 0.0
    full = _graph([(c, c) for c in onto.classes])
    assert icr(full, onto) == 1.0


def test_icr_ignores_out_of_schema(onto):
    g = _graph([("x", "Martian"), ("Alice", "Person")])
    assert icr(g, onto) == 1 / 5


def test_ipr_examples(onto):
    g = _graph(
        [("Alice", "Person"), ("Acme", "Company")],
        [("Alice", "worksFor", "Acme"), ("Alice", "mentors", "Acme")],
    )
    assert ipr(g, onto) == 1 / 2
    assert ipr(_graph([("Alice", "Person")]), onto) == 0.0


def test_empty_schema_raises():
    only_classes = load_ontology("CLASS A\n")
    with pytest.raises(MetricsError, match="ipr"):
        ipr(_graph([]), only_classes)
    no_classes = load_ontology("")
    with pytest.raises(MetricsError, match="icr"):
        icr(_graph([]), no_classes)


def test_ci_depth_weighting():
    onto = load_ontology(
        "CLASS A\nCLASS B SUBCLASS_OF A\nCLASS C SUBCLASS_OF B\n"
        "PROPERTY p DOMAIN A RANGE A\n"
    )
    assert ci(_graph([("x", "A")]), onto) == 1.0
    assert ci(_graph([("x", "B")]), onto) == 0.5
    assert ci(_graph([("x", "C")]), onto) == 0.25
    mixed = _graph([("x", "A"), ("y", "B"), ("z", "B"), ("w", "C")])
    assert ci(mixed, onto) == (1 + 0.5 + 0.5 + 0.25) / 4


def test_ci_textbook_split(onto):
    # One root-level entity and nine depth-one entities: (1 + 9 * 0.5) / 10
    specs = [("alice", "Person")] + [(f"c{i}", "Company") for i in range(9)]
    assert ci(_graph(specs), onto) == 0.55


def test_ci_no_classed_entities_warns(onto, caplog):
    with caplog.at_level("WARNING", logger="kgmon.metrics"):
        assert ci(_graph([("x", "Martian")]), onto) == 0.0
    assert any("no ontology-classed" in r.message for r in caplog.records)


def test_metrics_match_oracle_on_random_graphs():
    rng = random.Random(101)
    for _ in range(400):
        onto, depths = random_ontology(rng)
        g = random_graph(rng, onto)
        o_icr, o_ipr, o_ci = oracle_metrics(g, onto, depths)
        assert icr(g, onto) == o_icr
        assert ipr(g, onto) == o_ipr
        assert math.isclose(ci(g, onto), o_ci, rel_tol=0, abs_tol=1e-12)
        assert 0.0 <= ci(g, onto) <= 1.0


def test_metric_vector_bundles(onto):
    g = _graph(
        [("Alice Chen", "Person"), ("Acme Corp", "Company"), ("Berlin", "City")],
        [("Alice Chen", "worksFor", "Acme Corp"), ("Acme Corp", "locatedIn", "Berlin")],
    )
    v = metric_vector(g, onto)
    assert v == MetricVector(icr=3 / 5, ipr=1.0, ci=(1 + 0.5 + 0.5) / 3)
    assert v.hal is None


def test_metric_delta_componentwise_abs():
    a = MetricVector(icr=0.8, ipr=0.25, ci=0.5)
    b = MetricVector(icr=0.3, ipr=0.75, ci=0.5)
    d = metric_delta(a, b)
    assert (d.icr, d.ipr, d.ci) == (0.5, 0.5, 0.0)
    assert d.hal is None
    assert metric_delta(b, a) == d


def test_metric_delta_hal_requires_both():
    with_hal = MetricVector(icr=0.1, ipr=0.1, ci=0.1, hal=0.4)
    without = MetricVector(icr=0.2, ipr=0.2, ci=0.2)
    assert metric_delta(with_hal, without).hal is None
    assert metric_delta(without, with_hal).hal is None
    both = metric_delta(with_hal, MetricVector(icr=0.0, ipr=0.0, ci=0.0, hal=0.1))
    assert math.isclose(both.hal, 0.3, abs_tol=1e-15)


def test_ci_extremes_are_exact():
    rng = random.Random(55)
    for _ in range(100):
        onto, depths = random_ontology(rng)
        roots = [c for c, d in depths.items() if d == 0]
        g = _graph([(f"r{i}", rng.choice(roots)) for i in range(rng.randint(1, 20))])
        assert ci(g, onto) == 1.0
        deep = [c for c, d in depths.items() if d == 1]
        if deep:
            g1 = _graph([(f"s{i}", rng.choice(deep)) for i in range(rng.randint(1, 20))])
            assert ci(g1, onto) == 0.5
