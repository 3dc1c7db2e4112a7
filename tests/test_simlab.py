import math
import random

import pytest

from kgmon.graph import canonical_serialize, parse_records
from kgmon.hallucination import source_text, validate_graph
from kgmon.metrics import ci, icr, ipr, metric_vector
from kgmon.monitor import read_history
from kgmon.simlab import (
    SYNTHETIC_PREFIX,
    PerturbationKind,
    PerturbationSpec,
    ScenarioConfig,
    SimulationError,
    load_schedule,
    perturb,
    run_scenario,
    synthetic_stream,
)


@pytest.fixture
def base_graph(onto):
    graph, _ = parse_records(
        "E\tAlice Chen\tPerson\ta0\n"
        "E\tBob Marsh\tPerson\ta0\n"
        "E\tGlobex\tOrganization\ta0\n"
        "E\tAcme Corp\tCompany\ta0\n"
        "E\tBerlin\tCity\ta0\n"
        "E\tLake Victoria\tLocation\ta0\n"
        "T\tAlice Chen\tworksFor\tGlobex\ta0\n"
        "T\tGlobex\tlocatedIn\tBerlin\ta0\n"
    )
    return graph


def test_spec_validation():
    PerturbationSpec(PerturbationKind.DROP_CLASSES, 2.0, 0)
    PerturbationSpec(PerturbationKind.DEPTH_SKEW, 0.5, 1)
    PerturbationSpec(PerturbationKind.DELTA_NOISE, 0.02, 1)
    with pytest.raises(SimulationError, match="positive integer"):
        PerturbationSpec(PerturbationKind.DROP_CLASSES, 0.5, 0)
    with pytest.raises(SimulationError, match="positive integer"):
        PerturbationSpec(PerturbationKind.INJECT_ENTITIES, 0.0, 0)
    with pytest.raises(SimulationError, match="fraction"):
        PerturbationSpec(PerturbationKind.DEPTH_SKEW, 1.5, 0)
    with pytest.raises(SimulationError, match="nonnegative"):
        PerturbationSpec(PerturbationKind.DELTA_NOISE, -0.1, 0)
    with pytest.raises(SimulationError, match="seed"):
        PerturbationSpec(PerturbationKind.DROP_CLASSES, 1.0, -1)


def test_drop_classes_lowers_icr(onto, base_graph):
    before = icr(base_graph, onto)
    assert before == 1.0
    spec = PerturbationSpec(PerturbationKind.DROP_CLASSES, 2.0, 7)
    out = perturb(base_graph, spec, onto)
    assert icr(out, onto) == (5 - 2) / 5
    for entity in out.entities:
        assert entity in base_graph.entities
    for (s, _, o) in out.triples:
        assert s in out.entities and o in out.entities


def test_drop_classes_deterministic(onto, base_graph):
    spec = PerturbationSpec(PerturbationKind.DROP_CLASSES, 2.0, 7)
    a = canonical_serialize(perturb(base_graph, spec, onto))
    b = canonical_serialize(perturb(base_graph, spec, onto))
    assert a == b
    other = PerturbationSpec(PerturbationKind.DROP_CLASSES, 2.0, 8)
    outcomes = {
        canonical_serialize(
            perturb(base_graph, PerturbationSpec(PerturbationKind.DROP_CLASSES, 2.0, s), onto)
        )
        for s in range(12)
    }
    assert len(outcomes) > 1
    assert canonical_serialize(perturb(base_graph, other, onto)) in outcomes


def test_drop_classes_infeasible(onto, base_graph):
    spec = PerturbationSpec(PerturbationKind.DROP_CLASSES, 6.0, 0)
    with pytest.raises(SimulationError, match="infeasible"):
        perturb(base_graph, spec, onto)


def test_drop_properties(onto, base_graph):
    spec = PerturbationSpec(PerturbationKind.DROP_PROPERTIES, 1.0, 3)
    out = perturb(base_graph, spec, onto)
    assert ipr(out, onto) == 0.5
    assert out.entities == base_graph.entities
    both = perturb(
        base_graph, PerturbationSpec(PerturbationKind.DROP_PROPERTIES, 2.0, 3), onto
    )
    assert both.triples == {}
    with pytest.raises(SimulationError, match="infeasible"):
        perturb(
            base_graph,
            PerturbationSpec(PerturbationKind.DROP_PROPERTIES, 3.0, 0),
            onto,
        )


def test_inject_entities_untraceable(onto, base_graph):
    spec = PerturbationSpec(PerturbationKind.INJECT_ENTITIES, 3.0, 11)
    out = perturb(base_graph, spec, onto)
    assert len(out) == len(base_graph) + 3
    added = set(out.entities) - set(base_graph.entities)
    assert added == {f"{SYNTHETIC_PREFIX}-11-{i:04d}" for i in range(3)}
    for surface in added:
        cls, prov = out.entities[surface]
        assert cls in onto.classes
        assert prov == SYNTHETIC_PREFIX
    assert out.triples == base_graph.triples


def test_inject_then_validate_scores_fraction(onto, base_graph):
    text = (
        "Alice Chen and Bob Marsh joined Globex and Acme Corp near "
        "Berlin and Lake Victoria."
    )
    from kgmon.extract import ArticleDoc

    batch = [ArticleDoc(id="a0", published_at=0, text=text)]
    clean = validate_graph(base_graph, source_text(batch), onto)
    assert clean.score == 0.0
    spec = PerturbationSpec(PerturbationKind.INJECT_ENTITIES, 3.0, 5)
    report = validate_graph(perturb(base_graph, spec, onto), source_text(batch), onto)
    assert report.total == 6 + 3
    assert report.hallucinated == 3
    assert report.score == 3 / 9


def test_depth_skew_moves_to_deepest(onto, base_graph):
    spec = PerturbationSpec(PerturbationKind.DEPTH_SKEW, 1.0, 2)
    out = perturb(base_graph, spec, onto)
    # Every root-class entity whose root has descendants moves down one level.
    assert out.entities["Globex"][0] == "Company"
    assert out.entities["Lake Victoria"][0] == "City"
    assert out.entities["Alice Chen"][0] == "Person"
    assert out.entities["Acme Corp"][0] == "Company"
    assert ci(out, onto) < ci(base_graph, onto)


def test_depth_skew_fraction_rounding(onto, base_graph):
    half = PerturbationSpec(PerturbationKind.DEPTH_SKEW, 0.5, 9)
    out = perturb(base_graph, half, onto)
    moved = sum(
        1
        for e, (c, _) in out.entities.items()
        if c != base_graph.entities[e][0]
    )
    assert moved == 1  # round(0.5 * 2) == 1 eligible entity moved
    zero = PerturbationSpec(PerturbationKind.DEPTH_SKEW, 0.0, 9)
    assert perturb(base_graph, zero, onto) == base_graph


def test_delta_noise_is_not_a_graph_perturbation(onto, base_graph):
    spec = PerturbationSpec(PerturbationKind.DELTA_NOISE, 0.1, 0)
    with pytest.raises(SimulationError, match="schedule it in a run"):
        perturb(base_graph, spec, onto)


def test_synthetic_stream_shape(onto):
    steps = list(synthetic_stream(onto, 3))
    assert len(steps) == 3
    batch, graph = steps[0]
    assert len(batch) == 1
    assert batch[0].id == "sim-00000"
    assert len(graph) == 10
    m = metric_vector(graph, onto)
    assert m.icr == 1.0 and m.ipr == 1.0
    report = validate_graph(graph, source_text(batch), onto)
    assert report.score == 0.0
    later_batch, later = steps[2]
    assert later.timestamp == 2
    assert canonical_serialize(later) != ""
    assert {e: c for e, (c, _) in later.entities.items()} == {
        e: c for e, (c, _) in graph.entities.items()
    }
    assert metric_vector(later, onto) == m


def test_run_scenario_identity_never_flags(onto):
    config = ScenarioConfig(ontology=onto, warmup_min=5, capacity=30)
    result = run_scenario(synthetic_stream(onto, 40), {}, config)
    assert len(result.records) == 40
    assert result.first_flag_step is None
    assert result.false_positive_count == 0
    assert result.flagged_steps() == []
    assert all(r.score == 0.0 for r in result.records)
    assert all(r.threshold is None for r in result.records[:5])
    assert all(r.threshold == 0.0 for r in result.records[5:])


def test_run_scenario_flags_scheduled_perturbation(onto):
    schedule = {25: PerturbationSpec(PerturbationKind.DROP_CLASSES, 3.0, 4)}
    config = ScenarioConfig(ontology=onto, warmup_min=5, capacity=30)
    result = run_scenario(synthetic_stream(onto, 40), schedule, config)
    assert result.first_flag_step == 25
    assert result.false_positive_count == 0
    record = result.records[25]
    assert record.flagged
    assert record.score >= 3 / 5 / 3
    assert result.records[26].score == 0.0


def test_run_scenario_noise_reproducible(onto):
    config = ScenarioConfig(
        ontology=onto, warmup_min=5, capacity=30, noise_sigma=0.02, noise_seed=42
    )
    r1 = run_scenario(synthetic_stream(onto, 60), {}, config)
    r2 = run_scenario(synthetic_stream(onto, 60), {}, config)
    assert [r.score for r in r1.records] == [r.score for r in r2.records]
    assert r1.summary_line() == r2.summary_line()
    other = ScenarioConfig(
        ontology=onto, warmup_min=5, capacity=30, noise_sigma=0.02, noise_seed=43
    )
    r3 = run_scenario(synthetic_stream(onto, 60), {}, other)
    assert [r.score for r in r1.records] != [r.score for r in r3.records]


def test_run_scenario_noise_draws_fixed_per_step(onto):
    # A scheduled graph perturbation must not shift the noise stream: the
    # same seed gives identical noise on the steps around it.
    config = ScenarioConfig(
        ontology=onto, warmup_min=5, capacity=30, noise_sigma=0.02, noise_seed=9
    )
    plain = run_scenario(synthetic_stream(onto, 30), {}, config)
    schedule = {10: PerturbationSpec(PerturbationKind.DROP_PROPERTIES, 1.0, 0)}
    bumped = run_scenario(synthetic_stream(onto, 30), schedule, config)
    for i in (9, 11, 20, 29):
        assert bumped.records[i].score == plain.records[i].score


def test_run_scenario_scheduled_delta_noise_overrides_sigma(onto):
    schedule = {12: PerturbationSpec(PerturbationKind.DELTA_NOISE, 0.5, 0)}
    config = ScenarioConfig(
        ontology=onto, warmup_min=5, capacity=30, noise_sigma=0.0, noise_seed=21
    )
    result = run_scenario(synthetic_stream(onto, 20), schedule, config)
    assert all(
        r.score == 0.0 for i, r in enumerate(result.records) if i != 12
    )
    assert result.records[12].score != 0.0
    # Flagging at the scheduled step is not a false positive.
    assert result.false_positive_count == 0


def test_run_scenario_counts_false_positives(onto):
    config = ScenarioConfig(
        ontology=onto, warmup_min=5, capacity=30, noise_sigma=0.3, noise_seed=3
    )
    result = run_scenario(synthetic_stream(onto, 200), {}, config)
    assert result.false_positive_count == len(result.flagged_steps())
    assert result.false_positive_count > 0


def test_run_scenario_reports_infeasible_step(onto):
    schedule = {8: PerturbationSpec(PerturbationKind.DROP_CLASSES, 9.0, 0)}
    config = ScenarioConfig(ontology=onto, warmup_min=5)
    with pytest.raises(SimulationError, match="step 8"):
        run_scenario(synthetic_stream(onto, 20), schedule, config)


def test_run_scenario_too_short(onto):
    config = ScenarioConfig(ontology=onto, warmup_min=10)
    with pytest.raises(SimulationError, match="too short"):
        run_scenario(synthetic_stream(onto, 5), {}, config)


def test_run_scenario_writes_history(onto, tmp_path):
    path = str(tmp_path / "sim.jsonl")
    config = ScenarioConfig(ontology=onto, warmup_min=5, history_path=path)
    result = run_scenario(synthetic_stream(onto, 12), {}, config)
    rows = read_history(path)
    assert len(rows) == 12
    assert all(row.model == "sim" for row in rows)
    assert [row.timestamp for row in rows] == list(range(12))
    # The file holds exactly the rows the scenario returns.
    assert rows == result.records


def test_run_scenario_keeps_rows_before_a_failing_step(onto, tmp_path):
    path = tmp_path / "sim.jsonl"
    config = ScenarioConfig(ontology=onto, warmup_min=5, history_path=str(path))
    too_many = len(onto.classes) + 1
    schedule = {7: PerturbationSpec(PerturbationKind.DROP_CLASSES, too_many, 1)}
    with pytest.raises(SimulationError, match="step 7"):
        run_scenario(synthetic_stream(onto, 12), schedule, config)
    rows = read_history(str(path))
    assert [row.timestamp for row in rows] == list(range(7))

    def stream_that_breaks():
        for step, item in enumerate(synthetic_stream(onto, 12)):
            if step == 4:
                raise OSError("feed went away")
            yield item

    path.unlink()
    with pytest.raises(OSError, match="feed went away"):
        run_scenario(stream_that_breaks(), {}, config)
    assert [row.timestamp for row in read_history(str(path))] == list(range(4))


def test_summary_line_shape(onto):
    config = ScenarioConfig(ontology=onto, warmup_min=5)
    result = run_scenario(synthetic_stream(onto, 10), {}, config)
    import json

    payload = json.loads(result.summary_line())
    assert payload == {
        "steps": 10,
        "first_flag_step": None,
        "false_positive_count": 0,
        "flagged_steps": [],
    }


def test_load_schedule_parses_and_validates():
    text = (
        "# comment\n"
        "\n"
        "5\tdrop-classes\t2\t7\n"
        "9\tdelta-noise\t0.25\t0\n"
        "ASSERT_FLAG_AT 5\n"
    )
    schedule, asserts = load_schedule(text)
    assert set(schedule) == {5, 9}
    assert schedule[5] == PerturbationSpec(PerturbationKind.DROP_CLASSES, 2.0, 7)
    assert schedule[9].kind is PerturbationKind.DELTA_NOISE
    assert asserts == [5]
    with pytest.raises(SimulationError, match="expected 4 fields"):
        load_schedule("5\tdrop-classes\t2\n")
    with pytest.raises(SimulationError, match="line 1"):
        load_schedule("5\tshrink-ray\t2\t0\n")
    with pytest.raises(SimulationError, match="duplicate step"):
        load_schedule("5\tdrop-classes\t2\t0\n5\tdrop-classes\t1\t0\n")
    with pytest.raises(SimulationError, match="negative step"):
        load_schedule("-1\tdrop-classes\t2\t0\n")
    with pytest.raises(SimulationError, match="ASSERT_FLAG_AT"):
        load_schedule("ASSERT_FLAG_AT five\n")
