import math
import random

import pytest

from kgmon import simlab
from kgmon.graph import canonical_serialize, instantiated_classes, parse_records
from kgmon.hallucination import source_text, validate_graph
from kgmon.metrics import MetricVector, ci, icr, ipr, metric_vector
from kgmon.monitor import ThresholdState, normalize_weights
from kgmon.simlab import (
    SYNTHETIC_PREFIX,
    PerturbationKind,
    PerturbationSpec,
    SimulationError,
    _synthetic_graph,
    load_schedule,
    perturb,
    run_scenario,
)

from conftest import NOT_LINE_BREAKS, codepoint


def _scenario(onto, steps, schedule, **params):
    """run_scenario under equal weights, a 30-score window, lambda 2,
    warmup 5 and no noise, except where `params` says otherwise."""
    params = {"noise_sigma": 0.0, "noise_seed": 0, **params}
    state = ThresholdState(capacity=30, lam=2.0, warmup_min=5)
    weights = normalize_weights(1.0, 1.0, 1.0)
    return run_scenario(onto, steps, schedule, weights, state, **params)


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
    assert len(out.entities) == len(base_graph.entities) + 3
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

    batch = [ArticleDoc(id="a0", text=text)]
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


def test_synthetic_baseline_shape(onto):
    graph = _synthetic_graph(onto)
    assert len(graph.entities) == 2 * len(onto.classes) == 10
    assert instantiated_classes(graph) == set(onto.classes)
    assert sorted(p for _, p, _ in graph.triples) == sorted(onto.properties)
    m = metric_vector(graph, onto)
    assert m.icr == 1.0 and m.ipr == 1.0
    # Every step scores that one graph and names its row by the step.
    result = _scenario(onto, 3, {})
    assert [r.batch_id for r in result.records] == ["sim-00000", "sim-00001", "sim-00002"]
    assert {MetricVector(r.icr, r.ipr, r.ci, r.hal) for r in result.records} == {m}


def test_run_scenario_scores_the_baseline_once(onto, monkeypatch):
    # One metric_vector for the baseline, and one per graph-perturbed step;
    # delta-noise and unscheduled steps reuse the baseline's metrics.
    calls = []

    def counted(graph, ontology):
        calls.append(graph)
        return metric_vector(graph, ontology)

    monkeypatch.setattr(simlab, "metric_vector", counted)
    schedule = {
        6: PerturbationSpec(PerturbationKind.DROP_CLASSES, 1.0, 0),
        9: PerturbationSpec(PerturbationKind.DELTA_NOISE, 0.1, 0),
        12: PerturbationSpec(PerturbationKind.DEPTH_SKEW, 1.0, 0),
    }
    _scenario(onto, 20, schedule)
    assert len(calls) == 1 + 2
    _scenario(onto, 20, {})
    assert len(calls) == 3 + 1


def test_run_scenario_identity_never_flags(onto):
    result = _scenario(onto, 40, {})
    assert len(result.records) == 40
    assert result.first_flag_step is None
    assert result.false_positive_count == 0
    assert result.flagged_steps() == []
    assert all(r.score == 0.0 for r in result.records)
    assert all(r.threshold is None for r in result.records[:5])
    assert all(r.threshold == 0.0 for r in result.records[5:])


def test_run_scenario_flags_scheduled_perturbation(onto):
    schedule = {25: PerturbationSpec(PerturbationKind.DROP_CLASSES, 3.0, 4)}
    result = _scenario(onto, 40, schedule)
    assert result.first_flag_step == 25
    assert result.false_positive_count == 0
    record = result.records[25]
    assert record.flagged
    assert record.score >= 3 / 5 / 3
    assert result.records[26].score == 0.0


def test_run_scenario_noise_reproducible(onto):
    def run(seed):
        return _scenario(onto, 60, {}, noise_sigma=0.02, noise_seed=seed)

    r1 = run(42)
    r2 = run(42)
    assert [r.score for r in r1.records] == [r.score for r in r2.records]
    assert r1.summary_line() == r2.summary_line()
    r3 = run(43)
    assert [r.score for r in r1.records] != [r.score for r in r3.records]


def test_run_scenario_noise_draws_fixed_per_step(onto):
    # A scheduled graph perturbation must not shift the noise stream: the
    # same seed gives identical noise on the steps around it.
    noise = {"noise_sigma": 0.02, "noise_seed": 9}
    plain = _scenario(onto, 30, {}, **noise)
    schedule = {10: PerturbationSpec(PerturbationKind.DROP_PROPERTIES, 1.0, 0)}
    bumped = _scenario(onto, 30, schedule, **noise)
    for i in (9, 11, 20, 29):
        assert bumped.records[i].score == plain.records[i].score


def test_run_scenario_scheduled_delta_noise_overrides_sigma(onto):
    schedule = {12: PerturbationSpec(PerturbationKind.DELTA_NOISE, 0.5, 0)}
    result = _scenario(onto, 20, schedule, noise_sigma=0.0, noise_seed=21)
    assert all(
        r.score == 0.0 for i, r in enumerate(result.records) if i != 12
    )
    assert result.records[12].score != 0.0
    # Flagging at the scheduled step is not a false positive.
    assert result.false_positive_count == 0


def test_run_scenario_counts_false_positives(onto):
    result = _scenario(onto, 200, {}, noise_sigma=0.3, noise_seed=3)
    assert result.false_positive_count == len(result.flagged_steps())
    assert result.false_positive_count > 0


def test_run_scenario_reports_infeasible_step(onto):
    schedule = {8: PerturbationSpec(PerturbationKind.DROP_CLASSES, 9.0, 0)}
    with pytest.raises(SimulationError, match="step 8"):
        _scenario(onto, 20, schedule)


def test_run_scenario_continues_the_state_it_is_given(onto):
    state = ThresholdState(
        capacity=30, lam=2.0, warmup_min=5, scores=[0.0] * 4, last_timestamp=41
    )
    weights = normalize_weights(1.0, 1.0, 1.0)
    result = run_scenario(onto, 3, {}, weights, state, noise_sigma=0.0, noise_seed=0)
    assert [r.timestamp for r in result.records] == [42, 43, 44]
    # The four seeded scores count toward warmup 5.
    assert [r.threshold for r in result.records] == [None, 0.0, 0.0]
    assert state.scores == [0.0] * 7 and state.last_timestamp == 44


# The first rows of the detection-power table: each perturbation applied
# alone at four isolated steps of a 60-step run with noise sigma 0.002.
# Steps 7, 15 and 16 are the noise-only false positives of every row.
@pytest.mark.parametrize(
    "kind, magnitude, flagged",
    [
        (PerturbationKind.DROP_CLASSES, 1, [20, 30, 40, 50]),
        (PerturbationKind.DROP_PROPERTIES, 1, [20, 30, 40, 50]),
        (PerturbationKind.DEPTH_SKEW, 0.2, [20, 30, 40, 50]),
        (PerturbationKind.DEPTH_SKEW, 1.0, [20, 30, 40, 50]),
        (PerturbationKind.INJECT_ENTITIES, 1, [20, 30]),
        (PerturbationKind.INJECT_ENTITIES, 10, [20, 30, 50]),
        (PerturbationKind.INJECT_ENTITIES, 100, [20, 30]),
    ],
    ids=lambda v: getattr(v, "value", None),
)
def test_detection_power_at_isolated_steps(onto, kind, magnitude, flagged):
    steps = (20, 30, 40, 50)
    schedule = {step: PerturbationSpec(kind, magnitude, step) for step in steps}
    result = _scenario(onto, 60, schedule, noise_sigma=0.002)
    assert [step for step in steps if result.records[step].flagged] == flagged
    assert result.false_positive_count == 3
    assert result.flagged_steps() == [7, 15, 16, *flagged]


# The sustained-drift rows of the detection-power table: each perturbation
# applied at every step from onset 20 to the end of the same 60-step run.
# Flagged scores join the window, so every kind is absorbed after a few
# flags; the later ones are noise around the drifted level.
@pytest.mark.parametrize(
    "kind, magnitude, flagged",
    [
        (PerturbationKind.DROP_CLASSES, 1, [20, 21, 22, 23, 24, 25, 27, 38]),
        (PerturbationKind.DROP_PROPERTIES, 1, [20, 21, 22, 23, 24]),
        (PerturbationKind.DEPTH_SKEW, 0.2, [20, 21, 22, 23, 26]),
        (PerturbationKind.DEPTH_SKEW, 1.0, [20, 21, 22, 23, 24]),
        (PerturbationKind.INJECT_ENTITIES, 1, [20, 21, 22, 26, 31]),
        (PerturbationKind.INJECT_ENTITIES, 10, [20, 21, 22, 24, 28, 31, 32, 47]),
        (PerturbationKind.INJECT_ENTITIES, 100, [20, 26, 28, 30, 31, 41, 47]),
    ],
    ids=lambda v: getattr(v, "value", None),
)
def test_detection_power_under_sustained_drift(onto, kind, magnitude, flagged):
    onset = 20
    schedule = {
        step: PerturbationSpec(kind, magnitude, step) for step in range(onset, 60)
    }
    result = _scenario(onto, 60, schedule, noise_sigma=0.002)
    drifted = [step for step in result.flagged_steps() if step >= onset]
    assert drifted == flagged
    assert drifted[0] - onset == 0  # the delay to the first flag
    # Every flag before the onset is noise only, and none after it is.
    assert result.false_positive_count == 3
    assert result.flagged_steps() == [7, 15, 16, *flagged]


def test_summary_line_shape(onto):
    result = _scenario(onto, 10, {})
    import json

    payload = json.loads(result.summary_line())
    assert payload == {
        "steps": 10,
        "first_flag_step": None,
        "false_positive_count": 0,
        "flagged_steps": [],
    }


@pytest.mark.parametrize("kind", list(PerturbationKind), ids=lambda k: k.value)
def test_perturbation_magnitude_must_be_finite(kind):
    message = f"^{kind.value} magnitude must be finite$"
    for magnitude in (math.nan, math.inf, -math.inf):
        with pytest.raises(SimulationError, match=message):
            PerturbationSpec(kind, magnitude, 0)


def test_load_schedule_parses_and_validates():
    text = (
        "# comment\n"
        "\n"
        "5\tdrop-classes\t2\t7\n"
        "9\tdelta-noise\t0.25\t0\n"
        "ASSERT_FLAG_AT 5\n"
    )
    schedule, asserts = load_schedule(text, 10)
    assert set(schedule) == {5, 9}
    assert schedule[5] == PerturbationSpec(PerturbationKind.DROP_CLASSES, 2.0, 7)
    assert schedule[9].kind is PerturbationKind.DELTA_NOISE
    assert asserts == [5]
    with pytest.raises(SimulationError, match="expected 4 fields"):
        load_schedule("5\tdrop-classes\t2\n", 10)
    with pytest.raises(SimulationError, match="line 1"):
        load_schedule("5\tshrink-ray\t2\t0\n", 10)
    with pytest.raises(SimulationError, match="duplicate step"):
        load_schedule("5\tdrop-classes\t2\t0\n5\tdrop-classes\t1\t0\n", 10)
    with pytest.raises(SimulationError, match="negative step"):
        load_schedule("-1\tdrop-classes\t2\t0\n", 10)
    with pytest.raises(SimulationError, match="ASSERT_FLAG_AT"):
        load_schedule("ASSERT_FLAG_AT five\n", 10)
    with pytest.raises(SimulationError, match="line 1: step 10 is not below"):
        load_schedule("10\tdrop-classes\t2\t0\n", 10)
    with pytest.raises(SimulationError, match="line 2: step 10 is not below"):
        load_schedule("9\tdrop-classes\t2\t0\nASSERT_FLAG_AT 10\n", 10)


@pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=codepoint)
def test_schedule_comment_keeps_unicode_line_separators(char):
    schedule, asserts = load_schedule(f"# drop{char}classes\n12\tdrop-classes\t3\t5\n", 13)
    assert list(schedule) == [12] and asserts == []


@pytest.mark.parametrize("brk", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_schedule_breaks_lines_as_text_mode_does(brk):
    text = brk.join(["12\tdrop-classes\t3\t5", "ASSERT_FLAG_AT 12", ""])
    schedule, asserts = load_schedule(text, 13)
    assert list(schedule) == [12] and asserts == [12]
    with pytest.raises(SimulationError, match="schedule line 3: expected 4 fields"):
        load_schedule(brk.join(["# x", "", "12\tdrop-classes", ""]), 13)
