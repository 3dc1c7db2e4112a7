"""End-to-end acceptance checks for the monitoring toolkit.

Each test pins one externally visible behavior at a stated tolerance and
prints a single PASS or FAIL line naming it. Run with

    pytest tests/test_acceptance.py -v -s

to see the lines; without -s pytest shows them only for failing tests.
"""

import json
import random
import time
from contextlib import contextmanager

import pytest

from conftest import ONTOLOGY_TEXT
from kgmon.cli import main
from kgmon.extract import ArticleDoc, build_baseline
from kgmon.graph import KnowledgeGraph, canonical_serialize
from kgmon.hallucination import (
    STAGE_RULES,
    STAGE_SOURCE,
    source_text,
    validate_graph,
)
from kgmon.metrics import MetricVector, ci, icr, ipr, metric_delta
from kgmon.monitor import (
    BASELINE_MODEL,
    HistoryRow,
    ThresholdState,
    anomaly_score,
    append_history,
    baseline_row,
    normalize_weights,
    read_history,
    replay_history,
)
from kgmon.ontology import Ontology, load_ontology
from kgmon.simlab import (
    PerturbationKind,
    PerturbationSpec,
    perturb,
    run_scenario,
)


_EQUAL_WEIGHTS = normalize_weights(1.0, 1.0, 1.0)


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL: {summary}")
        raise
    print(f"criterion {num} PASS: {summary}")


def _row(model: str, m: MetricVector, d, score: float) -> HistoryRow:
    return HistoryRow(
        timestamp=1,
        model=model,
        batch_id="t1",
        icr=m.icr,
        ipr=m.ipr,
        ci=m.ci,
        hal=m.hal,
        d_icr=d.icr,
        d_ipr=d.ipr,
        d_ci=d.ci,
        score=score,
        threshold=None,
        flagged=False,
        hall_total=0,
        hall_failed=0,
    )


def test_worked_example_deltas_and_score(tmp_path):
    with criterion(
        1, "delta vector and uniform-weight score reproduce the worked example"
    ):
        start = time.perf_counter()
        gt = MetricVector(icr=0.80, ipr=0.92, ci=0.09)
        cand = MetricVector(icr=0.16, ipr=0.07, ci=0.07)
        delta = metric_delta(cand, gt)
        score = anomaly_score(delta, _EQUAL_WEIGHTS)

        # Bitwise identity with an independent recomputation of each term.
        assert delta.icr == abs(cand.icr - gt.icr)
        assert delta.ipr == abs(cand.ipr - gt.ipr)
        assert delta.ci == abs(cand.ci - gt.ci)
        assert delta.hal is None

        assert delta.icr == 0.64
        assert abs(delta.ipr - 0.85) <= 1e-15
        assert abs(delta.ci - 0.02) <= 1e-15
        assert abs(score - 0.5033333333333333) <= 1e-9

        # The values survive a history round trip bit for bit.
        path = str(tmp_path / "history.jsonl")
        append_history(path, baseline_row(1, "t1", gt))
        append_history(path, _row("gpt35", cand, delta, score))
        rows = read_history(path)
        stored = {r.model: r for r in rows}
        assert stored[BASELINE_MODEL].icr == 0.80
        got = stored["gpt35"]
        assert (got.d_icr, got.d_ipr, got.d_ci) == (
            delta.icr,
            delta.ipr,
            delta.ci,
        )
        assert got.score == score
        assert time.perf_counter() - start < 1.0


def _random_ontology(rng: random.Random) -> Ontology:
    lines = []
    names = [f"C{i}" for i in range(rng.randint(1, 10))]
    depths: dict[str, int] = {}
    for i, name in enumerate(names):
        parents = [p for p in names[:i] if depths[p] < 3]
        if parents and rng.random() < 0.6:
            parent = rng.choice(parents)
            lines.append(f"CLASS {name} SUBCLASS_OF {parent}")
            depths[name] = depths[parent] + 1
        else:
            lines.append(f"CLASS {name}")
            depths[name] = 0
    for j in range(rng.randint(1, 8)):
        dom = rng.choice(names)
        ran = rng.choice(names)
        lines.append(f"PROPERTY P{j} DOMAIN {dom} RANGE {ran}")
    return load_ontology("\n".join(lines) + "\n")


def _random_graph(rng: random.Random, ontology: Ontology) -> KnowledgeGraph:
    classes = sorted(ontology.classes) + ["Zoff1", "Zoff2"]
    preds = sorted(ontology.properties) + ["qoff"]
    entities = {
        f"e{i}": (rng.choice(classes), "b1")
        for i in range(rng.randint(0, 50))
    }
    triples = {}
    names = sorted(entities)
    for _ in range(rng.randint(0, 30)):
        if not names:
            break
        triples[(rng.choice(names), rng.choice(preds), rng.choice(names))] = "b1"
    return KnowledgeGraph(entities=entities, triples=triples)


def _oracle_metrics(g: KnowledgeGraph, ontology: Ontology):
    # Straight-line recomputation in per-class order, dividing each term
    # separately; any mistake in the library's set algebra shows up here.
    present = {cls for cls, _ in g.entities.values()}
    used = {p for (_, p, _) in g.triples}
    icr_o = sum(1 for c in ontology.classes if c in present) / len(
        ontology.classes
    )
    ipr_o = sum(1 for p in ontology.properties if p in used) / len(
        ontology.properties
    )
    counts: dict[str, int] = {}
    for cls, _ in g.entities.values():
        if cls in ontology.classes:
            counts[cls] = counts.get(cls, 0) + 1
    total = sum(counts.values())
    if total == 0:
        ci_o = 0.0
    else:
        ci_o = sum(
            (n / total) * 0.5 ** ontology.depths[cls]
            for cls, n in sorted(counts.items())
        )
    return icr_o, ipr_o, ci_o


def test_structural_metrics_match_oracle():
    with criterion(
        2, "ICR/IPR exact and CI within 1e-12 of a brute-force oracle on 1000 graphs"
    ):
        start = time.perf_counter()
        rng = random.Random(424242)
        for _ in range(1000):
            ontology = _random_ontology(rng)
            g = _random_graph(rng, ontology)
            icr_o, ipr_o, ci_o = _oracle_metrics(g, ontology)
            assert icr(g, ontology) == icr_o
            assert ipr(g, ontology) == ipr_o
            assert ci(g, ontology) == pytest.approx(ci_o, abs=1e-12)
        assert time.perf_counter() - start < 30.0


def test_ci_bounds_and_extremes():
    with criterion(
        3, "CI stays in [0,1], hits the extremes exactly, and drops iff depth > 0"
    ):
        rng = random.Random(987)
        for _ in range(300):
            ontology = _random_ontology(rng)
            g = _random_graph(rng, ontology)
            value = ci(g, ontology)
            assert 0.0 <= value <= 1.0
            classed_depths = [
                ontology.depths[cls]
                for cls, _ in g.entities.values()
                if cls in ontology.classes
            ]
            if classed_depths:
                assert (value < 1.0) == any(d > 0 for d in classed_depths)

        chain = load_ontology(
            "CLASS A\nCLASS B SUBCLASS_OF A\nPROPERTY p DOMAIN A RANGE A\n"
        )
        roots = KnowledgeGraph(
            entities={f"r{i}": ("A", "b") for i in range(7)}
        )
        assert ci(roots, chain) == 1.0
        deep = KnowledgeGraph(entities={"d": ("B", "b")})
        assert ci(deep, chain) == 0.5


_PEOPLE = ["Alice Chen", "Bob Marsh", "Dana Wu"]
_ORGS = ["Acme Corp", "Initech", "Globex"]
_PLACES = ["Berlin", "Geneva", "Lake Victoria"]


def _corpus(rng: random.Random, n: int) -> list[ArticleDoc]:
    articles = []
    for i in range(n):
        sentences = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if roll < 0.4:
                sentences.append(
                    f"{rng.choice(_PEOPLE)} works for {rng.choice(_ORGS)}."
                )
            elif roll < 0.7:
                sentences.append(
                    f"{rng.choice(_ORGS)} is based in {rng.choice(_PLACES)}."
                )
            else:
                sentences.append(
                    f"{rng.choice(_PEOPLE)} visited {rng.choice(_PLACES)} twice."
                )
        articles.append(
            ArticleDoc(id=f"a{i:03d}", text=" ".join(sentences))
        )
    return articles


def test_baseline_build_is_deterministic(onto, dictionary, rules):
    with criterion(
        4, "baseline builds are byte-identical across runs and order"
    ):
        start = time.perf_counter()
        rng = random.Random(31)
        articles = _corpus(rng, 100)
        reference = None
        for run in range(10):
            shuffled = articles[:]
            rng.shuffle(shuffled)
            g, diags = build_baseline(shuffled, dictionary, rules, onto)
            assert diags.malformed_lines == 0
            text = canonical_serialize(g)
            if reference is None:
                reference = text
            assert text == reference
        assert "\nT\t" in reference
        assert time.perf_counter() - start < 10.0


def test_hallucination_scoring(onto):
    with criterion(
        5, "injected entities score n/(7+n) and unknown predicates fail both endpoints"
    ):
        text = (
            "Alice Chen and Bob Marsh met in Berlin and Geneva. "
            "Alice Chen works for Acme Corp. Acme Corp is based in Berlin. "
            "Globex shipped goods across Lake Victoria."
        )
        batch = [ArticleDoc(id="n1", text=text)]
        clean = KnowledgeGraph(
            entities={
                "Alice Chen": ("Person", "n1"),
                "Bob Marsh": ("Person", "n1"),
                "Acme Corp": ("Company", "n1"),
                "Globex": ("Organization", "n1"),
                "Berlin": ("City", "n1"),
                "Geneva": ("City", "n1"),
                "Lake Victoria": ("Location", "n1"),
            },
            triples={
                ("Alice Chen", "worksFor", "Acme Corp"): "n1",
                ("Acme Corp", "locatedIn", "Berlin"): "n1",
            },
        )
        base = validate_graph(clean, source_text(batch), onto)
        assert base.total == 7
        assert base.hallucinated == 0
        assert base.score == 0.0

        for n in (1, 3, 7):
            spec = PerturbationSpec(
                PerturbationKind.INJECT_ENTITIES, float(n), seed=40 + n
            )
            report = validate_graph(perturb(clean, spec, onto), source_text(batch), onto)
            assert report.total == 7 + n
            assert report.hallucinated == n
            assert report.per_stage[STAGE_SOURCE] == n
            assert report.score == n / (7 + n)

        exo_batch = [
            ArticleDoc(
                id="x1",
                text="Gliese 581g may hold water, observers said.",
            )
        ]
        exo = KnowledgeGraph(
            entities={
                "Gliese 581g": ("Location", "x1"),
                "water": ("Location", "x1"),
            },
            triples={("Gliese 581g", "contains", "water"): "x1"},
        )
        report = validate_graph(exo, source_text(exo_batch), onto)
        assert report.score == 1.0
        for verdict in report.verdicts:
            assert verdict.failed_stage == STAGE_RULES
            assert verdict.evidence == "(Gliese 581g, contains, water)"


@pytest.fixture(scope="module")
def stream_ontology():
    return load_ontology(ONTOLOGY_TEXT)


def test_noise_only_flag_rates(stream_ontology):
    with criterion(
        6, "flag rate on a noise-only stream is 1-4% at lambda=2 and <=1% at lambda=3"
    ):
        start = time.perf_counter()
        fractions = {}
        for lam in (2.0, 3.0):
            result = run_scenario(
                stream_ontology,
                10_000,
                {},
                _EQUAL_WEIGHTS,
                ThresholdState(capacity=30, lam=lam, warmup_min=5),
                noise_sigma=0.02,
                noise_seed=2026,
            )
            armed = [r for r in result.records if r.threshold is not None]
            assert len(armed) > 9000
            fractions[lam] = sum(r.flagged for r in armed) / len(armed)
        assert 0.01 <= fractions[2.0] <= 0.04
        assert fractions[3.0] <= 0.01
        assert time.perf_counter() - start < 60.0


def test_seeded_drift_detection_rate(stream_ontology):
    with criterion(
        7, "a 3-class drop at step 20 is flagged at step 20 in >=95 of 100 seeded runs"
    ):
        start = time.perf_counter()
        hits = 0
        for i in range(100):
            schedule = {
                20: PerturbationSpec(
                    PerturbationKind.DROP_CLASSES, 3.0, seed=1000 + i
                )
            }
            result = run_scenario(
                stream_ontology,
                50,
                schedule,
                _EQUAL_WEIGHTS,
                ThresholdState(capacity=30, lam=2.0, warmup_min=20),
                noise_sigma=0.02,
                noise_seed=i,
            )
            if result.first_flag_step == 20:
                hits += 1
        assert hits >= 95
        assert time.perf_counter() - start < 60.0


def test_history_replay_is_bit_exact(stream_ontology, tmp_path):
    with criterion(
        8, "replaying stored history reproduces thresholds and flags bit for bit"
    ):
        path = str(tmp_path / "history.jsonl")
        schedule = {
            60: PerturbationSpec(PerturbationKind.DROP_CLASSES, 2.0, seed=77),
            140: PerturbationSpec(
                PerturbationKind.INJECT_ENTITIES, 4.0, seed=78
            ),
        }
        result = run_scenario(
            stream_ontology,
            200,
            schedule,
            _EQUAL_WEIGHTS,
            ThresholdState(capacity=12, lam=2.0, warmup_min=5),
            noise_sigma=0.02,
            noise_seed=4242,
        )
        assert any(r.flagged for r in result.records)
        append_history(path, *result.records)

        rows = read_history(path)
        assert len(rows) == 200
        replayed = replay_history(rows, capacity=12, lam=2.0, warmup_min=5)
        assert len(replayed) == 200
        for row, threshold, flagged in replayed:
            assert threshold == row.threshold
            assert flagged == row.flagged

        # Interleaved baseline rows are reporting data, not monitor state.
        gt = MetricVector(icr=1.0, ipr=1.0, ci=0.75)
        padded = []
        for i, row in enumerate(rows):
            if i % 7 == 0:
                padded.append(baseline_row(row.timestamp, row.batch_id, gt))
            padded.append(row)
        assert (
            replay_history(padded, capacity=12, lam=2.0, warmup_min=5)
            == replayed
        )


def test_report_renders_per_timestamp_tables(tmp_path, capsys):
    with criterion(
        9, "the report table shows one column per model with baseline first"
    ):
        path = str(tmp_path / "history.jsonl")
        gt = MetricVector(icr=0.80, ipr=0.92, ci=0.09)
        append_history(path, baseline_row(1, "t1", gt))
        for model, m in (
            ("gpt35", MetricVector(icr=0.16, ipr=0.07, ci=0.07, hal=0.5)),
            ("qwen", MetricVector(icr=0.12, ipr=0.05, ci=0.08, hal=0.5)),
        ):
            delta = metric_delta(m, gt)
            score = anomaly_score(delta, _EQUAL_WEIGHTS)
            append_history(path, _row(model, m, delta, score))

        assert main(["report", "--history", path, "--timestamp", "1"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0] == "timestamp 1"
        cells = {line.split()[0]: line.split() for line in lines[1:]}
        assert cells["metric"][1:] == [BASELINE_MODEL, "gpt35", "qwen"]
        assert cells["ICR"][1:] == ["0.80", "0.16", "0.12"]
        assert cells["IPR"][1:] == ["0.92", "0.07", "0.05"]
        assert cells["CI"][1:] == ["0.09", "0.07", "0.08"]
        assert cells["Hal"][1:] == ["-", "0.50", "0.50"]

        assert main(["report", "--history", path, "--format", "records"]) == 0
        out = capsys.readouterr().out
        with open(path, encoding="utf-8") as fh:
            assert out == fh.read()
        for line in out.splitlines():
            json.loads(line)
