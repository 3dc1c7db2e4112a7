"""Seeded perturbation lab for detector validation.

Degrades a synthetic baseline graph in controlled, reproducible ways
(class drops, property drops, synthetic entity injection, depth skew) and
runs whole scenarios through the monitor's threshold, optionally with
Gaussian noise on the metric deltas to exercise threshold calibration.
A scenario only computes rows; the caller reads and appends the history.
"""

import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from kgmon.graph import (
    KnowledgeGraph,
    instantiated_classes,
    instantiated_properties,
)
from kgmon.kernels import split_lines
from kgmon.metrics import MetricVector, metric_delta, metric_vector
from kgmon.monitor import HistoryRow, ThresholdState, observe
from kgmon.ontology import Ontology

SYNTHETIC_PREFIX = "##synthetic"
# Model name of every row a scenario returns, and the provenance of every
# synthetic baseline entity and triple.
SIM_MODEL = "sim"


class SimulationError(ValueError):
    pass


class PerturbationKind(str, Enum):
    DROP_CLASSES = "drop-classes"
    DROP_PROPERTIES = "drop-properties"
    INJECT_ENTITIES = "inject-entities"
    DEPTH_SKEW = "depth-skew"
    DELTA_NOISE = "delta-noise"


_COUNT_KINDS = (
    PerturbationKind.DROP_CLASSES,
    PerturbationKind.DROP_PROPERTIES,
    PerturbationKind.INJECT_ENTITIES,
)


@dataclass(frozen=True)
class PerturbationSpec:
    kind: PerturbationKind
    magnitude: float
    seed: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise SimulationError("seed must be nonnegative")
        if not math.isfinite(self.magnitude):
            raise SimulationError(f"{self.kind.value} magnitude must be finite")
        if self.kind in _COUNT_KINDS:
            if self.magnitude < 1 or not float(self.magnitude).is_integer():
                raise SimulationError(
                    f"{self.kind.value} magnitude must be a positive integer"
                )
        elif self.kind is PerturbationKind.DEPTH_SKEW:
            if not 0.0 <= self.magnitude <= 1.0:
                raise SimulationError("depth-skew fraction must be in [0,1]")
        elif self.magnitude < 0:
            raise SimulationError("delta-noise sigma must be nonnegative")


def _deepest_descendants(ontology: Ontology) -> dict[str, str]:
    # For each root class with subclasses: its deepest descendant, ties
    # broken lexicographically.
    out: dict[str, str] = {}
    for cls, depth in ontology.depths.items():
        if depth != 0:
            continue
        below = ontology.descendants(cls)
        if below:
            out[cls] = min(below, key=lambda d: (-ontology.depths[d], d))
    return out


def perturb(
    g: KnowledgeGraph, spec: PerturbationSpec, ontology: Ontology
) -> KnowledgeGraph:
    """Apply one seeded graph perturbation; same inputs give a byte-identical
    result. Selection always samples from sorted domains so the outcome
    depends only on the seed, never on dict order."""
    rng = random.Random(spec.seed)

    if spec.kind is PerturbationKind.DROP_CLASSES:
        k = int(spec.magnitude)
        present = sorted(instantiated_classes(g))
        if k > len(present):
            raise SimulationError(
                f"drop-classes {k} infeasible: {len(present)} classes instantiated"
            )
        doomed = set(rng.sample(present, k))
        entities = {
            e: (c, p) for e, (c, p) in g.entities.items() if c not in doomed
        }
        triples = {
            t: prov
            for t, prov in g.triples.items()
            if t[0] in entities and t[2] in entities
        }
        return KnowledgeGraph(entities=entities, triples=triples)

    if spec.kind is PerturbationKind.DROP_PROPERTIES:
        k = int(spec.magnitude)
        present = sorted(instantiated_properties(g))
        if k > len(present):
            raise SimulationError(
                f"drop-properties {k} infeasible: {len(present)} properties in use"
            )
        doomed = set(rng.sample(present, k))
        triples = {
            (s, p, o): prov
            for (s, p, o), prov in g.triples.items()
            if p not in doomed
        }
        return KnowledgeGraph(entities=dict(g.entities), triples=triples)

    if spec.kind is PerturbationKind.INJECT_ENTITIES:
        n = int(spec.magnitude)
        classes = sorted(ontology.classes)
        entities = dict(g.entities)
        for i in range(n):
            # The ## prefix cannot come out of the tokenizer, so these
            # surfaces are guaranteed untraceable to any batch text.
            surface = f"{SYNTHETIC_PREFIX}-{spec.seed}-{i:04d}"
            entities[surface] = (rng.choice(classes), SYNTHETIC_PREFIX)
        return KnowledgeGraph(entities=entities, triples=dict(g.triples))

    if spec.kind is PerturbationKind.DEPTH_SKEW:
        deepest = _deepest_descendants(ontology)
        eligible = sorted(
            e for e, (c, _) in g.entities.items() if c in deepest
        )
        count = round(spec.magnitude * len(eligible))
        chosen = rng.sample(eligible, count)
        entities = dict(g.entities)
        for e in chosen:
            cls, prov = entities[e]
            entities[e] = (deepest[cls], prov)
        return KnowledgeGraph(entities=entities, triples=dict(g.triples))

    raise SimulationError(
        "delta-noise perturbs scenario deltas, not graphs; schedule it in a run"
    )


@dataclass
class ScenarioResult:
    records: list[HistoryRow]
    first_flag_step: int | None
    false_positive_count: int

    def flagged_steps(self) -> list[int]:
        return [i for i, r in enumerate(self.records) if r.flagged]

    def summary_line(self) -> str:
        return json.dumps(
            {
                "steps": len(self.records),
                "first_flag_step": self.first_flag_step,
                "false_positive_count": self.false_positive_count,
                "flagged_steps": self.flagged_steps(),
            }
        )


def _clamp_unit(value: float) -> float:
    # Noise models measurement error on the candidate metrics, so it must
    # stay symmetric around the clean delta; clamping magnitude to 1 keeps
    # scores bounded without rectifying the distribution at zero.
    return max(-1.0, min(1.0, value))


def _synthetic_graph(ontology: Ontology) -> KnowledgeGraph:
    """Every ontology class carries two entities and every property one
    triple, so all unperturbed deltas are zero and IPR is 1."""
    surfaces = {
        cls: (f"{cls} Alpha", f"{cls} Beta") for cls in sorted(ontology.classes)
    }
    entities = {
        name: (cls, SIM_MODEL) for cls, names in surfaces.items() for name in names
    }
    triples = {
        (surfaces[pdef.domain][0], pname, surfaces[pdef.range][1]): SIM_MODEL
        for pname, pdef in sorted(ontology.properties.items())
    }
    return KnowledgeGraph(entities, triples)


def run_scenario(
    ontology: Ontology,
    steps: int,
    schedule: Mapping[int, PerturbationSpec],
    weights: MetricVector,
    state: ThresholdState,
    *,
    noise_sigma: float,
    noise_seed: int,
) -> ScenarioResult:
    """Observe `steps` steps of one synthetic baseline graph of `ontology`
    through `state`, as `observe` does one row; the rows are returned, not
    written. Step s's row has the model SIM_MODEL and the batch_id
    `sim-{s:05d}`. Timestamps go on from `state.last_timestamp`, or start
    at 0 when it has none.

    Each step's candidate is the baseline perturbed per the schedule
    (identity when absent). A scheduled delta-noise entry overrides the
    configured sigma for that step only. Three Gaussian draws are consumed
    every step regardless of sigma, so a given noise_seed yields the same
    noise stream under any schedule. False positives are counted on steps
    with no schedule entry. A step that raises leaves `state` as the steps
    before it left it.
    """
    g_base = _synthetic_graph(ontology)
    base_m = metric_vector(g_base, ontology)
    first_timestamp = 0 if state.last_timestamp is None else state.last_timestamp + 1
    noise_rng = random.Random(noise_seed)
    records: list[HistoryRow] = []
    first_flag: int | None = None
    false_positives = 0

    for step in range(steps):
        scheduled = schedule.get(step)
        sigma = noise_sigma
        cand_m = base_m
        if scheduled is not None:
            if scheduled.kind is PerturbationKind.DELTA_NOISE:
                sigma = scheduled.magnitude
            else:
                try:
                    candidate = perturb(g_base, scheduled, ontology)
                except SimulationError as exc:
                    raise SimulationError(f"step {step}: {exc}") from exc
                cand_m = metric_vector(candidate, ontology)
        clean = metric_delta(cand_m, base_m)

        eps = (
            noise_rng.gauss(0.0, 1.0),
            noise_rng.gauss(0.0, 1.0),
            noise_rng.gauss(0.0, 1.0),
        )
        noised = MetricVector(
            *(_clamp_unit(d + sigma * e) for d, e in zip(clean, eps)), clean.hal
        )

        row, _top = observe(
            state,
            timestamp=first_timestamp + step,
            model=SIM_MODEL,
            metrics=cand_m,
            delta=noised,
            weights=weights,
            batch_id=f"sim-{step:05d}",
        )
        records.append(row)
        if row.flagged:
            if first_flag is None:
                first_flag = step
            if scheduled is None:
                false_positives += 1

    return ScenarioResult(
        records=records,
        first_flag_step=first_flag,
        false_positive_count=false_positives,
    )


def load_schedule(
    text: str, steps: int
) -> tuple[dict[int, PerturbationSpec], list[int]]:
    """Parse schedule lines `step<TAB>kind<TAB>magnitude<TAB>seed` plus
    optional `ASSERT_FLAG_AT step` directives, for a run of `steps` steps;
    every step must lie in it."""
    schedule: dict[int, PerturbationSpec] = {}
    asserts: list[int] = []
    for lineno, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        is_assert = line.startswith("ASSERT_FLAG_AT")
        if is_assert:
            try:
                (step,) = map(int, line.split()[1:])
            except ValueError as exc:
                raise SimulationError(
                    f"schedule line {lineno}: ASSERT_FLAG_AT needs one step number"
                ) from exc
        else:
            fields = raw.split("\t")
            if len(fields) != 4:
                raise SimulationError(f"schedule line {lineno}: expected 4 fields")
            try:
                step = int(fields[0])
                kind = PerturbationKind(fields[1].strip())
                magnitude = float(fields[2])
                seed = int(fields[3])
            except ValueError as exc:
                raise SimulationError(f"schedule line {lineno}: {exc}") from exc
        if step < 0:
            raise SimulationError(f"schedule line {lineno}: negative step")
        if step >= steps:
            raise SimulationError(
                f"schedule line {lineno}: step {step} is not below --steps {steps}"
            )
        if is_assert:
            asserts.append(step)
        elif step in schedule:
            raise SimulationError(f"schedule line {lineno}: duplicate step {step}")
        else:
            schedule[step] = PerturbationSpec(kind=kind, magnitude=magnitude, seed=seed)
    return schedule, sorted(asserts)
