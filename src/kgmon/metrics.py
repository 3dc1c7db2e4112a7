"""Structural graph metrics against an ontology.

ICR and IPR are instantiation ratios over the schema's classes and
properties. CI weights per-class instantiation by 1/2^depth, so instance
mass sitting in deep classes scores lower than mass at the roots. Deltas
between a candidate and a baseline vector are componentwise absolute
differences.
"""

import logging
from typing import NamedTuple

from kgmon.graph import (
    KnowledgeGraph,
    instantiated_classes,
    instantiated_properties,
)
from kgmon.ontology import Ontology

log = logging.getLogger(__name__)

__all__ = [
    "MetricsError",
    "MetricVector",
    "icr",
    "ipr",
    "ci",
    "metric_vector",
    "metric_delta",
]


class MetricsError(ValueError):
    pass


class MetricVector(NamedTuple):
    """One number per metric: a graph's metric values, the delta of two
    graphs, or the anomaly weights. `hal` is None where no hallucination
    score (or weight) exists."""

    icr: float
    ipr: float
    ci: float
    hal: float | None = None


def icr(g: KnowledgeGraph, ontology: Ontology) -> float:
    """Fraction of ontology classes with at least one asserted instance.

    Classes asserted in the graph but absent from the ontology never count;
    they are hallucination evidence, not coverage.
    """
    if not ontology.classes:
        raise MetricsError("icr undefined: ontology declares no classes")
    inst = instantiated_classes(g) & set(ontology.classes)
    return len(inst) / len(ontology.classes)


def ipr(g: KnowledgeGraph, ontology: Ontology) -> float:
    """Fraction of ontology properties used by at least one triple."""
    if not ontology.properties:
        raise MetricsError("ipr undefined: ontology declares no properties")
    used = instantiated_properties(g) & set(ontology.properties)
    return len(used) / len(ontology.properties)


def ci(g: KnowledgeGraph, ontology: Ontology) -> float:
    """Depth-weighted instantiation: sum over classes of ir(c)/2^depth(c).

    ir(c) is the share of ontology-classed entities asserted exactly class
    c (no subclass inheritance), so the shares sum to 1 and CI stays in
    [0,1]. Computed as a single division: the numerator is a sum of exact
    dyadic terms, which lands the all-depth-0 extreme on 1.0 exactly.
    A graph with no ontology-classed entities scores 0.0 with a warning.
    """
    counts: dict[str, int] = {}
    for cls, _ in g.entities.values():
        if cls in ontology.classes:
            counts[cls] = counts.get(cls, 0) + 1
    total = sum(counts.values())
    if total == 0:
        log.warning("ci: no ontology-classed entities, defining score as 0.0")
        return 0.0
    numerator = sum(
        count * 0.5 ** ontology.depths[cls]
        for cls, count in sorted(counts.items())
    )
    return numerator / total


def metric_vector(g: KnowledgeGraph, ontology: Ontology) -> MetricVector:
    """Bundle the three structural metrics; hal is left unset."""
    return MetricVector(
        icr=icr(g, ontology), ipr=ipr(g, ontology), ci=ci(g, ontology)
    )


def metric_delta(candidate: MetricVector, baseline: MetricVector) -> MetricVector:
    """Componentwise |candidate - baseline|; hal only when both sides
    carry a hallucination score."""
    hal = None
    if candidate.hal is not None and baseline.hal is not None:
        hal = abs(candidate.hal - baseline.hal)
    return MetricVector(
        icr=abs(candidate.icr - baseline.icr),
        ipr=abs(candidate.ipr - baseline.ipr),
        ci=abs(candidate.ci - baseline.ci),
        hal=hal,
    )
