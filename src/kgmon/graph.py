"""Knowledge-graph value type: typed entity assertions plus provenance-tagged
triples, with order-independent construction and byte-exact canonical
serialization.

Graphs are values. They are built from record streams or per-article
fragments and never mutated afterwards.

Record file format (UTF-8, tab-separated, one record per line):

    E<TAB>entity<TAB>class<TAB>article_id
    T<TAB>subject<TAB>predicate<TAB>object<TAB>article_id

Entity fields may contain spaces; class, predicate, and article_id are
whitespace-free tokens.
"""

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from kgmon.kernels import split_lines

__all__ = [
    "EntityAssertion",
    "TripleAssertion",
    "KnowledgeGraph",
    "GraphDiagnostics",
    "normalize_entity",
    "build_graph",
    "parse_records",
    "instantiated_classes",
    "instantiated_properties",
    "canonical_serialize",
]


# Records are immutable NamedTuples: one is built per record line or
# extracted match, and a tuple builds in under half the time of a frozen
# dataclass. Derive a changed copy with `_replace`.
class EntityAssertion(NamedTuple):
    entity: str
    cls: str
    provenance: str


class TripleAssertion(NamedTuple):
    subject: str
    predicate: str
    object: str
    provenance: str


@dataclass
class GraphDiagnostics:
    malformed_lines: int = 0
    closure_violations: int = 0
    class_conflicts: int = 0


@dataclass(frozen=True)
class KnowledgeGraph:
    """Deduplicated entity-type assertions and triples.

    `entities` maps entity id to (class, provenance); `triples` maps
    (subject, predicate, object) to provenance.
    """

    entities: dict[str, tuple[str, str]] = field(default_factory=dict)
    triples: dict[tuple[str, str, str], str] = field(default_factory=dict)


def normalize_entity(surface: str) -> str:
    """Trim and collapse internal whitespace to single spaces, preserving case."""
    return " ".join(surface.split())


def build_graph(
    entity_records: list[EntityAssertion],
    triple_records: list[TripleAssertion],
) -> tuple[KnowledgeGraph, GraphDiagnostics]:
    """Assemble a valid graph from raw assertion lists.

    Dedup rules keep the result independent of record order: conflicting
    class assertions keep the lexicographically smaller class (counted as a
    conflict), duplicate assertions keep the lexicographically smallest
    provenance, and triples whose endpoints carry no entity assertion are
    dropped (counted as closure violations).
    """
    diags = GraphDiagnostics()

    # The smallest (class, provenance) pair is the smallest class with the
    # smallest provenance among its assertions. An entity's first assertion
    # goes in directly; only a repeat is compared, in place, so the entity
    # keeps the position of its first assertion.
    entities: dict[str, tuple[str, str]] = {}
    conflicted: set[str] = set()
    for rec in entity_records:
        pair = (rec.cls, rec.provenance)
        held = entities.setdefault(rec.entity, pair)
        if held is not pair:
            if pair[0] != held[0]:
                conflicted.add(rec.entity)
            if pair < held:
                entities[rec.entity] = pair
    diags.class_conflicts = len(conflicted)

    triples: dict[tuple[str, str, str], str] = {}
    for rec in triple_records:
        if rec.subject not in entities or rec.object not in entities:
            diags.closure_violations += 1
            continue
        key = (rec.subject, rec.predicate, rec.object)
        if key in triples:
            triples[key] = min(triples[key], rec.provenance)
        else:
            triples[key] = rec.provenance

    return KnowledgeGraph(entities=entities, triples=triples), diags


# `\s` matches exactly the characters that str.split() breaks on.
_has_space = re.compile(r"\s").search


def _is_token(value: str) -> bool:
    return bool(value) and _has_space(value) is None


def parse_record_line(line: str) -> EntityAssertion | TripleAssertion | None:
    """Parse one record line; None if it fails the record grammar."""
    # Entity fields are normalized as normalize_entity does, inlined: this
    # runs once per candidate line.
    fields = line.split("\t")
    count = len(fields)
    if count == 4 and fields[0] == "E":
        entity = " ".join(fields[1].split())
        cls, prov = fields[2], fields[3]
        if entity and _is_token(cls) and _is_token(prov):
            return EntityAssertion(entity, cls, prov)
    elif count == 5 and fields[0] == "T":
        subj = " ".join(fields[1].split())
        pred = fields[2]
        obj = " ".join(fields[3].split())
        prov = fields[4]
        if subj and obj and _is_token(pred) and _is_token(prov):
            return TripleAssertion(subj, pred, obj, prov)
    return None


def parse_records(text: str) -> tuple[KnowledgeGraph, GraphDiagnostics]:
    """Parse E/T record text into a graph.

    Malformed lines are skipped and counted, never fatal. Triples may
    reference entities declared anywhere in the text; dangling triples are
    dropped and counted as closure violations.
    """
    entity_records: list[EntityAssertion] = []
    triple_records: list[TripleAssertion] = []
    malformed = 0
    for raw in split_lines(text):
        if not raw.strip():
            continue
        rec = parse_record_line(raw)
        if rec is None:
            malformed += 1
            continue
        if isinstance(rec, EntityAssertion):
            entity_records.append(rec)
        else:
            triple_records.append(rec)

    graph, diags = build_graph(entity_records, triple_records)
    diags.malformed_lines = malformed
    return graph, diags


def instantiated_classes(g: KnowledgeGraph) -> set[str]:
    """Classes with at least one entity assertion."""
    return {cls for cls, _ in g.entities.values()}


def instantiated_properties(g: KnowledgeGraph) -> set[str]:
    """Properties used by at least one triple."""
    return {pred for (_, pred, _) in g.triples}


def canonical_serialize(g: KnowledgeGraph) -> str:
    """Byte-stable text form: sorted E records, then sorted T records, LF
    line endings. parse_records() of the output reproduces the graph."""
    e_lines = sorted(
        f"E\t{entity}\t{cls}\t{prov}"
        for entity, (cls, prov) in g.entities.items()
    )
    t_lines = sorted(
        f"T\t{s}\t{p}\t{o}\t{prov}" for (s, p, o), prov in g.triples.items()
    )
    lines = e_lines + t_lines
    return "".join(line + "\n" for line in lines)
