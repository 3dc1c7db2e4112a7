"""Entity-level hallucination scoring for candidate graphs.

Each distinct entity passes through three stages in order: source tracing
(does its surface occur in the batch text), schema alignment (is its class
declared), and rule conformance (do its incident triples respect the
ontology's domain and range constraints). The first failing stage is
recorded; the score is the fraction of entities that failed anywhere.
"""

import logging
from dataclasses import dataclass

from kgmon.extract import ArticleDoc
from kgmon.graph import KnowledgeGraph, normalize_entity
from kgmon.ontology import Ontology, is_permissible

log = logging.getLogger(__name__)

STAGE_NONE = "none"
STAGE_SOURCE = "source-trace"
STAGE_SCHEMA = "schema-alignment"
STAGE_RULES = "rule-conformance"

FAIL_STAGES = (STAGE_SOURCE, STAGE_SCHEMA, STAGE_RULES)


@dataclass(frozen=True)
class ValidationVerdict:
    entity: str
    failed_stage: str
    evidence: str


@dataclass(frozen=True)
class HallucinationReport:
    total: int
    hallucinated: int
    score: float
    per_stage: dict[str, int]
    verdicts: list[ValidationVerdict]


def _haystack(batch: list[ArticleDoc]) -> str:
    # Articles are normalized and casefolded one by one, then joined with a
    # newline. A normalized needle never contains one, so no match can run
    # from one article into the next.
    return "\n".join(normalize_entity(article.text).casefold() for article in batch)


def _traces(entity: str, haystack: str) -> bool:
    # Substring match of the normalized, casefolded surface; no fuzzy matching.
    needle = normalize_entity(entity).casefold()
    return bool(needle) and needle in haystack


def validate_graph(
    g_llm: KnowledgeGraph, batch: list[ArticleDoc], ontology: Ontology
) -> HallucinationReport:
    """One verdict per distinct entity, stages checked in source-trace then
    schema-alignment then rule-conformance order.

    Triple violations are charged to both endpoint entities. An empty
    batch makes every entity untraceable by definition; an empty graph
    scores 0.0. Both degenerate cases log a warning.
    """
    if not batch and g_llm.entities:
        log.warning(
            "empty batch with %d asserted entities: all fail source tracing",
            len(g_llm.entities),
        )

    # NER-map targets are schema-aligned even if a loader ever admits a
    # target outside the class set.
    schema_classes = set(ontology.classes) | set(ontology.ner_map.values())

    incident: dict[str, list[tuple[str, str, str]]] = {
        e: [] for e in g_llm.entities
    }
    for s, p, o in sorted(g_llm.triples):
        incident[s].append((s, p, o))
        if o != s:
            incident[o].append((s, p, o))

    haystack = _haystack(batch)
    verdicts: list[ValidationVerdict] = []
    per_stage = {stage: 0 for stage in FAIL_STAGES}
    for entity in sorted(g_llm.entities):
        cls = g_llm.entities[entity][0]
        stage, evidence = STAGE_NONE, ""
        if not _traces(entity, haystack):
            stage, evidence = STAGE_SOURCE, "absent from batch"
        elif cls not in schema_classes:
            stage, evidence = STAGE_SCHEMA, cls
        else:
            for s, p, o in incident[entity]:
                if not is_permissible(
                    ontology, g_llm.entities[s][0], p, g_llm.entities[o][0]
                ):
                    stage, evidence = STAGE_RULES, f"({s}, {p}, {o})"
                    break
        if stage != STAGE_NONE:
            per_stage[stage] += 1
        verdicts.append(
            ValidationVerdict(entity=entity, failed_stage=stage, evidence=evidence)
        )

    total = len(g_llm.entities)
    hallucinated = sum(per_stage.values())
    if total == 0:
        log.warning("empty candidate graph: hallucination score defined as 0.0")
        score = 0.0
    else:
        score = hallucinated / total
    return HallucinationReport(
        total=total,
        hallucinated=hallucinated,
        score=score,
        per_stage=per_stage,
        verdicts=verdicts,
    )
