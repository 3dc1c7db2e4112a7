"""Entity-level hallucination scoring for candidate graphs.

Each distinct entity passes through three stages in order: source tracing
(does its surface occur in the batch text), schema alignment (is its class
declared), and rule conformance (do its incident triples respect the
ontology's domain and range constraints). The first failing stage is
recorded; the score is the fraction of entities that failed anywhere.
"""

import logging
from dataclasses import dataclass
from typing import NamedTuple

from kgmon.extract import ArticleDoc
from kgmon.graph import KnowledgeGraph, normalize_entity
from kgmon.ontology import Ontology, is_permissible

log = logging.getLogger(__name__)

STAGE_NONE = "none"
STAGE_SOURCE = "source-trace"
STAGE_SCHEMA = "schema-alignment"
STAGE_RULES = "rule-conformance"

FAIL_STAGES = (STAGE_SOURCE, STAGE_SCHEMA, STAGE_RULES)


class ValidationVerdict(NamedTuple):
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


@dataclass(frozen=True)
class SourceText:
    """A batch's text as validate_graph searches it, prepared once per
    batch and shared by every graph validated against it.

    `haystack` is every article's normalized, casefolded text, joined by
    newlines; `own_text` maps an article id to its own such text (texts
    joined by newlines when articles share an id).
    """

    haystack: str
    own_text: dict[str, str]


def source_text(batch: list[ArticleDoc]) -> SourceText:
    """The SourceText of `batch`."""
    folded = [normalize_entity(article.text).casefold() for article in batch]
    own_text: dict[str, str] = {}
    for article, text in zip(batch, folded):
        held = own_text.get(article.id)
        own_text[article.id] = text if held is None else f"{held}\n{text}"
    return SourceText(haystack="\n".join(folded), own_text=own_text)


def validate_graph(
    g_llm: KnowledgeGraph, source: SourceText, ontology: Ontology
) -> HallucinationReport:
    """One verdict per distinct entity, stages checked in source-trace then
    schema-alignment then rule-conformance order; `source` is the
    source_text of the batch.

    An entity traces when its normalized, casefolded surface is a substring
    of some article's normalized, casefolded text; there is no fuzzy
    matching. The article the entity was asserted from is tried first, and
    the whole batch only on a miss. That order changes no verdict: the
    needle never contains a newline, so a hit in the asserted article (its
    texts joined by newlines when articles share an id) is a hit within one
    article of the batch, and the batch texts are joined by newlines too,
    so no match runs from one article into the next.

    Triple violations are charged to both endpoint entities. An empty
    batch makes every entity untraceable by definition; an empty graph
    scores 0.0. Both degenerate cases log a warning.
    """
    entities = g_llm.entities
    own_text, haystack = source.own_text, source.haystack
    if not own_text and entities:
        log.warning(
            "empty batch with %d asserted entities: all fail source tracing",
            len(entities),
        )

    # NER-map targets are schema-aligned even if a loader ever admits a
    # target outside the class set.
    schema_classes = set(ontology.classes) | set(ontology.ner_map.values())

    incident: dict[str, list[tuple[str, str, str]]] = {e: [] for e in entities}
    for s, p, o in sorted(g_llm.triples):
        incident[s].append((s, p, o))
        if o != s:
            incident[o].append((s, p, o))

    verdicts: list[ValidationVerdict] = []
    per_stage = {stage: 0 for stage in FAIL_STAGES}
    for entity in sorted(entities):
        cls, provenance = entities[entity]
        needle = normalize_entity(entity).casefold()
        stage, evidence = STAGE_NONE, ""
        if not needle or (
            needle not in own_text.get(provenance, "") and needle not in haystack
        ):
            stage, evidence = STAGE_SOURCE, "absent from batch"
        elif cls not in schema_classes:
            stage, evidence = STAGE_SCHEMA, cls
        else:
            for s, p, o in incident[entity]:
                if not is_permissible(ontology, entities[s][0], p, entities[o][0]):
                    stage, evidence = STAGE_RULES, f"({s}, {p}, {o})"
                    break
        if stage != STAGE_NONE:
            per_stage[stage] += 1
        verdicts.append(ValidationVerdict(entity, stage, evidence))

    total = len(entities)
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
