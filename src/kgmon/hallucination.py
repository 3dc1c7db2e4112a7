"""Entity-level hallucination scoring for candidate graphs.

Each distinct entity passes through three stages in order: source tracing
(does its surface occur in the batch text), schema alignment (is its class
declared), and rule conformance (do its incident triples respect the
ontology's domain and range constraints). The first failing stage is
recorded; the score is the fraction of entities that failed anywhere.

One SourceText serves a batch: it holds the batch text as searched, and
the trace answer of every entity name met so far, so a name that several
graphs of one batch assert is normalized and searched for once.
"""

import logging
from dataclasses import dataclass, field
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
    newlines; `own_text` maps an article id to its own such text. Ids are
    unique in a batch from load_batch or build_baseline; should they
    repeat, the last article's text is kept, and a name found only in an
    earlier one still traces through `haystack`. `traced` maps each
    entity name that validate_graph has met to whether it traces, so every
    later graph reads the answer instead of searching again; it takes no
    part in comparison.
    """

    haystack: str
    own_text: dict[str, str]
    traced: dict[str, bool] = field(default_factory=dict, compare=False, repr=False)


def source_text(batch: list[ArticleDoc]) -> SourceText:
    """The SourceText of `batch`."""
    folded = [normalize_entity(article.text).casefold() for article in batch]
    own_text = {article.id: text for article, text in zip(batch, folded)}
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
    the whole batch only on a miss. That order changes no verdict: a hit
    in the asserted article is a hit within one article of the batch, and
    the batch texts are joined by newlines, which no needle contains, so
    no match runs from one article into the next.

    A name's trace answer depends only on the name and the batch, so it is
    stored in `source` and read back when a later graph asserts the name.

    Triple violations are charged to both endpoint entities; an entity's
    evidence is its first impermissible triple in sorted order. Each
    triple's permissibility is asked once. An empty batch makes every
    entity untraceable by definition; an empty graph scores 0.0. Both
    degenerate cases log a warning.
    """
    entities = g_llm.entities
    own_text, haystack, traced = source.own_text, source.haystack, source.traced
    if not own_text and entities:
        log.warning(
            "empty batch with %d asserted entities: all fail source tracing",
            len(entities),
        )

    impermissible = [
        (s, p, o)
        for s, p, o in g_llm.triples
        if not is_permissible(ontology, entities[s][0], p, entities[o][0])
    ]
    broken: dict[str, str] = {}
    for s, p, o in sorted(impermissible):
        evidence = f"({s}, {p}, {o})"
        broken.setdefault(s, evidence)
        broken.setdefault(o, evidence)

    verdicts: list[ValidationVerdict] = []
    per_stage = {stage: 0 for stage in FAIL_STAGES}
    for entity in sorted(entities):
        cls, provenance = entities[entity]
        hit = traced.get(entity)
        if hit is None:
            needle = normalize_entity(entity).casefold()
            hit = traced[entity] = bool(needle) and (
                needle in own_text.get(provenance, "") or needle in haystack
            )
        stage, evidence = STAGE_NONE, ""
        if not hit:
            stage, evidence = STAGE_SOURCE, "absent from batch"
        elif cls not in ontology.classes:
            stage, evidence = STAGE_SCHEMA, cls
        elif entity in broken:
            stage, evidence = STAGE_RULES, broken[entity]
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
