"""Candidate graph ingestion from an external model endpoint.

One HTTP request per article with bounded parallelism and retry, a
sentinel-delimited record block as the only accepted output grammar, and
an offline path that reads pre-extracted record files. Model-supplied
provenance is always overwritten with the article id; a model must not be
able to forge source attribution.
"""

import logging
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from urllib.parse import urlparse

import requests

from kgmon.extract import ArticleDoc
from kgmon.graph import (
    EntityAssertion,
    GraphDiagnostics,
    KnowledgeGraph,
    TripleAssertion,
    build_graph,
    parse_record_line,
    parse_records,
)
from kgmon.ontology import Ontology

log = logging.getLogger(__name__)

BEGIN_SENTINEL = "BEGIN_KG"
END_SENTINEL = "END_KG"

_ARTICLE_SLOT = "{{ARTICLE}}"
_ONTOLOGY_SLOT = "{{ONTOLOGY}}"

# Test seam: retry pauses go through here.
_sleep = time.sleep


class LlmError(ValueError):
    pass


@dataclass(frozen=True)
class EndpointConfig:
    url: str
    auth_env: str
    model_name: str
    temperature: float = 0.0
    timeout: float = 30.0
    max_retries: int = 2
    parallelism: int = 4

    def __post_init__(self) -> None:
        parsed = urlparse(self.url)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise LlmError(f"endpoint url not well-formed: {self.url!r}")
        if not self.auth_env:
            raise LlmError("auth_env must name an environment variable")
        if self.temperature < 0:
            raise LlmError("temperature must be nonnegative")
        if self.timeout <= 0:
            raise LlmError("timeout must be positive")
        if self.max_retries < 0:
            raise LlmError("max_retries must be nonnegative")
        if self.parallelism < 1:
            raise LlmError("parallelism must be at least 1")


@dataclass(frozen=True)
class PromptTemplate:
    text: str


@dataclass(frozen=True)
class ExtractionResponse:
    article_id: str
    raw: str
    graph: KnowledgeGraph
    unparsed_lines: int
    # What build_graph dropped or collapsed within this article's block.
    closure_violations: int = 0
    class_conflicts: int = 0


@dataclass
class BatchDiagnostics:
    failures: list[str] = field(default_factory=list)
    retried: dict[str, int] = field(default_factory=dict)
    unparsed_lines: int = 0
    closure_violations: int = 0
    class_conflicts: int = 0


def load_template(text: str) -> PromptTemplate:
    for slot in (_ARTICLE_SLOT, _ONTOLOGY_SLOT):
        n = text.count(slot)
        if n != 1:
            raise LlmError(f"template must contain {slot} exactly once, found {n}")
    return PromptTemplate(text=text)


def render_prompt(
    template: PromptTemplate, article: ArticleDoc, ontology: Ontology
) -> str:
    """Substitute both placeholders in one pass over the template, so
    placeholder-looking text inside the article or ontology is never
    re-expanded."""
    spots = sorted(
        (
            (template.text.index(_ARTICLE_SLOT), _ARTICLE_SLOT, article.text),
            (template.text.index(_ONTOLOGY_SLOT), _ONTOLOGY_SLOT, ontology.source),
        ),
        reverse=True,
    )
    text = template.text
    for pos, slot, replacement in spots:
        text = text[:pos] + replacement + text[pos + len(slot):]
    return text


def parse_llm_response(raw: str, article_id: str) -> ExtractionResponse:
    """Parse the first sentinel-delimited block of a model response.

    Lines inside the block that fail the record grammar count as unparsed;
    missing sentinels yield an empty graph with every line counted, which
    makes a non-conforming model loudly visible without crashing.
    """
    lines = raw.splitlines()
    begin = end = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if begin is None:
            if stripped == BEGIN_SENTINEL:
                begin = i
        elif stripped == END_SENTINEL:
            end = i
            break
    if begin is None or end is None:
        return ExtractionResponse(
            article_id=article_id,
            raw=raw,
            graph=KnowledgeGraph(batch_id=article_id),
            unparsed_lines=len(lines),
        )

    entities: list[EntityAssertion] = []
    triples: list[TripleAssertion] = []
    unparsed = 0
    for line in lines[begin + 1 : end]:
        if not line.strip():
            continue
        record = parse_record_line(line)
        if record is None:
            unparsed += 1
            continue
        record = record._replace(provenance=article_id)
        if isinstance(record, EntityAssertion):
            entities.append(record)
        else:
            triples.append(record)
    graph, diags = build_graph(entities, triples, batch_id=article_id)
    return ExtractionResponse(
        article_id=article_id,
        raw=raw,
        graph=graph,
        unparsed_lines=unparsed,
        closure_violations=diags.closure_violations,
        class_conflicts=diags.class_conflicts,
    )


def _http_transport(config: EndpointConfig, token: str, prompt: str) -> str:
    response = requests.post(
        config.url,
        json={
            "model": config.model_name,
            "temperature": config.temperature,
            "prompt": prompt,
        },
        headers={"Authorization": f"Bearer {token}"},
        timeout=config.timeout,
    )
    response.raise_for_status()
    body = response.json()
    if not isinstance(body, dict) or "text" not in body:
        raise LlmError("endpoint response has no text field")
    return str(body["text"])


def _call_with_retries(config, token, prompt, transport):
    delay = 1.0
    last_error: Exception | None = None
    for attempt in range(config.max_retries + 1):
        try:
            return transport(config, token, prompt), attempt
        except Exception as exc:  # noqa: BLE001 - every failure is retryable here
            last_error = exc
            if attempt < config.max_retries:
                _sleep(delay + random.uniform(0.0, delay / 2))
                delay *= 2
    assert last_error is not None
    raise last_error


def extract_batch(
    batch: list[ArticleDoc],
    config: EndpointConfig,
    template: PromptTemplate,
    ontology: Ontology,
    batch_id: str = "",
    timestamp: int = 0,
    transport=None,
) -> tuple[KnowledgeGraph, BatchDiagnostics]:
    """Request one extraction per article and union the fragments.

    Failed articles (after retries) contribute empty fragments plus a
    diagnostic; a batch where every article failed is an error. The result
    is independent of request completion order.
    """
    token = os.environ.get(config.auth_env, "")
    if not token:
        raise LlmError(
            f"auth token variable {config.auth_env!r} is unset or empty"
        )
    if transport is None:
        transport = _http_transport

    diags = BatchDiagnostics()

    def work(article: ArticleDoc) -> ExtractionResponse | Exception:
        try:
            prompt = render_prompt(template, article, ontology)
            raw, attempts = _call_with_retries(config, token, prompt, transport)
            if attempts:
                diags.retried[article.id] = attempts
            return parse_llm_response(raw, article.id)
        except Exception as exc:  # noqa: BLE001 - reported per article
            return exc

    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        results = list(pool.map(work, batch))

    entities: list[EntityAssertion] = []
    triples: list[TripleAssertion] = []
    succeeded = 0
    for article, result in zip(batch, results):
        if isinstance(result, Exception):
            diags.failures.append(f"{article.id}: {result}")
            log.warning("extraction failed for article %s: %s", article.id, result)
            continue
        succeeded += 1
        diags.unparsed_lines += result.unparsed_lines
        diags.closure_violations += result.closure_violations
        diags.class_conflicts += result.class_conflicts
        entities.extend(
            EntityAssertion(e, c, p)
            for e, (c, p) in result.graph.entities.items()
        )
        triples.extend(
            TripleAssertion(s, p, o, prov)
            for (s, p, o), prov in result.graph.triples.items()
        )

    if batch and succeeded == 0:
        raise LlmError(
            f"all {len(batch)} article extractions failed: "
            + "; ".join(diags.failures)
        )

    graph, build_diags = build_graph(
        entities, triples, batch_id=batch_id, timestamp=timestamp
    )
    # The fragments are closed, so the union can add only cross-article
    # class conflicts.
    diags.class_conflicts += build_diags.class_conflicts
    return graph, diags


def ingest_offline(
    path: str, batch_id: str = "", timestamp: int = 0
) -> tuple[KnowledgeGraph, GraphDiagnostics]:
    """Read a pre-extracted record file; equivalent to parsing its text."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_records(text, batch_id=batch_id, timestamp=timestamp)
