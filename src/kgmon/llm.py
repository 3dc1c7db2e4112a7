"""Candidate graph ingestion from an external model endpoint.

One HTTP request per article with bounded parallelism and retry, a
sentinel-delimited record block as the only accepted output grammar, and
an offline path that reads pre-extracted record files. Model-supplied
provenance is always overwritten with the article id; a model must not be
able to forge source attribution.

`requests` and the worker thread pool are imported by the functions that
use them, so importing this module, as every kgmon command does, loads
neither; only a batch sent to an endpoint pays for them.
"""

import logging
import os
import random
import time
from dataclasses import dataclass, field
from urllib.parse import urlparse

from kgmon.extract import ArticleDoc
from kgmon.graph import (
    EntityAssertion,
    GraphDiagnostics,
    KnowledgeGraph,
    TripleAssertion,
    build_graph,
    parse_records,
)
from kgmon.kernels import split_lines
from kgmon.monitor import read_text
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
    temperature: float
    timeout: float
    max_retries: int
    parallelism: int

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


@dataclass
class BatchDiagnostics(GraphDiagnostics):
    """The counts of every article's block added up, and the articles that
    failed or needed retries."""

    failures: list[str] = field(default_factory=list)
    retried: dict[str, int] = field(default_factory=dict)


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


def parse_llm_response(
    raw: str, article_id: str
) -> tuple[KnowledgeGraph, GraphDiagnostics]:
    """Parse the first sentinel-delimited block of a model response as
    record text, every assertion attributed to `article_id`.

    Lines inside the block that fail the record grammar count as malformed;
    missing sentinels yield an empty graph with every line counted, which
    makes a non-conforming model loudly visible without crashing.
    """
    lines = split_lines(raw)
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
        return KnowledgeGraph(), GraphDiagnostics(malformed_lines=len(lines))

    # The lines hold no line break, so joined they split back into the same
    # lines. Provenance is overwritten after the dedup: every assertion has
    # the same one then, so the dedup keeps the same classes and counts.
    graph, diags = parse_records("\n".join(lines[begin + 1 : end]))
    entities = {e: (cls, article_id) for e, (cls, _) in graph.entities.items()}
    return KnowledgeGraph(entities, dict.fromkeys(graph.triples, article_id)), diags


def _http_transport(config: EndpointConfig, token: str, prompt: str) -> str:
    # Imported here, at one of the two request sites: requests and its
    # dependencies are about 10 MB and half of the import time of
    # kgmon.cli, which an offline command would pay for nothing. Worker
    # threads run this; the import lock serializes their first import.
    import requests

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


def _is_permanent(exc: Exception) -> bool:
    """An HTTP client error that asking again cannot mend: a 4xx status
    other than 408 (request timeout) and 429 (too many requests). The status
    is read duck-typed, so this needs no requests import."""
    status = getattr(getattr(exc, "response", None), "status_code", None)
    return isinstance(status, int) and 400 <= status < 500 and status not in (408, 429)


def _call_with_retries(config, token, prompt):
    delay = 1.0
    for attempt in range(config.max_retries + 1):
        try:
            return _http_transport(config, token, prompt), attempt
        except Exception as exc:  # noqa: BLE001 - retried unless permanent
            if attempt == config.max_retries or _is_permanent(exc):
                raise
            _sleep(delay + random.uniform(0.0, delay / 2))
            delay *= 2


def extract_batch(
    batch: list[ArticleDoc],
    config: EndpointConfig,
    template: PromptTemplate,
    ontology: Ontology,
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

    diags = BatchDiagnostics()

    def work(
        article: ArticleDoc,
    ) -> tuple[KnowledgeGraph, GraphDiagnostics] | Exception:
        try:
            prompt = render_prompt(template, article, ontology)
            raw, attempts = _call_with_retries(config, token, prompt)
            if attempts:
                diags.retried[article.id] = attempts
            return parse_llm_response(raw, article.id)
        except Exception as exc:  # noqa: BLE001 - reported per article
            return exc

    from concurrent.futures import ThreadPoolExecutor

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
        fragment, counts = result
        diags.malformed_lines += counts.malformed_lines
        diags.closure_violations += counts.closure_violations
        diags.class_conflicts += counts.class_conflicts
        entities.extend(
            EntityAssertion(e, c, p) for e, (c, p) in fragment.entities.items()
        )
        triples.extend(
            TripleAssertion(s, p, o, prov)
            for (s, p, o), prov in fragment.triples.items()
        )

    if batch and succeeded == 0:
        raise LlmError(
            f"all {len(batch)} article extractions failed: "
            + "; ".join(diags.failures)
        )

    graph, build_diags = build_graph(entities, triples)
    # The fragments are closed, so the union can add only cross-article
    # class conflicts.
    diags.class_conflicts += build_diags.class_conflicts
    return graph, diags


def ingest_offline(path: str) -> tuple[KnowledgeGraph, GraphDiagnostics]:
    """Read a pre-extracted record file; equivalent to parsing its text."""
    return parse_records(read_text(path))
