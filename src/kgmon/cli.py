"""Command-line surface: baseline builds, candidate evaluation, feed
monitoring, perturbation scenarios, history reports and history replay.

Exit codes are a contract: 0 means success with no flags, 2 means an
anomaly was flagged, a scenario assertion failed or a replayed history
differs from its stored values, 1 means an operational error. Diagnostics
go to stderr, one line each, prefixed WARN, ALERT or MISMATCH.
"""

import argparse
import contextlib
import json
import logging
import math
import os
import re
import signal
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import requests

from kgmon.extract import (
    ArticleDoc,
    ExtractError,
    NerDictionary,
    PatternRule,
    build_baseline,
    load_dictionary_file,
    load_rules,
)
from kgmon.graph import canonical_serialize
from kgmon.hallucination import source_text, validate_graph
from kgmon.llm import (
    EndpointConfig,
    LlmError,
    PromptTemplate,
    extract_batch,
    ingest_offline,
    load_template,
)
from kgmon.metrics import MetricsError, metric_vector
from kgmon.monitor import (
    BASELINE_MODEL,
    DEFAULT_LAMBDA,
    DEFAULT_WARMUP,
    DEFAULT_WINDOW,
    AnomalyWeights,
    HistoryRow,
    MonitorError,
    ThresholdState,
    UndecodableFileError,
    append_history,
    baseline_row,
    normalize_weights,
    observe,
    read_history,
    replay_history,
    write_atomic,
)
from kgmon.ontology import Ontology, OntologyError, load_ontology
from kgmon.simlab import (
    ScenarioConfig,
    SimulationError,
    load_schedule,
    run_scenario,
    synthetic_stream,
)

log = logging.getLogger(__name__)


class CliError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    ontology: str
    dictionary: str
    rules: str
    history: str
    models: list[str]
    weights: AnomalyWeights
    lam: float = DEFAULT_LAMBDA
    window: int = DEFAULT_WINDOW
    warmup_min: int = DEFAULT_WARMUP
    endpoint_config: str | None = None
    feed_url: str | None = None
    noise_sigma: float = 0.0
    noise_seed: int = 0


class _DiagnosticFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        level = "WARN" if record.levelno == logging.WARNING else record.levelname
        return f"{level} {record.getMessage()}"


def _setup_logging() -> None:
    root = logging.getLogger()
    handler = next(
        (h for h in root.handlers if getattr(h, "_kgmon_diag", False)), None
    )
    if handler is None:
        handler = logging.StreamHandler()
        handler.setFormatter(_DiagnosticFormatter())
        handler._kgmon_diag = True  # type: ignore[attr-defined]
        root.addHandler(handler)
    # Each call writes to the sys.stderr of that call. Not setStream: it
    # flushes the previous stream, which a caller may have closed by now.
    handler.stream = sys.stderr
    if root.level > logging.WARNING or root.level == logging.NOTSET:
        root.setLevel(logging.WARNING)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UndecodableFileError(f"{path}: not valid UTF-8: {exc.reason}") from exc


def _resolve(base: Path, value: str) -> str:
    path = Path(value)
    return str(path if path.is_absolute() else base / path)


_CONFIG_KEYS = {
    "ontology",
    "dictionary",
    "rules",
    "weights",
    "lambda",
    "window",
    "warmup_min",
    "history",
    "endpoint_config",
    "models",
    "feed_url",
    "noise_sigma",
    "noise_seed",
}

_REQUIRED_CONFIG_KEYS = ("ontology", "dictionary", "rules", "history", "models")


def _read_config(path: str, label: str, keys: set, required: tuple) -> dict:
    """The JSON object in the file at `path`, after the checks every config
    file gets: valid JSON, an object, no unknown keys, no missing required
    keys. Messages start with `label` and the path."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise CliError(f"{label} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CliError(f"{label} {path}: expected a key-value document")
    unknown = sorted(set(payload) - keys)
    if unknown:
        raise CliError(f"{label} {path}: unknown keys: {', '.join(unknown)}")
    missing = [k for k in required if k not in payload]
    if missing:
        raise CliError(f"{label} {path}: missing keys: {', '.join(missing)}")
    return payload


def _bad_value(where: str, key: str, kind: str, value) -> CliError:
    return CliError(f"{where}: {key} must be {kind}, not {json.dumps(value)}")


def _str_value(payload: dict, key: str, where: str, optional: bool = False):
    """A JSON string; None too, for an absent or null `optional` key."""
    value = payload.get(key)
    if type(value) is str or optional and value is None:
        return value
    raise _bad_value(where, key, "a string", value)


def _int_value(
    payload: dict, key: str, where: str, default: int, minimum: int | None = None
) -> int:
    """A JSON integer, at least `minimum` if given; true and false are not
    integers."""
    value = payload.get(key, default)
    if type(value) is not int:
        raise _bad_value(where, key, "an integer", value)
    if minimum is not None and value < minimum:
        raise _bad_value(where, key, f"an integer of at least {minimum}", value)
    return value


def _real_value(
    payload: dict, key: str, where: str, default: float, positive: bool = False
) -> float:
    """A finite JSON integer or float, as a float; above zero if `positive`."""
    value = payload.get(key, default)
    if type(value) in (int, float):
        # An int too large for a float overflows here.
        with contextlib.suppress(OverflowError):
            if math.isfinite(value) and (value > 0 or not positive):
                return float(value)
    kind = "a positive finite number" if positive else "a finite number"
    raise _bad_value(where, key, kind, value)


def load_run_config(path: str) -> RunConfig:
    """Parse the JSON run configuration. Relative paths resolve against the
    config file's directory; the schema/dictionary/rules files must exist."""
    payload = _read_config(path, "config", _CONFIG_KEYS, _REQUIRED_CONFIG_KEYS)
    where = f"config {path}"
    base = Path(path).resolve().parent
    models = payload["models"]
    if not isinstance(models, list) or any(
        not isinstance(m, str) or not m for m in models
    ):
        raise CliError(f"{where}: models must be a list of names")
    if BASELINE_MODEL in models:
        raise CliError(f"{where}: {BASELINE_MODEL!r} is reserved")
    if len(set(models)) != len(models):
        raise CliError(f"{where}: duplicate model names")

    weights_payload = payload.get("weights", {"icr": 1.0, "ipr": 1.0, "ci": 1.0})
    if not isinstance(weights_payload, dict) or not {"icr", "ipr", "ci"} <= set(
        weights_payload
    ):
        raise CliError(f"{where}: weights need icr, ipr and ci entries")
    extra = sorted(set(weights_payload) - {"icr", "ipr", "ci", "hal"})
    if extra:
        raise CliError(f"{where}: unknown weight keys: {', '.join(extra)}")

    def weight(key: str) -> float:
        return _real_value(weights_payload, key, f"{where}: weights", 0.0)

    try:
        weights = normalize_weights(
            weight("icr"),
            weight("ipr"),
            weight("ci"),
            None if weights_payload.get("hal") is None else weight("hal"),
        )
    except MonitorError as exc:
        raise CliError(f"{where}: bad weights: {exc}") from exc

    endpoint = _str_value(payload, "endpoint_config", where, optional=True)
    paths = {
        key: _resolve(base, _str_value(payload, key, where))
        for key in ("ontology", "dictionary", "rules", "history")
    }
    for label in ("ontology", "dictionary", "rules"):
        if not os.path.isfile(paths[label]):
            raise CliError(f"{where}: {label} file not found: {paths[label]}")
    # The threshold parameters get ThresholdState's range checks here, so a
    # bad value fails before any extraction and names the file.
    return RunConfig(
        **paths,
        models=list(models),
        weights=weights,
        lam=_real_value(payload, "lambda", where, DEFAULT_LAMBDA, positive=True),
        window=_int_value(payload, "window", where, DEFAULT_WINDOW, minimum=1),
        warmup_min=_int_value(payload, "warmup_min", where, DEFAULT_WARMUP, minimum=1),
        endpoint_config=None if endpoint is None else _resolve(base, endpoint),
        feed_url=_str_value(payload, "feed_url", where, optional=True),
        noise_sigma=_real_value(payload, "noise_sigma", where, 0.0),
        noise_seed=_int_value(payload, "noise_seed", where, 0),
    )


_ENDPOINT_KEYS = {
    "url",
    "auth_env",
    "temperature",
    "timeout",
    "max_retries",
    "parallelism",
    "template",
}


def _load_endpoint(config: RunConfig) -> tuple[EndpointConfig, PromptTemplate]:
    """The endpoint, range-checked, with an empty model name, and the prompt
    template."""
    if not config.endpoint_config:
        raise CliError("live candidates need endpoint_config in the run config")
    path = config.endpoint_config
    payload = _read_config(
        path, "endpoint config", _ENDPOINT_KEYS, ("url", "auth_env", "template")
    )
    where = f"endpoint config {path}"
    base = Path(path).resolve().parent
    template = _resolve(base, _str_value(payload, "template", where))
    try:
        endpoint = EndpointConfig(
            url=_str_value(payload, "url", where),
            auth_env=_str_value(payload, "auth_env", where),
            model_name="",
            temperature=_real_value(payload, "temperature", where, 0.0),
            timeout=_real_value(payload, "timeout", where, 30.0),
            max_retries=_int_value(payload, "max_retries", where, 2),
            parallelism=_int_value(payload, "parallelism", where, 4),
        )
    except LlmError as exc:
        raise CliError(f"{where}: {exc}") from exc
    return endpoint, load_template(_read_text(template))


# Escapes are read left to right without overlap: an escaped backslash
# followed by "n" is a backslash and a letter n. Any other backslash, a
# lone trailing one included, stays as it is.
_ESCAPE_RE = re.compile(r"\\(n|\\)")
_UNESCAPED = {"n": "\n", "\\": "\\"}


def _unescape_text(text: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _UNESCAPED[m.group(1)], text)


def _parse_batch_text(text: str) -> list[ArticleDoc]:
    articles: list[ArticleDoc] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        fields = raw.split("\t", 2)
        if len(fields) != 3:
            raise CliError(
                f"batch line {lineno}: expected id, published_at and text"
            )
        article_id = fields[0].strip()
        if not article_id:
            raise CliError(f"batch line {lineno}: empty article id")
        try:
            published = int(fields[1])
        except ValueError as exc:
            raise CliError(
                f"batch line {lineno}: published_at must be an integer"
            ) from exc
        articles.append(
            ArticleDoc(
                id=article_id,
                published_at=published,
                text=_unescape_text(fields[2]),
            )
        )
    return articles


def _feed_get(url: str) -> str:
    response = requests.get(url, timeout=30)
    response.raise_for_status()
    return response.text


def _is_url(source: str) -> bool:
    return source.startswith(("http://", "https://"))


def load_batch(source: str, http_get=None) -> list[ArticleDoc]:
    """Load articles from a directory of .txt files, a batch record file,
    or a feed URL. An empty batch warns, never errors."""
    if _is_url(source):
        text = (_feed_get if http_get is None else http_get)(source)
        articles = _parse_batch_text(text)
    elif os.path.isdir(source):
        articles = []
        for path in sorted(Path(source).glob("*.txt")):
            text = _read_text(str(path))
            if not text.strip():
                log.warning("skipping empty article file %s", path.name)
                continue
            articles.append(
                ArticleDoc(
                    id=path.stem,
                    published_at=int(path.stat().st_mtime),
                    text=text,
                )
            )
    elif os.path.isfile(source):
        articles = _parse_batch_text(_read_text(source))
    else:
        raise CliError(f"batch source not found: {source}")

    ids = [a.id for a in articles]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise CliError(f"duplicate article ids in batch: {', '.join(dupes)}")
    if not articles:
        log.warning("empty batch from %s", source)
    return articles


def _read_seen(path: str) -> set[str]:
    """The article ids in the seen-set file at `path`; none if it is absent."""
    if not os.path.exists(path):
        return set()
    return {line.strip() for line in _read_text(path).split("\n") if line.strip()}


def _batch_label(source: str) -> str:
    if _is_url(source):
        return "feed"
    path = Path(source)
    if path.is_dir():
        return path.name or "batch"
    return path.stem or "batch"


def _load_pipeline(
    ontology_path: str, dictionary_path: str, rules_path: str
) -> tuple[Ontology, NerDictionary, list[PatternRule]]:
    ontology = load_ontology(_read_text(ontology_path))
    dictionary = load_dictionary_file(dictionary_path, ontology)
    rules = load_rules(_read_text(rules_path), ontology)
    return ontology, dictionary, rules


def _bootstrap_state(
    rows: list[HistoryRow], model: str, config: RunConfig
) -> ThresholdState:
    scores = [r.score for r in rows if r.model == model]
    last_ts = None
    for row in rows:
        if row.model == model:
            last_ts = row.timestamp
    return ThresholdState(
        scores=scores[-config.window :],
        capacity=config.window,
        lam=config.lam,
        warmup_min=config.warmup_min,
        last_timestamp=last_ts,
    )


def _parse_candidates(items: list[str], config: RunConfig) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise CliError(f"candidate must be MODEL=PATH or MODEL=live: {item!r}")
        model, source = item.split("=", 1)
        model, source = model.strip(), source.strip()
        if not model or not source:
            raise CliError(f"candidate must be MODEL=PATH or MODEL=live: {item!r}")
        if model == BASELINE_MODEL:
            raise CliError(f"{BASELINE_MODEL!r} is reserved for baseline rows")
        if model in out:
            raise CliError(f"duplicate candidate model {model!r}")
        if model not in config.models:
            raise CliError(f"model {model!r} not listed in config models")
        out[model] = source
    return out


def _alert_line(row: HistoryRow, top_metric: str) -> str:
    return (
        f"ALERT model={row.model} timestamp={row.timestamp} "
        f"score={row.score:.6f} threshold={row.threshold:.6f} "
        f"top={top_metric}"
    )


def _evaluate_once(
    config: RunConfig,
    ontology: Ontology,
    dictionary: NerDictionary,
    rules: list[PatternRule],
    batch: list[ArticleDoc],
    batch_id: str,
    timestamp: int,
    candidates: dict[str, str],
    transport=None,
) -> bool:
    """Shared evaluate cycle: baseline row first, then one observed row per
    candidate in model-name order. The rows are appended in one write once
    all are computed, so a rejected cycle leaves the history untouched.
    Returns True when any model flagged."""
    g_base, _diags = build_baseline(
        batch, dictionary, rules, ontology, batch_id=batch_id, timestamp=timestamp
    )
    base_metrics = metric_vector(g_base, ontology)
    # The batch text, normalized and casefolded once for every validation.
    batch_text = source_text(batch)
    if config.weights.w_hal is not None:
        base_report = validate_graph(g_base, batch_text, ontology)
        base_metrics = replace(base_metrics, hal=base_report.score)

    history_rows = (
        read_history(config.history, sorted(candidates), config.window)
        if os.path.exists(config.history)
        else []
    )
    new_rows = [baseline_row(timestamp, batch_id, base_metrics)]
    alerts = []

    endpoint_loaded: tuple[EndpointConfig, PromptTemplate] | None = None
    any_success = False
    for model in sorted(candidates):
        source = candidates[model]
        try:
            if source == "live":
                if endpoint_loaded is None:
                    endpoint_loaded = _load_endpoint(config)
                endpoint, template = endpoint_loaded
                g_llm, ing = extract_batch(
                    batch,
                    replace(endpoint, model_name=model),
                    template,
                    ontology,
                    batch_id=batch_id,
                    timestamp=timestamp,
                    transport=transport,
                )
                unparsed = ing.unparsed_lines
            else:
                g_llm, ing = ingest_offline(
                    source, batch_id=batch_id, timestamp=timestamp
                )
                unparsed = ing.malformed_lines
        except CliError:
            raise
        except (OSError, LlmError, requests.RequestException, ValueError) as exc:
            log.warning("model %s extraction failed: %s", model, exc)
            continue
        any_success = True
        if unparsed or ing.closure_violations or ing.class_conflicts:
            log.warning(
                "model %s candidate: %d unparsed lines, %d closure violations, "
                "%d class conflicts",
                model,
                unparsed,
                ing.closure_violations,
                ing.class_conflicts,
            )

        report = validate_graph(g_llm, batch_text, ontology)
        cand_metrics = replace(metric_vector(g_llm, ontology), hal=report.score)
        state = _bootstrap_state(history_rows, model, config)
        row, top_metric = observe(
            state,
            timestamp=timestamp,
            model=model,
            metrics=cand_metrics,
            baseline_metrics=base_metrics,
            weights=config.weights,
            batch_id=batch_id,
            hall_total=report.total,
            hall_failed=report.hallucinated,
        )
        new_rows.append(row)
        if top_metric is not None:
            alerts.append(_alert_line(row, top_metric))

    if candidates and not any_success:
        raise CliError("every candidate extraction failed")
    append_history(config.history, *new_rows)
    for alert in alerts:
        print(alert, file=sys.stderr)
    return bool(alerts)


def cmd_build_baseline(args: argparse.Namespace) -> int:
    ontology, dictionary, rules = _load_pipeline(
        args.ontology, args.dictionary, args.rules
    )
    batch = load_batch(args.batch)
    graph, diags = build_baseline(
        batch, dictionary, rules, ontology, batch_id=_batch_label(args.batch)
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(canonical_serialize(graph))
    print(
        f"{len(graph.entities)} entities, {len(graph.triples)} triples, "
        f"{diags.class_conflicts} class conflicts -> {args.out}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    if not config.models:
        raise CliError("config lists no models to evaluate")
    candidates = _parse_candidates(args.candidate, config)
    if "live" in candidates.values():
        _load_endpoint(config)  # fail on config problems before extraction
    ontology, dictionary, rules = _load_pipeline(
        config.ontology, config.dictionary, config.rules
    )
    timestamp = args.timestamp if args.timestamp is not None else int(time.time())
    batch = load_batch(args.batch)
    flagged = _evaluate_once(
        config,
        ontology,
        dictionary,
        rules,
        batch,
        _batch_label(args.batch),
        timestamp,
        candidates,
    )
    return 2 if flagged else 0


def cmd_monitor(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    if not config.feed_url:
        raise CliError("monitor needs feed_url in the run config")
    if not config.models:
        raise CliError("config lists no models to monitor")
    # Cycles are stamped with whole seconds and history timestamps must
    # increase, so cycles less than a second apart would be rejected. NaN
    # passes no comparison, and the wait raises OverflowError past
    # threading.TIMEOUT_MAX.
    if not 1 <= args.interval <= threading.TIMEOUT_MAX:
        raise CliError(
            f"interval must be from 1 to {threading.TIMEOUT_MAX:.0f} seconds"
        )
    ontology, dictionary, rules = _load_pipeline(
        config.ontology, config.dictionary, config.rules
    )
    _load_endpoint(config)  # fail on config problems before the loop starts
    candidates = {model: "live" for model in config.models}
    seen_path = config.history + ".seen"

    stop = threading.Event()

    def _request_stop(_signum, _frame) -> None:
        stop.set()

    previous = signal.signal(signal.SIGINT, _request_stop)
    cycles_done = 0
    try:
        while not stop.is_set():
            cycle_ts = int(time.time())
            try:
                batch = load_batch(config.feed_url)
            except (CliError, requests.RequestException, OSError) as exc:
                log.warning("feed fetch failed: %s", exc)
                batch = []
            if batch:
                seen = _read_seen(seen_path)
                batch = [a for a in batch if a.id not in seen]
                if not batch:
                    log.warning("empty batch from %s", config.feed_url)
            if batch:
                try:
                    _evaluate_once(
                        config,
                        ontology,
                        dictionary,
                        rules,
                        batch,
                        _batch_label(config.feed_url),
                        cycle_ts,
                        candidates,
                    )
                    # Marked seen only after the cycle's rows are appended,
                    # so a failed cycle's batch is fetched again.
                    ids = sorted(seen | {a.id for a in batch})
                    write_atomic(seen_path, "".join(f"{i}\n" for i in ids).encode())
                except (CliError, MonitorError, LlmError, OSError) as exc:
                    log.warning("cycle failed: %s", exc)
            cycles_done += 1
            if args.cycles is not None and cycles_done >= args.cycles:
                break
            stop.wait(args.interval)
    finally:
        signal.signal(signal.SIGINT, previous)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    ontology = load_ontology(_read_text(config.ontology))
    schedule, flag_asserts = load_schedule(_read_text(args.schedule))
    if args.steps < 1:
        raise CliError("steps must be positive")
    scenario = ScenarioConfig(
        ontology=ontology,
        weights=config.weights,
        lam=config.lam,
        capacity=config.window,
        warmup_min=config.warmup_min,
        noise_sigma=config.noise_sigma,
        noise_seed=config.noise_seed,
        history_path=config.history,
    )
    result = run_scenario(
        synthetic_stream(ontology, args.steps), schedule, scenario
    )
    print(result.summary_line())
    failed = [
        step
        for step in flag_asserts
        if step >= len(result.records) or not result.records[step].flagged
    ]
    for step in failed:
        log.warning("assertion failed: no flag at step %d", step)
    return 2 if failed else 0


_METRIC_ROWS = (("ICR", "icr"), ("IPR", "ipr"), ("CI", "ci"), ("Hal", "hal"))


def _render_table(
    timestamp: int, cells: dict[str, HistoryRow], columns: list[str]
) -> str:
    matrix = [["metric"] + columns]
    for label, attr in _METRIC_ROWS:
        row = [label]
        for model in columns:
            value = getattr(cells[model], attr)
            row.append("-" if value is None else f"{value:.2f}")
        matrix.append(row)
    widths = [
        max(len(matrix[r][c]) for r in range(len(matrix)))
        for c in range(len(matrix[0]))
    ]
    lines = [f"timestamp {timestamp}"]
    for row in matrix:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> int:
    if not os.path.isfile(args.history):
        raise CliError(f"history not found: {args.history}")
    rows = read_history(args.history)
    # The same lines as text, for records mode, as a text-mode read splits
    # them (\r and \r\n arrive as \n). A torn last line, which
    # read_history skips, is the one line that zip leaves out.
    lines = [line for line in _read_text(args.history).split("\n") if line.strip()]
    pairs = list(zip(rows, lines))
    if args.timestamp is not None:
        pairs = [(r, l) for r, l in pairs if r.timestamp == args.timestamp]

    if args.format == "records":
        if args.model is not None:
            pairs = [(r, l) for r, l in pairs if r.model == args.model]
        for _row, line in pairs:
            print(line)
        return 0

    rows = [r for r, _ in pairs]
    tables: list[str] = []
    for ts in sorted({r.timestamp for r in rows}):
        ts_rows = [r for r in rows if r.timestamp == ts]
        cells: dict[str, HistoryRow] = {}
        for row in ts_rows:
            cells[row.model] = row  # last row per model wins
        models = sorted(m for m in cells if m != BASELINE_MODEL)
        if args.model is not None:
            models = [m for m in models if m == args.model]
        columns = ([BASELINE_MODEL] if BASELINE_MODEL in cells else []) + models
        if not columns:
            continue
        tables.append(_render_table(ts, cells, columns))
    if tables:
        print("\n\n".join(tables))
    return 0


def _float_bits(value) -> str:
    """float.hex of a float; anything else (None, or a hand-edited int)
    by repr, so it never equals a float's bits."""
    return value.hex() if isinstance(value, float) else repr(value)


def cmd_replay(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    if not os.path.isfile(args.history):
        raise CliError(f"history not found: {args.history}")
    replayed = replay_history(
        read_history(args.history),
        capacity=config.window,
        lam=config.lam,
        warmup_min=config.warmup_min,
    )
    mismatches = 0
    for row, threshold, flagged in replayed:
        if flagged != row.flagged or _float_bits(threshold) != _float_bits(
            row.threshold
        ):
            mismatches += 1
            print(
                f"MISMATCH timestamp={row.timestamp} model={row.model} "
                f"stored_threshold={_float_bits(row.threshold)} "
                f"replayed_threshold={_float_bits(threshold)} "
                f"stored_flagged={row.flagged} replayed_flagged={flagged}",
                file=sys.stderr,
            )
    print(f"{len(replayed)} rows replayed, {mismatches} mismatches")
    return 2 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgmon",
        description="Knowledge-graph quality monitoring over streaming text batches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "build-baseline", help="extract the deterministic baseline graph"
    )
    p.add_argument("--ontology", required=True)
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--batch", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score candidate graphs against a batch")
    p.add_argument("--config", required=True)
    p.add_argument("--batch", required=True)
    p.add_argument(
        "--candidate",
        action="append",
        required=True,
        metavar="MODEL=PATH|live",
        help="candidate source; repeatable",
    )
    p.add_argument("--timestamp", type=int, default=None)

    p = sub.add_parser("monitor", help="poll a feed and evaluate continuously")
    p.add_argument("--config", required=True)
    p.add_argument("--interval", type=float, required=True)
    p.add_argument(
        "--cycles",
        type=int,
        default=None,
        help="stop after N cycles instead of running until interrupted",
    )

    p = sub.add_parser("simulate", help="run a seeded perturbation scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("report", help="render history records")
    p.add_argument("--history", required=True)
    p.add_argument("--timestamp", type=int, default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--format", choices=("table", "records"), default="table")

    p = sub.add_parser(
        "replay", help="recompute every stored threshold and flag of a history"
    )
    p.add_argument("--history", required=True)
    p.add_argument("--config", required=True)

    return parser


# Built once per process; parse_args returns a fresh namespace every call.
_PARSER = build_parser()

_COMMANDS = {
    "build-baseline": cmd_build_baseline,
    "evaluate": cmd_evaluate,
    "monitor": cmd_monitor,
    "simulate": cmd_simulate,
    "report": cmd_report,
    "replay": cmd_replay,
}


def main(argv=None) -> int:
    _setup_logging()
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (
        CliError,
        OntologyError,
        ExtractError,
        MetricsError,
        MonitorError,
        SimulationError,
        LlmError,
        UndecodableFileError,
        UnicodeDecodeError,
        OSError,
        requests.RequestException,
    ) as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
