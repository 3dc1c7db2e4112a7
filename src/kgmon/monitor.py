"""Anomaly detection over metric deltas.

Each observation turns a candidate-vs-baseline delta into a weighted
score, compares it against a rolling threshold mean + lambda * stddev
computed from past scores only, and appends the score to the window. The
persisted history is sufficient to replay every threshold and flag
decision bit-exactly.
"""

import contextlib
import hashlib
import itertools
import json
import logging
import math
import operator
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from kgmon.metrics import MetricVector

log = logging.getLogger(__name__)

# Reserved model name for per-batch baseline rows in the history store.
BASELINE_MODEL = "GT"

DEFAULT_WINDOW = 30
DEFAULT_WARMUP = 5
DEFAULT_LAMBDA = 2.0

# JSON numbers as json.loads returns them; bool is not a number here.
_NUMBER = frozenset((int, float))
_NUMBER_OR_NULL = frozenset((int, float, type(None)))

# Bytes read per step when the history is read backwards from its end.
_BLOCK_SIZE = 1 << 16
# Line terminators as text-mode reading knows them (\n, \r\n, \r).
_LINE_END = re.compile(rb"[\r\n]")

# The tail index of a history is its path plus this suffix: this format
# line, then the JSON of a _TailIndex.
_TAIL_SUFFIX = ".kgmon-tail"
_TAIL_FORMAT = b"kgmon history tail index 2\n"
# How many bytes before the end of the prefix a tail index describes it
# keeps the SHA-256 of. Not _BLOCK_SIZE, which sets read sizes alone.
_TAIL_SPAN = 1 << 16


class MonitorError(ValueError):
    pass


class UndecodableFileError(ValueError):
    """A file read as text is not valid UTF-8; the message names the file.

    Not a MonitorError: the monitor loop outlives a failed cycle, but a
    corrupt history or seen-set file would fail every cycle, so it ends
    the command instead.
    """


def read_text(path: str) -> str:
    """The whole file at `path`, decoded as strict UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UndecodableFileError(f"{path}: not valid UTF-8: {exc.reason}") from exc


def normalize_weights(
    w_icr: float, w_ipr: float, w_ci: float, w_hal: float | None = None
) -> MetricVector:
    """Scale nonnegative weights to sum to 1. At least one must be positive,
    and their sum finite; a None Hal weight stays None."""
    parts = [w_icr, w_ipr, w_ci] + ([] if w_hal is None else [w_hal])
    if any(w < 0 for w in parts):
        raise MonitorError("weights must be nonnegative")
    total = sum(parts)
    if not math.isfinite(total):
        raise MonitorError("weights must have a finite sum")
    if total <= 0:
        raise MonitorError("at least one weight must be positive")
    return MetricVector(*(w / total for w in parts))


@dataclass
class ThresholdState:
    """Rolling window of past anomaly scores for one monitored model.

    `scores` is the window, oldest first. Seed it through the constructor
    and grow it with `push`, which keeps the exact sums of the scores and
    of their squares that `update_threshold` reads. `step` is the flag rule
    that `observe` and `replay_history` share.

    A finite double is num / 2**bits with an integer num, so the sums are
    kept as integers at the scale 2**_bits, the largest `bits` of any score
    pushed so far. That scale only grows: a finer score shifts both sums
    up to it, and evicting that score leaves them there.
    """

    capacity: int
    lam: float
    warmup_min: int
    scores: list[float] = field(default_factory=list)
    last_timestamp: int | None = None
    _sum: int = field(default=0, init=False, repr=False, compare=False)
    _sum_sq: int = field(default=0, init=False, repr=False, compare=False)
    _bits: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise MonitorError("window capacity must be positive")
        if self.lam <= 0:
            raise MonitorError("lambda must be positive")
        if self.warmup_min < 1:
            raise MonitorError("warmup_min must be positive")
        seed, self.scores = self.scores, []
        for score in seed:
            self.push(score)

    def push(self, score: float) -> None:
        """Append a finite score, evicting the oldest past `capacity`."""
        if not math.isfinite(score):
            raise MonitorError(f"non-finite anomaly score {score!r}")
        num, den = score.as_integer_ratio()
        bits = den.bit_length() - 1
        if bits > self._bits:
            grow = bits - self._bits
            self._sum <<= grow
            self._sum_sq <<= 2 * grow
            self._bits = bits
        k = num << (self._bits - bits)
        self.scores.append(score)
        self._sum += k
        self._sum_sq += k * k
        if len(self.scores) > self.capacity:
            num, den = self.scores.pop(0).as_integer_ratio()
            k = num << (self._bits + 1 - den.bit_length())
            self._sum -= k
            self._sum_sq -= k * k

    def step(self, score: float) -> tuple[float | None, bool]:
        """The threshold over the window before `score` joins it, and
        whether `score` is strictly above it; then push `score`."""
        threshold = update_threshold(self)
        flagged = threshold is not None and score > threshold
        self.push(score)
        return threshold, flagged


class HistoryRow(NamedTuple):
    """One persisted history line; field names and their order are the
    wire format's. Immutable; derive a changed copy with `_replace`."""

    timestamp: int
    model: str
    batch_id: str
    icr: float
    ipr: float
    ci: float
    hal: float | None
    d_icr: float
    d_ipr: float
    d_ci: float
    score: float
    threshold: float | None
    flagged: bool
    hall_total: int
    hall_failed: int

    def to_line(self) -> str:
        return json.dumps(dict(zip(_HISTORY_FIELDS, self)))


_HISTORY_FIELDS = HistoryRow._fields
_history_values = operator.itemgetter(*_HISTORY_FIELDS)


def resume_state(
    rows: Iterable[HistoryRow],
    model: str,
    *,
    capacity: int,
    lam: float,
    warmup_min: int,
) -> ThresholdState:
    """The ThresholdState of `model` after `rows` (oldest first): its last
    `capacity` scores as the window and its last timestamp, so the next
    observation scores and flags as it would at the end of a replay."""
    scores = []
    last_timestamp = None
    for row in rows:
        if row.model == model:
            scores.append(row.score)
            last_timestamp = row.timestamp
    return ThresholdState(
        scores=scores[-capacity:],
        capacity=capacity,
        lam=lam,
        warmup_min=warmup_min,
        last_timestamp=last_timestamp,
    )


def _weighted_terms(
    delta: MetricVector, weights: MetricVector
) -> list[tuple[str, float]]:
    """(metric, weight * delta) per weighted metric, in MetricVector field
    order; a None weight is skipped. A hal weight without a hal delta is a
    configuration error."""
    terms = []
    for name, weight, value in zip(MetricVector._fields, weights, delta):
        if weight is None:
            continue
        if value is None:
            raise MonitorError(f"w_{name} configured but delta carries no d_{name}")
        terms.append((name, weight * value))
    return terms


def anomaly_score(delta: MetricVector, weights: MetricVector) -> float:
    """The weighted delta terms added left to right; not by sum(), which
    compensates rounding since Python 3.12, so replay would vary by version."""
    terms = _weighted_terms(delta, weights)
    score = terms[0][1]
    for _, value in terms[1:]:
        score += value
    return score


def _sqrt_of_frac(num: int, den: int) -> float:
    """Correctly rounded sqrt(num / den) for num >= 0 and den > 0.

    The integer root carries at least 55 bits and is rounded to odd, so the
    one correctly rounded int/int division at the end rounds only once.
    """
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def update_threshold(state: ThresholdState) -> float | None:
    """mean + lambda * sample stddev of the window; None during warmup.

    Both are computed exactly from the window sums and rounded once, so
    the result equals statistics.fmean + lambda * statistics.stdev on
    Python 3.11+ without depending on that module.
    """
    n = len(state.scores)
    if n < state.warmup_min:
        return None
    mean = (state._sum / (1 << state._bits)) / n
    if n == 1:
        sigma = 0.0
    else:
        spread = n * state._sum_sq - state._sum * state._sum
        sigma = _sqrt_of_frac(spread, n * (n - 1) << 2 * state._bits)
    return mean + state.lam * sigma


def observe(
    state: ThresholdState,
    *,
    timestamp: int,
    model: str,
    metrics: MetricVector,
    delta: MetricVector,
    weights: MetricVector,
    batch_id: str = "",
    hall_total: int = 0,
    hall_failed: int = 0,
) -> tuple[HistoryRow, str | None]:
    """Score `delta`, the caller's delta of `metrics` against its baseline,
    advance the threshold state, and return the history row with the name
    of the largest weighted delta when the row is flagged (None otherwise).

    The threshold is computed from the window before the current score
    joins it; flagging is strict (score > threshold). The row keeps the
    delta it scored. A non-finite score raises MonitorError and leaves the
    state unchanged.
    """
    if state.last_timestamp is not None and timestamp <= state.last_timestamp:
        raise MonitorError(
            f"non-monotone timestamp {timestamp} for model {model!r} "
            f"(last was {state.last_timestamp})"
        )
    score = anomaly_score(delta, weights)
    threshold, flagged = state.step(score)
    state.last_timestamp = timestamp

    row = HistoryRow(
        timestamp=timestamp,
        model=model,
        batch_id=batch_id,
        icr=metrics.icr,
        ipr=metrics.ipr,
        ci=metrics.ci,
        hal=metrics.hal,
        d_icr=delta.icr,
        d_ipr=delta.ipr,
        d_ci=delta.ci,
        score=score,
        threshold=threshold,
        flagged=flagged,
        hall_total=hall_total,
        hall_failed=hall_failed,
    )
    if not flagged:
        return row, None
    # max keeps the first of equal terms, so ties go to the earlier metric.
    return row, max(_weighted_terms(delta, weights), key=operator.itemgetter(1))[0]


def baseline_row(
    timestamp: int, batch_id: str, metrics: MetricVector
) -> HistoryRow:
    """History row for the per-batch baseline graph itself."""
    return HistoryRow(
        timestamp=timestamp,
        model=BASELINE_MODEL,
        batch_id=batch_id,
        icr=metrics.icr,
        ipr=metrics.ipr,
        ci=metrics.ci,
        hal=metrics.hal,
        d_icr=0.0,
        d_ipr=0.0,
        d_ci=0.0,
        score=0.0,
        threshold=None,
        flagged=False,
        hall_total=0,
        hall_failed=0,
    )


def append_history(path: str, *rows: HistoryRow) -> None:
    """Append `rows` to the history at `path`, one line each, through one
    buffered handle: a small cycle's rows go out in one write, and a long
    scenario's are never joined into one copy.

    When the file does not end in a newline, a write was cut short or the
    file was edited. A torn last line (see _drop_torn_end) is cut off; it
    would be a bad line in the middle once rows follow it. That is logged
    at debug level only: every caller reads the history before it appends,
    and that read has warned of the line. An unterminated last line that
    parses is kept, and ended with a newline so the rows start on a line of
    their own.
    """
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                data, cut, offset = next(_runs_backward(fh))
                kept = _drop_torn_end(path, data, cut, logging.DEBUG)
                if kept == len(data):
                    fh.write(b"\n")
                else:
                    fh.truncate(offset + kept)
        fh.writelines((row.to_line() + "\n").encode("utf-8") for row in rows)


def write_atomic(path: str, *chunks: bytes) -> None:
    """Replace the file at `path` with the concatenated `chunks`, or leave
    it as it was.

    The bytes go to a new file in the same directory, which then takes
    `path`'s place in one rename, so no reader and no crash sees a partial
    file. On failure the new file is removed and the OSError raised.
    """
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _well_typed(row: HistoryRow) -> bool:
    """Whether every field of `row` has its wire type. One chained test
    rather than a loop over a table of field types: it runs on every parsed
    row."""
    return (
        type(row.timestamp) is int
        and type(row.hall_total) is int
        and type(row.hall_failed) is int
        and type(row.model) is str
        and type(row.batch_id) is str
        and type(row.flagged) is bool
        and type(row.icr) in _NUMBER
        and type(row.ipr) in _NUMBER
        and type(row.ci) in _NUMBER
        and type(row.d_icr) in _NUMBER
        and type(row.d_ipr) in _NUMBER
        and type(row.d_ci) in _NUMBER
        and type(row.score) in _NUMBER
        and type(row.hal) in _NUMBER_OR_NULL
        and type(row.threshold) in _NUMBER_OR_NULL
    )


def parse_history_line(line: str) -> HistoryRow:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MonitorError(f"bad history line: {exc}") from exc
    if not isinstance(payload, dict):
        raise MonitorError("bad history line: not a key-value record")
    try:
        row = HistoryRow._make(_history_values(payload))
    except KeyError:
        missing = [name for name in _HISTORY_FIELDS if name not in payload]
        raise MonitorError(
            f"history line missing fields: {', '.join(missing)}"
        ) from None
    if not _well_typed(row):
        raise MonitorError(
            f"bad history line: a field has the wrong type: {line.strip()}"
        )
    return row


def _drop_torn_end(
    path: str, data: bytes, cut: int, level: int = logging.WARNING
) -> int:
    """How much of `data` to keep so that the run data[cut:] loses its
    unterminated last line if that line is torn, that is, does not parse: a
    write cut short leaves such a line, and it must not fail every later
    read. Skipping it logs a message naming the file, at `level`. A bad
    line anywhere else is not touched here, so it still raises."""
    last = max(data.rfind(b"\n", cut), data.rfind(b"\r", cut), cut - 1) + 1
    try:
        text = data[last:].decode("utf-8")
        if text.strip():
            parse_history_line(text)
    except (UnicodeDecodeError, MonitorError) as exc:
        log.log(level, "history %s: dropping a torn last line: %s", path, exc)
        return last
    return len(data)


def _runs_backward(
    fh, lo: int = 0, hi: int | None = None
) -> Iterator[tuple[bytes, int, int]]:
    r"""Yield the bytes [lo, hi) of a binary file (by default all of it) in
    runs of whole lines, last run first, each as (data, cut, offset): the
    run is data[cut:], and data[0] is at file offset `offset`. A line is
    taken to start at `lo`.

    Blocks are read from `hi` back. Each read takes one block together with
    the partial line it ends in, up to where the run after it starts;
    data[:cut] is the block's own partial first line, which the next read
    takes again. So a run never cuts a line (nor, since a terminator byte
    never falls inside a multi-byte character, a UTF-8 character), and no
    bytes are joined or copied to make one. A line longer than a block is
    read again with each block before it until its start is found. A run
    may start or end inside a \r\n pair; see _split_lines.
    """
    end = hi = fh.seek(0, os.SEEK_END) if hi is None else hi
    while end > lo:
        start = max(lo, end - _BLOCK_SIZE)
        fh.seek(start)
        data = fh.read(hi - start)
        end = start
        cut = 0
        if start > lo:
            first_end = _LINE_END.search(data)
            if first_end is None:
                # One line holds the whole read: read it again with the
                # block before.
                continue
            cut = first_end.start()
        yield data, cut, start
        hi = start + cut


def _split_lines(run: bytes) -> list[bytes]:
    r"""Lines of a run in file order, without terminators. Splitting at
    every \r and at every \n yields text mode's lines plus an empty line
    inside each \r\n pair; callers skip blank lines anyway."""
    return run.replace(b"\r", b"\n").split(b"\n")


def _parse_run(run: bytes) -> list[HistoryRow]:
    """The rows of a run in file order; blank lines are skipped."""
    rows: list[HistoryRow] = []
    for line in _split_lines(run):
        text = line.decode("utf-8")
        if text.strip():
            rows.append(parse_history_line(text))
    return rows


def _parse_runs(runs: Iterable[tuple[bytes, int, int]]) -> list[HistoryRow]:
    """The rows of `runs` (newest first, as _runs_backward yields them) in
    file order. Parsed run by run, so no more than one run's bytes are
    held."""
    chunks = [_parse_run(data[cut:]) for data, cut, _ in runs]
    return [row for chunk in reversed(chunks) for row in chunk]


class _TailIndex(NamedTuple):
    """What a tail index says of the first `length` bytes of a history: the
    SHA-256 (hex) of their last _TAIL_SPAN bytes, and every model's last
    `window` rows there (all of them when it has fewer), in file order. The
    field names are the keys of the sidecar's JSON body, which holds each
    row as the list of its field values."""

    length: int
    sha256: str
    window: int
    rows: list[HistoryRow]


def _current_tail_index(
    path: str, fh, last: int, window: int
) -> _TailIndex | None:
    """The tail index of the history at `path` (open as `fh`, its whole
    lines ending at `last`) when it describes the history as it is now and
    holds up to `window` rows of each model, or None: when there is none,
    when the sidecar is empty, torn, of another format or not one, when a
    row in it is not a well-typed row, when it was built under a smaller
    window, or when the history is shorter than its prefix or the
    _TAIL_SPAN bytes before the prefix ends have another SHA-256."""
    try:
        with open(path + _TAIL_SUFFIX, "rb") as fh_index:
            raw = fh_index.read()
        if not raw.startswith(_TAIL_FORMAT):
            return None
        payload = json.loads(raw[len(_TAIL_FORMAT) :])
    except (OSError, ValueError, RecursionError):
        return None
    if type(payload) is not dict:
        return None
    index = _TailIndex._make(map(payload.get, _TailIndex._fields))
    if not (
        type(index.length) is int
        and 0 <= index.length <= last
        and type(index.sha256) is str
        and type(index.window) is int
        and index.window >= window
        and type(index.rows) is list
        and all(
            type(values) is list and len(values) == len(_HISTORY_FIELDS)
            for values in index.rows
        )
    ):
        return None
    rows = list(map(HistoryRow._make, index.rows))
    if not all(map(_well_typed, rows)):
        return None
    if _prefix_digest(fh, index.length) != index.sha256:
        return None
    return index._replace(rows=rows)


def _prefix_digest(fh, length: int) -> str:
    """SHA-256 (hex) of the last _TAIL_SPAN bytes of the first `length`
    bytes of `fh` (of all of them when there are fewer), read a block at a
    time."""
    digest = hashlib.sha256()
    first = fh.seek(max(0, length - _TAIL_SPAN))
    for at in range(first, length, _BLOCK_SIZE):
        digest.update(fh.read(min(_BLOCK_SIZE, length - at)))
    return digest.hexdigest()


def _write_tail_index(
    path: str, fh, length: int, window: int, rows: list[HistoryRow]
) -> None:
    """Replace the tail index of the history at `path` (open as `fh`) with
    one of its first `length` bytes, whose rows are `rows`. A sidecar that
    cannot be written is logged at debug level and costs only the reading
    it would have spared."""
    index = _TailIndex(length, _prefix_digest(fh, length), window, rows)
    try:
        write_atomic(
            path + _TAIL_SUFFIX, _TAIL_FORMAT, json.dumps(index._asdict()).encode()
        )
    except OSError as exc:
        log.debug("history tail index %s not written: %s", path + _TAIL_SUFFIX, exc)


def _last_rows(rows: list[HistoryRow], window: int) -> list[HistoryRow]:
    """Each model's last `window` of `rows` (all of them when it has
    fewer), in the order of `rows`."""
    count: dict[str, int] = {}
    kept = []
    for row in reversed(rows):
        n = count.get(row.model, 0)
        if n < window:
            count[row.model] = n + 1
            kept.append(row)
    kept.reverse()
    return kept


def _read_tail(
    path: str,
    fh,
    runs: Iterator[tuple[bytes, int, int]],
    models: Iterable[str],
    window: int,
) -> list[HistoryRow]:
    """The last `window` rows of each listed model (all of its rows when it
    has fewer) in the history at `path`, open as `fh`, in file order; see
    read_history. `runs` are the history's runs, newest first, as
    _runs_backward yields them.

    Lines are parsed from the newest, and each model's rows are kept until
    it has `window`, up to the line where the last listed model has them.
    When the newest run leaves a listed model short, a current tail index
    ends the walk: the rows are then the index's and those of the lines
    after its prefix, which are parsed again. A walk that reaches the start
    of a file longer than its newest run writes the index; a read that used
    it rewrites it once the history has grown by a block or more past the
    prefix.
    """
    models = set(models)
    if not models:
        return []
    short = set(models)
    count: dict[str, int] = {}
    kept: list[HistoryRow] = []  # each model's last `window` rows, newest first
    index = last = None
    for data, cut, offset in runs:
        if last is None:
            last, newest = offset + len(data), offset
        for line in reversed(_split_lines(data[cut:])):
            text = line.decode("utf-8")
            if not text.strip():
                continue
            row = parse_history_line(text)
            n = count.get(row.model, 0)
            if n < window:
                count[row.model] = n + 1
                kept.append(row)
                if n + 1 == window and row.model in short:
                    short.remove(row.model)
                    if not short:
                        return [row for row in reversed(kept) if row.model in models]
        if offset and offset == newest:
            # The newest run of a longer file leaves a listed model short.
            index = _current_tail_index(path, fh, last, window)
            if index is not None:
                break
    if index is not None:
        after = _parse_runs(_runs_backward(fh, index.length, last))
        kept = _last_rows(index.rows + after, window)
        if last - index.length >= _BLOCK_SIZE:
            _write_tail_index(path, fh, last, window, kept)
    else:
        kept.reverse()
        if newest:
            _write_tail_index(path, fh, last, window, kept)
    return [row for row in kept if row.model in models]


def read_history(
    path: str, models: Iterable[str] | None = None, window: int | None = None
) -> list[HistoryRow]:
    """Parse the history rows of `path`, returned in file order; lines
    split where text mode splits them, and blank lines are skipped.

    Without `models` and `window` every row is parsed and returned. With
    both, the result is the last `window` rows of each listed model, or all
    of its rows when it has fewer (none when it is absent). The file is
    parsed backwards from its end, a block at a time, up to the line where
    the last listed model has `window` rows.

    A model still short after the newest block is looked up in the tail
    index beside the history (`path` + ".kgmon-tail"), which holds every
    model's last rows in a prefix of the file. With an index that matches
    the file, no line before the prefix ends is read, so a short or absent
    model costs about the rows appended since the index, not the file.
    Without one, every line is parsed, and the index is written. A read
    without `models` never uses the index.

    Either way, an unterminated last line that does not parse, as a write
    cut short leaves it, is skipped with a warning; any other bad line that
    is read raises MonitorError.
    """
    try:
        with open(path, "rb") as fh:
            runs = _runs_backward(fh)
            # The newest run holds the last line, which may be torn.
            data, cut, offset = next(runs, (b"", 0, 0))
            kept = _drop_torn_end(path, data, cut)
            runs = itertools.chain([(data[:kept], cut, offset)], runs)
            if models is None or window is None:
                return _parse_runs(runs)
            return _read_tail(path, fh, runs, models, window)
    except UnicodeDecodeError as exc:
        raise UndecodableFileError(
            f"history {path}: not valid UTF-8: {exc.reason}"
        ) from exc


def replay_history(
    rows: list[HistoryRow],
    *,
    capacity: int,
    lam: float,
    warmup_min: int,
) -> list[tuple[HistoryRow, float | None, bool]]:
    """Recompute (threshold, flagged) for every non-baseline row from the
    stored score sequence through the ThresholdState.step that observe
    uses. With the parameters the store was written under, the
    recomputation matches the stored values bit for bit."""
    states: dict[str, ThresholdState] = {}
    out: list[tuple[HistoryRow, float | None, bool]] = []
    for row in rows:
        if row.model == BASELINE_MODEL:
            continue
        state = states.get(row.model)
        if state is None:
            state = ThresholdState(
                capacity=capacity, lam=lam, warmup_min=warmup_min
            )
            states[row.model] = state
        out.append((row, *state.step(row.score)))
    return out

