"""Anomaly detection over metric deltas.

Each observation turns a candidate-vs-baseline delta into a weighted
score, compares it against a rolling threshold mean + lambda * stddev
computed from past scores only, and appends the score to the window. The
persisted history is sufficient to replay every threshold and flag
decision bit-exactly.
"""

import bisect
import contextlib
import hashlib
import itertools
import json
import logging
import math
import operator
import os
import re
from collections.abc import Container, Iterable, Iterator
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
_TAIL_FORMAT = b"kgmon history tail index 1\n"
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
    """Scale nonnegative weights to sum to 1. At least one must be positive;
    a None Hal weight stays None."""
    parts = [w_icr, w_ipr, w_ci] + ([] if w_hal is None else [w_hal])
    if any(w < 0 for w in parts):
        raise MonitorError("weights must be nonnegative")
    total = sum(parts)
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
    # One chained test rather than a loop over a table of field types: it
    # runs on every parsed row.
    if not (
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
    ):
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


def _model_names(models: Iterable[str]) -> bytes:
    """`models` as alternatives of a byte pattern."""
    return b"|".join(
        re.escape(model.encode("utf-8", "surrogatepass")) for model in models
    )


def _row_of(models: Iterable[str]) -> re.Pattern:
    """A search that finds every line holding a row of one of `models`
    unless the line has a backslash.

    Without a backslash a line has no escapes, so the key and the model
    name of a row stand in it literally: "model", blanks, a colon, blanks,
    then the name's UTF-8 bytes between quotes. The search leaves out the
    key's opening quote, which opens every key and string of a line and
    would stop it at each. It may find lines that hold no such row; those
    are parsed to tell.
    """
    return re.compile(rb'model"[ \t]*:[ \t]*"(?:' + _model_names(models) + rb')"')


def _row_not_of(models: list[str]) -> re.Pattern:
    """Like _row_of, a search that finds every line holding a row of any
    model but `models` unless the line has a backslash."""
    pattern = rb'model"[ \t]*:[ \t]*"'
    if models:
        pattern += rb'(?!(?:' + _model_names(models) + rb')")'
    return re.compile(pattern)


# The model name a line without a backslash shows: the string after its
# "model" key, opening quote and all, so that no other key ending in
# "model" is taken for it.
_MODEL_VALUE = re.compile(rb'"model"[ \t]*:[ \t]*"([^"]*)"')


class _TailIndex(NamedTuple):
    """What a tail index says of the first `length` bytes of a history:
    the SHA-256 (hex) of their last _TAIL_SPAN bytes, and for every model
    with a row in them the file offsets of its last `window` rows there
    (all of them when it has fewer), oldest first. The field names are the
    keys of the sidecar's JSON body."""

    length: int
    sha256: str
    window: int
    rows: dict[str, list[int]]


def _current_tail_index(path: str, fh, last: int) -> _TailIndex | None:
    """The tail index of the history at `path` (open as `fh`, its whole
    lines ending at `last`) when it describes the history as it is now, or
    None: when there is none, when the sidecar is empty, torn or not one,
    or when the history is shorter than its prefix or the _TAIL_SPAN bytes
    before the prefix ends have another SHA-256."""
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
        and index.window > 0
        and type(index.rows) is dict
    ):
        return None
    for offsets in index.rows.values():
        if not (
            type(offsets) is list
            and 0 < len(offsets) <= index.window
            and all(type(at) is int for at in offsets)
            and 0 <= offsets[0]
            and offsets[-1] < index.length
            and all(a < b for a, b in zip(offsets, offsets[1:]))
        ):
            return None
    if _prefix_digest(fh, index.length) != index.sha256:
        return None
    return index


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
    path: str, fh, length: int, window: int, rows: dict[str, list[int]]
) -> None:
    """Replace the tail index of the history at `path` (open as `fh`) with
    one of its first `length` bytes. A sidecar that cannot be written is
    logged at debug level and costs only the search it would have spared."""
    index = _TailIndex(length, _prefix_digest(fh, length), window, rows)
    try:
        write_atomic(
            path + _TAIL_SUFFIX, _TAIL_FORMAT, json.dumps(index._asdict()).encode()
        )
    except OSError as exc:
        log.debug("history tail index %s not written: %s", path + _TAIL_SUFFIX, exc)


class _RowLearner:
    """Learns, run by run from the newest, the file offsets of each
    model's last `window` rows (all of them when it has fewer).

    Each line's model is told by _row_of's rule: a line without a
    backslash shows it literally, and a line with one is parsed (a line
    that does not parse holds no row). Once a model has `window` rows,
    `others` searches for the lines of the other models only, so a run
    with no match and no backslash holds no row to learn. It always
    searches for the models in `keep` (the tail search's short models), so
    it finds every line that the tail search's `_row_of` finds. A line that
    shows a name literally may hold no row of it; _rows_from_index finds
    such an offset out when it reads the line.
    """

    def __init__(self, window: int, keep: Container[str] = ()) -> None:
        self.window = window
        self.keep = keep
        self.found: dict[str, list[int]] = {}  # newest first
        self.others = _row_not_of([])

    def learn(self, data: bytes, offset: int, partial: bool) -> None:
        """Learn the lines of `data`, which starts at file offset `offset`,
        all but its first when that is `partial` (see _runs_backward)."""
        lines = _split_lines(data)
        line_end = len(data)  # where lines[i] ends in data
        for i in range(len(lines) - 1, 0 if partial else -1, -1):
            line = lines[i]
            line_start = line_end - len(line)
            line_end = line_start - 1
            if b"\\" in line:
                try:
                    names = [parse_history_line(line.decode("utf-8")).model]
                except (MonitorError, UnicodeDecodeError):
                    continue
            elif self.others.search(line):
                names = [
                    name.decode("utf-8", "replace")
                    for name in _MODEL_VALUE.findall(line)
                ]
            else:
                continue
            at = offset + line_start
            for name in names:
                offsets = self.found.setdefault(name, [])
                if len(offsets) < self.window and at not in offsets[-1:]:
                    offsets.append(at)
                    if len(offsets) == self.window:
                        self.others = _row_not_of(
                            [
                                m
                                for m, o in self.found.items()
                                if len(o) == self.window and m not in self.keep
                            ]
                        )

    def rows(self) -> dict[str, list[int]]:
        """The offsets learned so far, oldest first."""
        return {name: offsets[::-1] for name, offsets in self.found.items()}


def _learn_rows(
    fh, lo: int, hi: int, window: int, keep: Container[str] = ()
) -> _RowLearner:
    """A _RowLearner(window, keep) that has learned the bytes [lo, hi) of
    `fh`."""
    learner = _RowLearner(window, keep)
    for data, cut, offset in _runs_backward(fh, lo, hi):
        if data.find(b"\\", cut) >= 0 or learner.others.search(data, cut):
            learner.learn(data, offset, offset > lo)
    return learner


def _rows_from_index(
    path: str,
    fh,
    index: _TailIndex,
    searched: int,
    start: int,
    last: int,
    left: dict[str, int],
    rows: list[HistoryRow],
) -> list[HistoryRow] | None:
    """Finish a tail read from the current tail `index` once the search
    has reached the prefix it describes, or None when the index lacks rows
    the read needs or lists wrong ones; the search then goes on.

    The search has read every line that starts at or after `searched`, and
    found `rows` (newest first) from `start`; the history's whole lines end
    at `last`, and each model in `left` still needs that many rows. Each
    takes its older rows from the index, and the bytes from the oldest of
    them to `start` are read and parsed. A parsed row must stand at every
    offset taken, of its model, and a model must have no row there that the
    index leaves out; otherwise None. A bad line among those bytes then
    raises, as in the search.

    When a model has fewer rows than the read asks for and the history has
    grown by a block or more since the index, the index is rewritten to
    take in the rows appended since.
    """
    taken: dict[str, list[int]] = {}
    for model, needed in left.items():
        listed = index.rows.get(model, [])
        older = listed[: bisect.bisect_left(listed, searched)]
        if len(older) < needed and len(listed) == index.window:
            # The model may have older rows than the index lists.
            return None
        taken[model] = older[-needed:]
    oldest = min((offsets[0] for offsets in taken.values() if offsets), default=start)
    parsed: dict[int, HistoryRow | ValueError] = {}  # by file offset
    if oldest < start:
        before = min(oldest, 1)  # the byte before `oldest` must end a line
        fh.seek(oldest - before)
        chunk = fh.read(start - oldest + before)
        if chunk[:before] not in (b"", b"\n", b"\r"):
            return None
        at = oldest
        for line in _split_lines(chunk[before:]):
            try:
                text = line.decode("utf-8")
                if text.strip():
                    parsed[at] = parse_history_line(text)
            except (MonitorError, UnicodeDecodeError) as exc:
                parsed[at] = exc
            at += len(line) + 1
    for model, offsets in taken.items():
        since = offsets[0] if offsets else oldest
        found = [
            at
            for at, row in parsed.items()
            if at >= since and isinstance(row, HistoryRow) and row.model == model
        ]
        if found != offsets:
            return None
    suffix = list(parsed.values())
    for row in suffix:
        if not isinstance(row, HistoryRow):
            raise row
    suffix.extend(reversed(rows))
    if last - index.length >= _BLOCK_SIZE and any(
        len(taken[model]) < needed for model, needed in left.items()
    ):
        merged = dict(index.rows)
        learned = _learn_rows(fh, index.length, last, index.window)
        for model, offsets in learned.rows().items():
            merged[model] = (merged.get(model, []) + offsets)[-index.window :]
        _write_tail_index(path, fh, last, index.window, merged)
    return suffix


def _read_tail(
    path: str,
    fh,
    runs: Iterator[tuple[bytes, int, int]],
    models: Iterable[str],
    window: int,
) -> list[HistoryRow]:
    """The shortest suffix of the rows in `runs` (newest run first, as
    _runs_backward yields them from `fh`, the history at `path`) that holds
    the last `window` rows of every listed model (all of its rows when it
    has fewer); see read_history.

    A run with no backslash and no match of `_row_of` is passed over: it is
    searched in place and dropped. What was passed over since the suffix
    found so far is kept as one file range, from the end of the current
    run to `start`: the runs come in file order, so each one passed over
    widens that range. The range is read again (one seek, one read) and
    parsed only when an older row pulls it into the suffix.

    When a model is still short after the newest run, the tail index is
    loaded, and the search stops once it has read the lines from where the
    index's prefix ends; _rows_from_index finishes the read. Without a
    current index the search learns each line's model as it goes, and if
    it reaches the start of the file it rewrites the index from them.
    """
    left = dict.fromkeys(models, window)
    if not left:
        return []
    short = _row_of(left)
    rows: list[HistoryRow] = []  # the suffix found so far, newest first
    start = last = None  # where that suffix starts; where the rows end
    index = None
    loaded = False
    learner = None  # learns each line's model once the search must go on

    def take(run: bytes) -> None:
        rows.extend(reversed(_parse_run(run)))

    for data, cut, offset in runs:
        end = offset + len(data)
        if start is None:
            start = last = end
        slash = data.find(b"\\", cut) >= 0
        if learner is not None:
            # One search passes over a run for the learner and the tail
            # search alike: `others` finds every line that `short` finds.
            if not slash and not learner.others.search(data, cut):
                continue
            learner.learn(data, offset, offset > 0)
        if slash or short.search(data, cut):
            lines = _split_lines(data)
            # lines[0] is data[:cut], the line before the run, unless data
            # starts the file.
            first = 1 if offset else 0
            top = len(lines)  # lines[top:] are in rows already
            line_end = len(data)  # where lines[i] ends in data
            for i in range(top - 1, first - 1, -1):
                line = lines[i]
                line_start = line_end - len(line)
                line_end = line_start - 1
                if b"\\" not in line and not short.search(line):
                    continue
                row = parse_history_line(line.decode("utf-8"))
                needed = left.get(row.model)
                if not needed:
                    continue
                # Everything between this row and the suffix found so far
                # joins the suffix, and is parsed and checked.
                if start > end:
                    fh.seek(end)
                    take(fh.read(start - end))
                take(b"\n".join(lines[i + 1 : top]))
                rows.append(row)
                top = i
                start = offset + line_start
                if needed > 1:
                    left[row.model] = needed - 1
                    continue
                del left[row.model]
                if not left:
                    rows.reverse()
                    return rows
                short = _row_of(left)
        if offset and not loaded:
            loaded = True
            index = _current_tail_index(path, fh, last)
        # Every line that starts at `searched` or later has been searched.
        searched = offset + cut + 1 if offset else 0
        if index is not None and searched <= index.length:
            suffix = _rows_from_index(
                path, fh, index, searched, start, last, left, rows
            )
            if suffix is not None:
                return suffix
            index = None
        if loaded and index is None and learner is None:
            # The search goes on to the start of the file. What it has read
            # is learned again, and each run from here on as it comes.
            learner = _learn_rows(fh, searched, last, window, left)
    if learner is not None:
        _write_tail_index(path, fh, last, window, learner.rows())
    rows.reverse()
    return rows


def read_history(
    path: str, models: Iterable[str] | None = None, window: int | None = None
) -> list[HistoryRow]:
    """Parse the history rows of `path`, returned in file order; lines
    split where text mode splits them, and blank lines are skipped.

    The file is read backwards from its end. Without `models` and `window`
    every row is parsed and returned. With both, the result is the
    shortest suffix of the rows that holds the last `window` rows of every
    listed model, or all of its rows when it has fewer (none when it is
    absent). Every line of that suffix is parsed and checked. An older line
    is parsed only when its bytes may hold a row of a listed model that is
    still short of `window` rows. The others are searched where they were
    read and passed over: only their place in the file is kept, and they
    are read again if an older row pulls them into the suffix.

    A model still short after the newest block is looked up in the tail
    index beside the history (`path` + ".kgmon-tail"): for a prefix of the
    file, the SHA-256 of that prefix's last 64 KiB and the offsets of each
    model's last rows there. With an index that matches the file, the
    search stops where the prefix ends, and the model's older rows are
    read from the offsets it lists, so a short or absent model costs about
    the rows appended since the index, not the file; older lines, bad ones
    too, are not read. An index that is missing, damaged, stale or built
    for fewer rows than the model needs is not used: the search goes on to
    the start of the file, as without one, and then rewrites it. A read
    without `models` never uses the index.

    Either way, an unterminated last line that does not parse, as a write
    cut short leaves it, is skipped with a warning; a bad line anywhere
    else raises MonitorError.
    """
    try:
        with open(path, "rb") as fh:
            runs = _runs_backward(fh)
            # The newest run holds the last line, which may be torn.
            data, cut, offset = next(runs, (b"", 0, 0))
            kept = _drop_torn_end(path, data, cut)
            runs = itertools.chain([(data[:kept], cut, offset)], runs)
            if models is None or window is None:
                # Parsed run by run, so no more than one run's bytes are held.
                chunks = [_parse_run(data[cut:]) for data, cut, _ in runs]
                return [row for chunk in reversed(chunks) for row in chunk]
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

