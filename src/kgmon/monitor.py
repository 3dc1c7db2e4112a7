"""Anomaly detection over metric deltas.

Each observation turns a candidate-vs-baseline delta into a weighted
score, compares it against a rolling threshold mean + lambda * stddev
computed from past scores only, and appends the score to the window. The
persisted history is sufficient to replay every threshold and flag
decision bit-exactly.
"""

import contextlib
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

from kgmon.metrics import MetricDelta, MetricVector, metric_delta

log = logging.getLogger(__name__)

# Reserved model name for per-batch baseline rows in the history store.
BASELINE_MODEL = "GT"

DEFAULT_WINDOW = 30
DEFAULT_WARMUP = 5
DEFAULT_LAMBDA = 2.0

# JSON numbers as json.loads returns them; bool is not a number here.
_NUMBER = frozenset((int, float))
_NUMBER_OR_NULL = frozenset((int, float, type(None)))

# Every finite double is an integer multiple of 2**-1074, so x * 2**_SCALE
# is an exact integer and window sums over it are exact.
_SCALE = 1074

# Bytes read per step when the history is read backwards from its end.
_BLOCK_SIZE = 1 << 16
# Line terminators as text-mode reading knows them (\n, \r\n, \r).
_LINE_END = re.compile(rb"[\r\n]")


class MonitorError(ValueError):
    pass


class UndecodableFileError(ValueError):
    """A file read as text is not valid UTF-8; the message names the file.

    Not a MonitorError: the monitor loop outlives a failed cycle, but a
    corrupt history or seen-set file would fail every cycle, so it ends
    the command instead.
    """


@dataclass(frozen=True)
class AnomalyWeights:
    w_icr: float
    w_ipr: float
    w_ci: float
    w_hal: float | None = None


def normalize_weights(
    w_icr: float, w_ipr: float, w_ci: float, w_hal: float | None = None
) -> AnomalyWeights:
    """Scale nonnegative weights to sum to 1. At least one must be positive."""
    parts = [w_icr, w_ipr, w_ci] + ([] if w_hal is None else [w_hal])
    if any(w < 0 for w in parts):
        raise MonitorError("weights must be nonnegative")
    total = sum(parts)
    if total <= 0:
        raise MonitorError("at least one weight must be positive")
    return AnomalyWeights(
        w_icr=w_icr / total,
        w_ipr=w_ipr / total,
        w_ci=w_ci / total,
        w_hal=None if w_hal is None else w_hal / total,
    )


DEFAULT_WEIGHTS = normalize_weights(1.0, 1.0, 1.0)


def _scaled(score: float) -> int:
    """score * 2**_SCALE as an exact integer; the score must be finite."""
    num, den = score.as_integer_ratio()
    return num << (_SCALE + 1 - den.bit_length())


@dataclass
class ThresholdState:
    """Rolling window of past anomaly scores for one monitored model.

    `scores` is the window, oldest first. Seed it through the constructor
    and grow it with `push`, which keeps the exact sums of the scaled
    scores and of their squares that `update_threshold` reads. `step` is
    the flag rule that `observe` and `replay_history` share.
    """

    scores: list[float] = field(default_factory=list)
    capacity: int = DEFAULT_WINDOW
    lam: float = DEFAULT_LAMBDA
    warmup_min: int = DEFAULT_WARMUP
    last_timestamp: int | None = None
    _sum: int = field(default=0, init=False, repr=False, compare=False)
    _sum_sq: int = field(default=0, init=False, repr=False, compare=False)

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
        k = _scaled(score)
        self.scores.append(score)
        self._sum += k
        self._sum_sq += k * k
        if len(self.scores) > self.capacity:
            k = _scaled(self.scores.pop(0))
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


def _weighted_terms(
    delta: MetricDelta, weights: AnomalyWeights
) -> list[tuple[str, float]]:
    """(metric, weight * delta) per weighted metric, in icr, ipr, ci, hal
    order. A hal weight without a hal delta is a configuration error."""
    terms = [
        ("icr", weights.w_icr * delta.d_icr),
        ("ipr", weights.w_ipr * delta.d_ipr),
        ("ci", weights.w_ci * delta.d_ci),
    ]
    if weights.w_hal is not None:
        if delta.d_hal is None:
            raise MonitorError("w_hal configured but delta carries no d_hal")
        terms.append(("hal", weights.w_hal * delta.d_hal))
    return terms


def anomaly_score(delta: MetricDelta, weights: AnomalyWeights) -> float:
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
    mean = (state._sum / (1 << _SCALE)) / n
    if n == 1:
        sigma = 0.0
    else:
        spread = n * state._sum_sq - state._sum * state._sum
        sigma = _sqrt_of_frac(spread, n * (n - 1) << 2 * _SCALE)
    return mean + state.lam * sigma


def observe(
    state: ThresholdState,
    *,
    timestamp: int,
    model: str,
    metrics: MetricVector,
    baseline_metrics: MetricVector,
    weights: AnomalyWeights,
    batch_id: str = "",
    delta: MetricDelta | None = None,
    hall_total: int = 0,
    hall_failed: int = 0,
) -> tuple[HistoryRow, str | None]:
    """Score one observation, advance the threshold state, and return the
    history row with the name of the largest weighted delta when the row
    is flagged (None otherwise).

    The threshold is computed from the window before the current score
    joins it; flagging is strict (score > threshold). Pass `delta` to
    override the computed one (the simulator uses this for noise
    injection); the row keeps whatever delta was scored. A non-finite
    score raises MonitorError and leaves the state unchanged.
    """
    if state.last_timestamp is not None and timestamp <= state.last_timestamp:
        raise MonitorError(
            f"non-monotone timestamp {timestamp} for model {model!r} "
            f"(last was {state.last_timestamp})"
        )
    if delta is None:
        delta = metric_delta(metrics, baseline_metrics)
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
        d_icr=delta.d_icr,
        d_ipr=delta.d_ipr,
        d_ci=delta.d_ci,
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
    """Append history lines with a single write call, so the rows of one
    cycle go out together.

    When the file does not end in a newline, a write was cut short or the
    file was edited. A torn last line (see _drop_torn_end) is cut off
    first; it would be a bad line in the middle once rows follow it. The
    cut logs at debug level only: an evaluate cycle reads the history
    before it appends, and that read has warned of the line. An
    unterminated last line that parses is kept, and the rows start on a
    new line after it.
    """
    data = "".join(row.to_line() + "\n" for row in rows).encode("utf-8")
    with open(path, "a+b") as fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) != b"\n":
                newest = next(_runs_backward(fh))
                kept = _drop_torn_end(path, newest, logging.DEBUG)
                if len(kept) == len(newest):
                    data = b"\n" + data
                else:
                    fh.truncate(end - len(newest) + len(kept))
        fh.write(data)


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


def _drop_torn_end(path: str, data: bytes, level: int = logging.WARNING) -> bytes:
    """`data` without its unterminated last line if that line is torn, that
    is, does not parse: a write cut short leaves such a line, and it must
    not fail every later read. Skipping it logs a message naming the file,
    at `level`. A bad line anywhere else is not touched here, so it still
    raises."""
    cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
    try:
        last = data[cut:].decode("utf-8")
        if last.strip():
            parse_history_line(last)
    except (UnicodeDecodeError, MonitorError) as exc:
        log.log(level, "history %s: dropping a torn last line: %s", path, exc)
        return data[:cut]
    return data


def _read_all(fh, path: str) -> list[HistoryRow]:
    """Every row of a binary file, front to back; see read_history."""
    rows: list[HistoryRow] = []
    for line in fh:  # a binary file ends its lines at \n only
        if not line.endswith(b"\n"):
            line = _drop_torn_end(path, line)
        text = line.decode("utf-8")
        if "\r" in text:  # text mode also ends a line at a lone \r
            rows += [
                parse_history_line(part)
                for part in text.replace("\r", "\n").split("\n")
                if part.strip()
            ]
        elif text.strip():
            rows.append(parse_history_line(text))
    return rows


def _runs_backward(fh) -> Iterator[bytes]:
    r"""Yield a binary file in runs of whole lines, last run first.

    Blocks are read from the end; the partial first line of each block is
    carried over to the block before it, so a run never cuts a line (nor,
    since a terminator byte never falls inside a multi-byte character, a
    UTF-8 character). A run may start or end inside a \r\n pair; see
    _split_lines.
    """
    end = fh.seek(0, os.SEEK_END)
    carry = b""
    while end > 0:
        start = max(0, end - _BLOCK_SIZE)
        fh.seek(start)
        data = fh.read(end - start) + carry
        end = start
        if start:
            first_end = _LINE_END.search(data)
            if first_end is None:
                carry = data
                continue
            cut = first_end.start()
            carry, data = data[:cut], data[cut:]
        yield data


def _split_lines(run: bytes) -> list[bytes]:
    r"""Lines of a run in file order, without terminators. Splitting at
    every \r and at every \n yields text mode's lines plus an empty line
    inside each \r\n pair; callers skip blank lines anyway."""
    return run.replace(b"\r", b"\n").split(b"\n")


def _row_of(models: Iterable[str]) -> re.Pattern:
    """A search that finds every line holding a row of one of `models`
    unless the line has a backslash.

    Without a backslash a line has no escapes, so the key and the model
    name of a row stand in it literally: "model", blanks, a colon, blanks,
    then the name's UTF-8 bytes between quotes. It may also find lines
    that hold no such row; those are parsed to tell.
    """
    names = b"|".join(re.escape(model.encode("utf-8")) for model in models)
    return re.compile(rb'"model"[ \t]*:[ \t]*"(?:' + names + rb')"')


def _read_tail(
    fh, path: str, models: Iterable[str], window: int
) -> list[HistoryRow]:
    """The shortest suffix of the rows that holds the last `window` rows of
    every listed model (all of its rows when it has fewer); see
    read_history."""
    left = dict.fromkeys(models, window)
    if not left:
        return []
    short = _row_of(left)
    rows: list[HistoryRow] = []  # the suffix found so far, newest first
    older: list[bytes] = []  # unparsed runs before rows[-1], newest first

    def take(run: bytes) -> None:
        for line in reversed(_split_lines(run)):
            text = line.decode("utf-8")
            if text.strip():
                rows.append(parse_history_line(text))

    runs = _runs_backward(fh)
    # The newest run holds the last line, which may be torn.
    runs = itertools.chain([_drop_torn_end(path, next(runs, b""))], runs)
    for run in runs:
        if b"\\" not in run and not short.search(run):
            older.append(run)
            continue
        lines = _split_lines(run)
        top = len(lines)  # lines[top:] are in rows already
        for i in range(top - 1, -1, -1):
            line = lines[i]
            if b"\\" not in line and not short.search(line):
                continue
            row = parse_history_line(line.decode("utf-8"))
            needed = left.get(row.model)
            if not needed:
                continue
            # Everything between this row and the suffix found so far joins
            # the suffix, and is parsed and checked.
            for skipped in older:
                take(skipped)
            older.clear()
            take(b"\n".join(lines[i + 1 : top]))
            rows.append(row)
            top = i
            if needed > 1:
                left[row.model] = needed - 1
                continue
            del left[row.model]
            if not left:
                rows.reverse()
                return rows
            short = _row_of(left)
        older.append(b"\n".join(lines[:top]))
    rows.reverse()
    return rows


def read_history(
    path: str, models: Iterable[str] | None = None, window: int | None = None
) -> list[HistoryRow]:
    """Parse the history rows of `path`, returned in file order; lines
    split where text mode splits them, and blank lines are skipped.

    Without `models` and `window` every row is parsed and returned. With
    both, the file is read backwards from its end, and the result is the
    shortest suffix of the rows that holds the last `window` rows of every
    listed model, or all of its rows when it has fewer (none when it is
    absent). Every line of that suffix is parsed and checked. An older line
    is parsed only when its bytes may hold a row of a listed model that is
    still short of `window` rows; the others are passed over unparsed, so a
    short model costs a byte search of the file, not a parse of it.

    Either way, an unterminated last line that does not parse, as a write
    cut short leaves it, is skipped with a warning; a bad line anywhere
    else raises MonitorError.
    """
    try:
        with open(path, "rb") as fh:
            if models is None or window is None:
                return _read_all(fh, path)
            return _read_tail(fh, path, models, window)
    except UnicodeDecodeError as exc:
        raise UndecodableFileError(
            f"history {path}: not valid UTF-8: {exc.reason}"
        ) from exc


def replay_history(
    rows: list[HistoryRow],
    *,
    capacity: int = DEFAULT_WINDOW,
    lam: float = DEFAULT_LAMBDA,
    warmup_min: int = DEFAULT_WARMUP,
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

