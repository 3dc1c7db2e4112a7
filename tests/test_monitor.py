import json
import math
import random
import statistics
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kgmon import monitor
from kgmon.metrics import MetricVector, metric_delta
from kgmon.monitor import (
    BASELINE_MODEL,
    DEFAULT_LAMBDA,
    DEFAULT_WARMUP,
    DEFAULT_WINDOW,
    HistoryRow,
    MonitorError,
    ThresholdState,
    _sqrt_of_frac,
    anomaly_score,
    append_history,
    baseline_row,
    normalize_weights,
    observe,
    parse_history_line,
    read_history,
    replay_history,
    resume_state,
    update_threshold,
)

_ZERO = MetricVector(icr=0.0, ipr=0.0, ci=0.0)


def _delta(d_icr=0.0, d_ipr=0.0, d_ci=0.0, d_hal=None):
    return MetricVector(icr=d_icr, ipr=d_ipr, ci=d_ci, hal=d_hal)


_W_ICR_ONLY = normalize_weights(1.0, 0.0, 0.0)
_EQUAL_WEIGHTS = normalize_weights(1.0, 1.0, 1.0)


def _observe_score(state, ts, score):
    # A pure-ICR delta under unit weight carries the score through exactly.
    return observe(
        state,
        timestamp=ts,
        model="m",
        metrics=_ZERO,
        weights=_W_ICR_ONLY,
        delta=_delta(d_icr=score),
    )


def test_normalize_weights():
    w = normalize_weights(1.0, 1.0, 2.0)
    assert (w.icr, w.ipr, w.ci) == (0.25, 0.25, 0.5)
    assert w.hal is None
    w = normalize_weights(1.0, 1.0, 1.0, 1.0)
    assert w == MetricVector(0.25, 0.25, 0.25, 0.25)
    assert _EQUAL_WEIGHTS.icr == pytest.approx(1 / 3)
    with pytest.raises(MonitorError, match="nonnegative"):
        normalize_weights(-0.1, 1.0, 1.0)
    with pytest.raises(MonitorError, match="positive"):
        normalize_weights(0.0, 0.0, 0.0)
    # A sum that overflows would scale every weight to 0.0.
    with pytest.raises(MonitorError, match="finite sum"):
        normalize_weights(1e308, 1e308, 0.0)
    with pytest.raises(MonitorError, match="finite sum"):
        normalize_weights(1.0, 1.0, 1.0, math.inf)
    big = normalize_weights(1e308, 5e307, 0.0, 0.0)
    assert big == MetricVector(1e308 / 1.5e308, 5e307 / 1.5e308, 0.0, 0.0)


def test_anomaly_score_weighted_sum():
    w = normalize_weights(1.0, 1.0, 2.0)
    d = _delta(d_icr=0.4, d_ipr=0.2, d_ci=0.1)
    assert math.isclose(anomaly_score(d, w), 0.25 * 0.4 + 0.25 * 0.2 + 0.5 * 0.1)
    with_hal = normalize_weights(1.0, 1.0, 1.0, 1.0)
    d2 = _delta(d_icr=0.4, d_hal=0.8)
    assert math.isclose(anomaly_score(d2, with_hal), 0.25 * 0.4 + 0.25 * 0.8)


_WEIGHT = st.floats(0.0, 10.0)
_DELTA = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(_WEIGHT, _WEIGHT, _WEIGHT, st.none() | _WEIGHT),
    st.tuples(_DELTA, _DELTA, _DELTA, _DELTA),
)
@example((0.0, 0.0, 1.0, None), (-0.5, -0.5, -0.0, 0.0))
@example((1.0, 2.0, 3.0, 4.0), (0.1, 0.2, 0.3, -0.7))
def test_anomaly_score_adds_left_to_right_bit_exact(raw, d):
    # Replay needs the same bits on every Python version, so the terms are
    # added in a fixed order without compensation.
    assume(sum(w for w in raw if w is not None) > 0)
    w = normalize_weights(*raw)
    delta = _delta(*d)
    expected = (w.icr * d[0] + w.ipr * d[1]) + w.ci * d[2]
    if w.hal is not None:
        expected = expected + w.hal * d[3]
    assert anomaly_score(delta, w).hex() == expected.hex()


def test_anomaly_score_hal_weight_needs_delta():
    with_hal = normalize_weights(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(MonitorError, match="d_hal"):
        anomaly_score(_delta(d_icr=0.1), with_hal)
    assert anomaly_score(_delta(d_icr=0.1, d_hal=0.0), with_hal) >= 0


def test_update_threshold_warmup_and_formula():
    state = ThresholdState(capacity=10, lam=2.0, warmup_min=3)
    assert update_threshold(state) is None
    state = ThresholdState(scores=[0.1, 0.2], capacity=10, lam=2.0, warmup_min=3)
    assert update_threshold(state) is None
    state = ThresholdState(
        scores=[0.1, 0.2, 0.3], capacity=10, lam=2.0, warmup_min=3
    )
    expect = statistics.fmean([0.1, 0.2, 0.3]) + 2.0 * statistics.stdev([0.1, 0.2, 0.3])
    assert update_threshold(state) == expect
    one = ThresholdState(scores=[0.4], capacity=10, lam=2.0, warmup_min=1)
    assert update_threshold(one) == 0.4


def test_threshold_state_seed_keeps_last_capacity_scores():
    seed = [1.0, 2.0, 3.0, 4.0]
    state = ThresholdState(scores=seed, capacity=3, lam=1.0, warmup_min=1)
    assert state.scores == [2.0, 3.0, 4.0]
    assert seed == [1.0, 2.0, 3.0, 4.0]
    assert update_threshold(state) == 3.0 + 1.0


# Finite doubles with |x| <= 1e300, weighted toward the cases the exact sums
# must get right: zeros of both signs, subnormals, repeated values, and
# windows that mix coarse and fine binary scales.
_SCORES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1]),
    st.integers(min_value=-(2**52), max_value=2**52).map(
        lambda j: j * 5e-324
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    scores=st.lists(_SCORES, min_size=1, max_size=60),
    capacity=st.integers(min_value=1, max_value=40),
    lam=st.one_of(
        st.just(2.0), st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
    ),
    warmup_min=st.integers(min_value=1, max_value=5),
)
def test_threshold_matches_statistics_bit_for_bit(scores, capacity, lam, warmup_min):
    state = ThresholdState(capacity=capacity, lam=lam, warmup_min=warmup_min)
    for i, score in enumerate(scores):
        state.push(score)
        window = scores[: i + 1][-capacity:]
        assert state.scores == window
        got = update_threshold(state)
        if len(window) < warmup_min:
            assert got is None
            continue
        sigma = statistics.stdev(window) if len(window) > 1 else 0.0
        expect = statistics.fmean(window) + lam * sigma
        assert got.hex() == expect.hex()


def test_threshold_is_exact_when_the_scale_grows_mid_window():
    # 0.1 needs 55 fractional bits and 5e-324 needs 1074, so the sums are
    # shifted twice while coarse scores sit in the window; the coarse
    # scores after them evict both, and the scale stays where it was.
    scores = [1.0, 0.1, 5e-324, 2.0, -3.0, 4.0, 1e300, 5.0, 6.0]
    state = ThresholdState(capacity=4, lam=2.0, warmup_min=1)
    for i, score in enumerate(scores):
        state.push(score)
        window = scores[: i + 1][-4:]
        assert Fraction(state._sum, 1 << state._bits) == sum(map(Fraction, window))
        sigma = statistics.stdev(window) if len(window) > 1 else 0.0
        expect = statistics.fmean(window) + 2.0 * sigma
        assert update_threshold(state).hex() == expect.hex()
    assert state.scores == [4.0, 1e300, 5.0, 6.0]
    assert state._bits == 1074


def test_window_sums_stay_at_the_scores_own_scale():
    # These scores need at most 62 fractional bits. At a fixed scale of
    # 2**1074, which fits every double, each square would take about 2,140.
    state = ThresholdState(capacity=30, lam=2.0, warmup_min=5)
    for k in range(1, 61):
        state.step(0.01 * k / 7)
    assert state._sum_sq.bit_length() < 300


@settings(max_examples=500, deadline=None)
@given(
    num=st.integers(min_value=0, max_value=2**128),
    den=st.integers(min_value=1, max_value=2**128),
    exp=st.integers(min_value=-2250, max_value=1900),
)
def test_sqrt_of_frac_is_correctly_rounded(num, den, exp):
    # 2**exp spreads the roots from below the subnormals to near the top
    # of the double range, the span window variances can reach.
    if exp >= 0:
        num <<= exp
    else:
        den <<= -exp
    got = _sqrt_of_frac(num, den)
    exact = Fraction(num, den)
    here = Fraction(got)
    below = Fraction(math.nextafter(got, 0.0))
    above = Fraction(math.nextafter(got, math.inf))
    # sqrt(exact) must lie between the midpoints to the neighbouring
    # doubles, compared by squares so no rounding enters the check; an
    # exact tie must go to the even mantissa.
    low, high = (below + here) / 2, (here + above) / 2
    assert low * low <= exact <= high * high
    if exact in (low * low, high * high):
        assert int(got.hex().split("p")[0][-1], 16) % 2 == 0


def test_sqrt_of_frac_exact_and_tie_cases():
    assert _sqrt_of_frac(0, 7) == 0.0
    assert _sqrt_of_frac(9, 4) == 1.5
    assert _sqrt_of_frac(2, 1) == math.sqrt(2.0)
    assert _sqrt_of_frac(1, 2**2148) == 2.0**-1074
    assert _sqrt_of_frac(2**2000, 1) == 2.0**1000
    assert _sqrt_of_frac(1, 2**2152) == 0.0  # 2**-1076 rounds down to zero
    assert _sqrt_of_frac(1, 2**2150) == 0.0  # 2**-1075 ties to even zero
    assert _sqrt_of_frac(2**2150 + 1, 2**4300) == 5e-324


def test_threshold_state_validation():
    with pytest.raises(MonitorError):
        ThresholdState(capacity=0, lam=2.0, warmup_min=5)
    with pytest.raises(MonitorError):
        ThresholdState(capacity=30, lam=0.0, warmup_min=5)
    with pytest.raises(MonitorError):
        ThresholdState(capacity=30, lam=2.0, warmup_min=0)


def test_observe_warmup_then_flags():
    state = ThresholdState(capacity=30, lam=2.0, warmup_min=3)
    for ts, score in enumerate([0.1, 0.1, 0.1]):
        row, top = _observe_score(state, ts, score)
        assert row.threshold is None
        assert not row.flagged
        assert top is None
    row, top = _observe_score(state, 3, 0.5)
    assert row.threshold == pytest.approx(0.1)
    assert row.flagged
    assert top == "icr"


def test_observe_threshold_excludes_current_score():
    state = ThresholdState(capacity=30, lam=2.0, warmup_min=1)
    _observe_score(state, 0, 0.1)
    row, _ = _observe_score(state, 1, 0.9)
    assert row.threshold == 0.1
    assert row.flagged
    row, _ = _observe_score(state, 2, 0.9)
    expect = statistics.fmean([0.1, 0.9]) + 2.0 * statistics.stdev([0.1, 0.9])
    assert row.threshold == expect
    assert not row.flagged


def test_observe_flag_is_strict_inequality():
    state = ThresholdState(capacity=30, lam=2.0, warmup_min=2)
    _observe_score(state, 0, 0.2)
    _observe_score(state, 1, 0.2)
    row, top = _observe_score(state, 2, 0.2)
    assert row.threshold == 0.2
    assert not row.flagged
    assert top is None


def test_observe_window_eviction():
    state = ThresholdState(capacity=3, lam=2.0, warmup_min=1)
    for ts in range(10):
        _observe_score(state, ts, float(ts))
    assert state.scores == [7.0, 8.0, 9.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_scores_rejected_before_state_changes(bad):
    state = ThresholdState(capacity=5, lam=2.0, warmup_min=1)
    _observe_score(state, 0, 0.1)
    before = (list(state.scores), state.last_timestamp, update_threshold(state))
    with pytest.raises(MonitorError, match="non-finite"):
        _observe_score(state, 1, bad)
    assert (state.scores, state.last_timestamp) == before[:2]
    assert update_threshold(state) == before[2]
    row, _ = _observe_score(state, 1, 0.1)
    assert row.threshold == 0.1
    with pytest.raises(MonitorError, match="non-finite"):
        ThresholdState(capacity=30, lam=2.0, warmup_min=5, scores=[0.1, bad])
    with pytest.raises(MonitorError, match="non-finite"):
        state.push(bad)
    row = row._replace(score=bad)
    with pytest.raises(MonitorError, match="non-finite"):
        replay_history([row], capacity=DEFAULT_WINDOW, lam=DEFAULT_LAMBDA, warmup_min=1)


def test_observe_rejects_non_monotone_timestamps():
    state = ThresholdState(capacity=30, lam=2.0, warmup_min=5)
    _observe_score(state, 5, 0.1)
    with pytest.raises(MonitorError, match="non-monotone"):
        _observe_score(state, 5, 0.1)
    with pytest.raises(MonitorError, match="non-monotone"):
        _observe_score(state, 4, 0.1)
    _observe_score(state, 6, 0.1)


def test_observe_top_weighted_term_and_tie_order():
    state = ThresholdState(capacity=5, lam=2.0, warmup_min=1)
    _observe_score(state, 0, 0.0)
    w = normalize_weights(2.0, 1.0, 1.0)
    row, top = observe(
        state,
        timestamp=1,
        model="m",
        metrics=_ZERO,
        weights=w,
        delta=_delta(d_icr=0.3, d_ipr=0.5, d_ci=0.1),
    )
    assert row.flagged
    assert top == "icr"  # 0.5*0.3 > 0.25*0.5
    state2 = ThresholdState(capacity=5, lam=2.0, warmup_min=1)
    _observe_score(state2, 0, 0.0)
    _, top2 = observe(
        state2,
        timestamp=1,
        model="m",
        metrics=_ZERO,
        weights=_EQUAL_WEIGHTS,
        delta=_delta(d_icr=0.4, d_ipr=0.4, d_ci=0.4),
    )
    assert top2 == "icr"
    state3 = ThresholdState(capacity=5, lam=2.0, warmup_min=1)
    _observe_score(state3, 0, 0.0)
    _, top3 = observe(
        state3,
        timestamp=1,
        model="m",
        metrics=_ZERO,
        weights=normalize_weights(1.0, 1.0, 1.0, 1.0),
        delta=_delta(d_icr=0.1, d_hal=0.8),
    )
    assert top3 == "hal"


def test_history_row_round_trip(tmp_path):
    path = str(tmp_path / "history.jsonl")
    row = HistoryRow(
        timestamp=3,
        model="gpt",
        batch_id="b1",
        icr=0.5,
        ipr=0.25,
        ci=0.75,
        hal=0.1,
        d_icr=0.3,
        d_ipr=0.0,
        d_ci=0.05,
        score=0.1166,
        threshold=None,
        flagged=False,
        hall_total=8,
        hall_failed=1,
    )
    append_history(path, row)
    append_history(path, baseline_row(3, "b1", MetricVector(icr=0.8, ipr=0.9, ci=0.7)))
    rows = read_history(path)
    assert rows[0] == row
    assert rows[1].model == BASELINE_MODEL
    assert rows[1].threshold is None
    assert rows[1].score == 0.0 and rows[1].flagged is False


_SIDECAR = monitor._TAIL_SUFFIX
_FORMAT = monitor._TAIL_FORMAT


def _last_rows(rows, models, window):
    """The last `window` rows of each of `models` in `rows` (all of a
    model's rows when it has fewer), in the order of `rows`."""
    left = {m: sum(r.model == m for r in rows) for m in models}
    out = []
    for row in rows:
        if row.model in left:
            if left[row.model] <= window:
                out.append(row)
            left[row.model] -= 1
    return out


_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_BLANK_LINES = st.sampled_from(["", "\n", " \n", "\u3000\r\n", "\t\r", "\r\n"])
# Names that JSON escapes, and one that is not ASCII.
_TAIL_MODELS = [BASELINE_MODEL, "a", "few", 'q"\\', "\u00e9\U0001f600"]
_TAIL_ROWS = st.lists(
    st.tuples(
        st.sampled_from(_TAIL_MODELS),
        st.text(
            st.sampled_from("e\u00e9\u20ac\U0001f600\u2028\x85\u3000")
            | st.characters(blacklist_categories=("Cs",)),
            max_size=6,
        ),
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        _BLANK_LINES,
        _LINE_ENDS,
    ),
    max_size=40,
)
# A write cut short: part of a row, and a row cut inside a character.
_TORN_TAILS = st.sampled_from(
    ["", '{"tim', '{"timestamp": 9, "model": "a", "batch_id": "\udcc3']
)
_SIDECAR_STATES = st.sampled_from(
    ["none", "current", "stale", "foreign", "torn", "smaller", "version 1"]
)


def _history_text(rows, items, count):
    """The lines of the first `count` of `items`, whose rows are `rows`."""
    parts = []
    for row, (_, _, _, ascii_only, blank, end) in zip(rows[:count], items):
        parts += [blank, json.dumps(row._asdict(), ensure_ascii=ascii_only), end]
    return "".join(parts)


def _make_sidecar(path, state, data, prefix, foreign, window):
    """Leave the sidecar of the history at `path` in `state`, the history
    holding `data` once done. `prefix` is the part of `data` before any
    sidecar was written, and `foreign` another history."""
    Path(str(path) + _SIDECAR).unlink(missing_ok=True)
    # A row of a model no generated row has, so the file never holds it.
    stale_row = baseline_row(0, "b", _ZERO)._replace(model="stale").to_line()
    source = {
        "current": prefix,
        "torn": prefix,
        "version 1": prefix,
        "smaller": prefix,
        "stale": prefix + stale_row.encode() + b"\n",
        "foreign": foreign,
    }.get(state)
    if source is not None:
        path.write_bytes(source)
        made_window = max(1, window - 1) if state == "smaller" else window
        assert read_history(str(path), ["absent"], made_window) == []
    sidecar = Path(str(path) + _SIDECAR)
    if state == "torn" and sidecar.exists():
        sidecar.write_bytes(sidecar.read_bytes()[:-9])
    elif state == "version 1" and sidecar.exists():
        # The first format: the offsets of each model's rows, not the rows.
        body = json.loads(sidecar.read_bytes()[len(_FORMAT) :])
        body["rows"] = {"a": [0]}
        version_1 = b"kgmon history tail index 1\n"
        sidecar.write_bytes(version_1 + json.dumps(body).encode())
    path.write_bytes(data)


@settings(max_examples=200, deadline=None)
@given(
    items=_TAIL_ROWS,
    window=st.integers(1, 4),
    requested=st.lists(
        st.sampled_from(_TAIL_MODELS[1:] + ["absent"]), min_size=1, unique=True
    ),
    trailing=st.sampled_from(["", "\n", " ", "\u3000", "\t\r\n"]),
    final_newline=st.booleans(),
    torn=_TORN_TAILS,
    split=st.integers(0, 40),
    sidecar=_SIDECAR_STATES,
    # A few bytes puts lines and CRLF pairs across block boundaries; larger
    # blocks put several lines in one decoded run.
    block=st.integers(1, 16) | st.integers(17, 4096),
)
def test_tail_read_matches_full_read(
    tmp_path_factory,
    items,
    window,
    requested,
    trailing,
    final_newline,
    torn,
    split,
    sidecar,
    block,
):
    path = tmp_path_factory.getbasetemp() / "tail_history.jsonl"
    few_left = window - 1  # "few" always has fewer than `window` rows
    kept_items, rows = [], []
    for ts, item in enumerate(items):
        model, batch_id, score = item[:3]
        if model == "few":
            if not few_left:
                continue
            few_left -= 1
        kept_items.append(item)
        row = baseline_row(ts, batch_id, _ZERO)._replace(model=model, score=score)
        rows.append(row)
    text = _history_text(rows, kept_items, len(rows))
    if rows and not final_newline:
        text = text[: -len(kept_items[-1][-1])]
    else:
        text += trailing
    if torn:
        text += "\n" + torn
    data = text.encode("utf-8", "surrogateescape")
    prefix = _history_text(rows, kept_items, split).encode("utf-8")
    others = [r._replace(batch_id=r.batch_id + "x") for r in rows]
    foreign = _history_text(others, kept_items, split).encode("utf-8")

    with mock.patch.object(monitor, "_BLOCK_SIZE", block):
        _make_sidecar(path, sidecar, data, prefix, foreign, window)
        full = read_history(str(path))
        tail = read_history(str(path), requested, window)
        assert full == rows
        assert tail == _last_rows(full, requested, window)
        # The next read, with the sidecar this one left, returns the same
        # rows, and so does one without a sidecar.
        assert read_history(str(path), requested, window) == tail
        Path(str(path) + _SIDECAR).unlink(missing_ok=True)
        assert read_history(str(path), requested, window) == tail
    params = dict(capacity=window, lam=DEFAULT_LAMBDA, warmup_min=DEFAULT_WARMUP)
    for model in requested:
        from_tail = resume_state(tail, model, **params)
        from_full = resume_state(full, model, **params)
        assert from_tail.scores == from_full.scores
        assert from_tail.last_timestamp == from_full.last_timestamp


@pytest.mark.parametrize("block", [7, 1 << 16])
@pytest.mark.parametrize(
    "oldest",
    [
        "not json",
        '{"batch_id": "few", "model": "other"',
        '{"timestamp": 0, "model": "few"',
        '{"model"\t :"few"',
        '{"model": "\\u0066ew"',
        '{"batch_id": "\\u0062"',
    ],
)
def test_tail_read_stops_where_the_last_listed_model_fills(tmp_path, block, oldest):
    path = tmp_path / "history.jsonl"
    old = [baseline_row(ts, "b", _ZERO) for ts in range(3)]
    few = baseline_row(3, "b", _ZERO)._replace(model="few")
    newest = baseline_row(4, "b", _ZERO)
    lines = [oldest, *(r.to_line() for r in old), few.to_line(), newest.to_line()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(monitor, "_BLOCK_SIZE", block):
        assert read_history(str(path), [], 3) == []
        # The read ends at the line where the last listed model fills, so
        # the malformed oldest line is not read.
        assert read_history(str(path), ["few"], 1) == [few]
        assert read_history(str(path), [BASELINE_MODEL], 4) == [*old, newest]
        # "few" has one row of the three wanted: the read goes on to the
        # start of the file and meets the oldest line.
        with pytest.raises(MonitorError, match="bad history line"):
            read_history(str(path), ["few", "absent"], 3)
        with pytest.raises(MonitorError, match="bad history line"):
            read_history(str(path))


def test_tail_read_keeps_no_bytes_it_passes_over(tmp_path):
    path = tmp_path / "history.jsonl"
    line = (baseline_row(0, "b", _ZERO).to_line() + "\n").encode("utf-8")
    path.write_bytes(line * (64 * monitor._BLOCK_SIZE // len(line) + 1))
    tracemalloc.start()
    try:
        assert read_history(str(path), ["absent"], 30) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * monitor._BLOCK_SIZE


class _ReadSizes:
    """A binary file that records the size of every read."""

    def __init__(self, fh):
        self.fh = fh
        self.sizes = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def seek(self, *args):
        return self.fh.seek(*args)

    def read(self, size=-1):
        data = self.fh.read(size)
        self.sizes.append(len(data))
        return data


def _read_without_index(path, models, window):
    """The tail read of a copy of the history at `path` with no sidecar."""
    copy = path.with_name("copy-" + path.name)
    copy.write_bytes(path.read_bytes())
    Path(str(copy) + _SIDECAR).unlink(missing_ok=True)
    return read_history(str(copy), models, window)


_GROWTH = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.sampled_from([BASELINE_MODEL, "a", "b", "few"]),
                _BLANK_LINES,
                _LINE_ENDS,
            ),
            max_size=8,
        ),
        st.lists(
            st.sampled_from(["a", "b", "few", "absent"]), min_size=1, unique=True
        ),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(growth=_GROWTH, block=st.integers(1, 16) | st.integers(17, 4096))
def test_tail_reads_of_a_growing_history_match_reads_without_index(
    tmp_path_factory, growth, block
):
    # Appends, each followed by a tail read that may write or rewrite the
    # sidecar. A row ended by \r and a blank \n line appended after it put
    # the index's prefix end inside a CRLF pair; a few-byte block makes
    # each read that uses the index rewrite it.
    path = tmp_path_factory.mktemp("growing") / "history.jsonl"
    ts = 0
    with mock.patch.object(monitor, "_BLOCK_SIZE", block):
        for appended, requested, window in growth:
            parts = []
            for model, blank, end in appended:
                row = baseline_row(ts, "b", _ZERO)._replace(model=model)
                parts += [blank, row.to_line(), end]
                ts += 1
            with open(path, "ab") as fh:
                fh.write("".join(parts).encode("utf-8"))
            tail = read_history(str(path), requested, window)
            assert tail == _read_without_index(path, requested, window)
            assert tail == _last_rows(read_history(str(path)), requested, window)


def _model_at(ts):
    return "few" if ts in (3, 5) else "b" if ts % 3 == 0 else "a"


def _history_rows(start, stop):
    return [
        baseline_row(ts, "b", _ZERO)._replace(model=_model_at(ts), score=ts / 7)
        for ts in range(start, stop)
    ]


def _write_rows(path, rows, mode="w"):
    with open(path, mode, encoding="utf-8") as fh:
        fh.writelines(r.to_line() + "\n" for r in rows)


def _truncate_at_a_line(path, _tmp_path):
    data = path.read_bytes()
    path.write_bytes(data[: data.index(b"\n", len(data) // 2) + 1])


def _rewrite_before_the_prefix_end(path, _tmp_path):
    # Another model on one old row, and rows after it.
    data = path.read_bytes().replace(b'"model": "a"', b'"model": "c"', 1)
    path.write_bytes(data)
    _write_rows(path, _history_rows(60, 70), "a")


def _append_as_an_older_kgmon(path, _tmp_path):
    _write_rows(path, _history_rows(60, 90), "a")


def _replace_sidecar(content):
    def damage(path, _tmp_path):
        Path(str(path) + _SIDECAR).write_bytes(content)

    return damage


def _tear_sidecar(path, _tmp_path):
    sidecar = Path(str(path) + _SIDECAR)
    sidecar.write_bytes(sidecar.read_bytes()[:-9])


def _copy_a_foreign_sidecar(path, tmp_path):
    other = tmp_path / "other.jsonl"
    _write_rows(other, [r._replace(batch_id="x") for r in _history_rows(0, 70)])
    read_history(str(other), ["absent"], 3)
    Path(str(path) + _SIDECAR).write_bytes(Path(str(other) + _SIDECAR).read_bytes())


def _drop_sidecar(path, _tmp_path):
    Path(str(path) + _SIDECAR).unlink()


def _sidecar(path):
    return json.loads(Path(str(path) + _SIDECAR).read_bytes()[len(_FORMAT) :])


def _forge_sidecar_rows(change):
    """A damage that rewrites the rows of the current sidecar by `change`,
    the digest and length left as they were."""

    def damage(path, _tmp_path):
        payload = _sidecar(path)
        payload["rows"] = change(payload["rows"])
        Path(str(path) + _SIDECAR).write_bytes(_FORMAT + json.dumps(payload).encode())

    return damage


def _as_version_1(path, _tmp_path):
    payload = _sidecar(path)
    payload["rows"] = {"few": [0]}
    Path(str(path) + _SIDECAR).write_bytes(
        b"kgmon history tail index 1\n" + json.dumps(payload).encode()
    )


@pytest.mark.parametrize(
    "damage",
    [
        _drop_sidecar,
        _replace_sidecar(b""),
        _tear_sidecar,
        _replace_sidecar(b"\x00\xff not an index"),
        _replace_sidecar(_FORMAT + b"[]"),
        _replace_sidecar(_FORMAT + b'{"length": "0"}'),
        _replace_sidecar(
            _FORMAT
            + b'{"length": 9, "sha256": "", "window": 3, "rows": {"a": [5, 2]}}'
        ),
        _copy_a_foreign_sidecar,
        _truncate_at_a_line,
        _rewrite_before_the_prefix_end,
        _append_as_an_older_kgmon,
        _as_version_1,
        # A row that is not a list of the 15 field values, or of wrong types.
        pytest.param(
            _forge_sidecar_rows(lambda rows: rows[:1] + [rows[1][:-1]]), id="short-row"
        ),
        pytest.param(
            _forge_sidecar_rows(lambda rows: rows + [{"model": "few"}]), id="keyed-row"
        ),
        pytest.param(
            _forge_sidecar_rows(lambda rows: [[str(rows[0][0]), *rows[0][1:]]]),
            id="string-timestamp",
        ),
        pytest.param(
            _forge_sidecar_rows(lambda rows: [rows[0][:12] + [0] + rows[0][13:]]),
            id="int-flag",
        ),
    ],
)
@pytest.mark.parametrize("requested", [["few", "absent"], ["a", "few"], ["c"]])
def test_tail_read_with_a_stale_or_damaged_index(
    tmp_path, monkeypatch, damage, requested
):
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    _write_rows(path, _history_rows(0, 60))
    assert read_history(str(path), ["absent"], 3) == []
    assert Path(str(path) + _SIDECAR).exists()
    damage(path, tmp_path)
    tail = read_history(str(path), requested, 3)
    assert tail == _last_rows(read_history(str(path)), requested, 3)
    # The read left a sidecar of the current format, and the next read,
    # with it, returns the same rows.
    assert Path(str(path) + _SIDECAR).read_bytes().startswith(_FORMAT)
    assert read_history(str(path), requested, 3) == tail
    Path(str(path) + _SIDECAR).unlink()
    assert read_history(str(path), requested, 3) == tail


def test_tail_read_with_a_current_index_checks_the_lines_it_reads(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    _write_rows(path, _history_rows(0, 60))
    assert read_history(str(path), ["absent"], 3) == []
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("not json\n")
    _write_rows(path, [r for r in _history_rows(60, 70) if r.model != "few"], "a")
    with pytest.raises(MonitorError, match="bad history line"):
        read_history(str(path), ["few", "absent"], 3)
    Path(str(path) + _SIDECAR).unlink()
    with pytest.raises(MonitorError, match="bad history line"):
        read_history(str(path), ["few", "absent"], 3)


def test_tail_read_rewrites_the_index_a_block_past_its_prefix(tmp_path, monkeypatch):
    # A read that used the index rewrites it once the history has grown a
    # block past its prefix, also when no listed model is short after it.
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    _write_rows(path, _history_rows(0, 60))
    assert read_history(str(path), ["absent"], 3) == []
    length = _sidecar(path)["length"]
    assert length == path.stat().st_size
    _write_rows(path, [baseline_row(60, "b", _ZERO)], "a")
    few = [r for r in _history_rows(0, 60) if r.model == "few"]
    assert read_history(str(path), ["few"], 3) == few
    assert _sidecar(path)["length"] == length
    _write_rows(path, [baseline_row(ts, "b", _ZERO) for ts in range(61, 70)], "a")
    assert path.stat().st_size - length >= 1024
    rows = read_history(str(path))
    assert read_history(str(path), ["few"], 2) == _last_rows(rows, ["few"], 2)
    assert _sidecar(path) == {
        "length": path.stat().st_size,
        "sha256": _sidecar(path)["sha256"],
        "window": 2,
        "rows": [list(r) for r in _last_rows(rows, ["a", "b", "few", "GT"], 2)],
    }


def test_tail_read_when_other_rows_show_a_short_models_name(tmp_path, monkeypatch):
    # Newer rows of "a" and "b" show "few" as the model of a nested object:
    # only the rows whose own model is "few" are taken.
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    rows = _history_rows(0, 60)
    path.write_text(
        "".join(
            json.dumps({**r._asdict(), "meta": {"model": "few"}}) + "\n"
            if r.timestamp >= 30
            else r.to_line() + "\n"
            for r in rows
        ),
        encoding="utf-8",
    )
    for _ in range(2):
        assert read_history(str(path), ["few", "absent"], 3) == [rows[3], rows[5]]
    assert read_history(str(path), ["a", "few"], 3) == [
        rows[3], rows[5], *_last_rows(rows, ["a"], 3)
    ]


def test_tail_read_of_a_row_that_shows_another_name_after_its_own(
    tmp_path, monkeypatch
):
    # The oldest row of "few" ends in a nested object that shows "z".
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    rows = _history_rows(0, 60)
    path.write_text(
        "".join(
            json.dumps({**r._asdict(), "meta": {"model": "z"}}) + "\n"
            if r is rows[3]
            else r.to_line() + "\n"
            for r in rows
        ),
        encoding="utf-8",
    )
    for _ in range(2):
        assert read_history(str(path), ["few", "absent"], 3) == [rows[3], rows[5]]
        assert read_history(str(path), ["z"], 3) == []


def test_tail_read_with_an_index_built_for_a_smaller_window(tmp_path, monkeypatch):
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    _write_rows(path, _history_rows(0, 60))
    assert read_history(str(path), ["absent"], 2) == []
    _write_rows(path, _history_rows(60, 62), "a")
    # "a" has one row past the index's prefix, which holds only two of its
    # older ones: the index is not used, and is rewritten for 9.
    tail = read_history(str(path), ["a", "absent"], 9)
    assert tail == _last_rows(read_history(str(path)), ["a"], 9)
    assert _sidecar(path)["window"] == 9
    Path(str(path) + _SIDECAR).unlink()
    assert read_history(str(path), ["a", "absent"], 9) == tail


def test_tail_read_when_the_index_cannot_be_written(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    rows = _history_rows(0, 60)
    _write_rows(path, rows)

    def disk_full(*_args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(monitor, "write_atomic", disk_full)
    with caplog.at_level("DEBUG", logger="kgmon.monitor"):
        assert read_history(str(path), ["few", "absent"], 3) == [rows[3], rows[5]]
    assert f"history tail index {path}{_SIDECAR} not written" in caplog.text
    assert not Path(str(path) + _SIDECAR).exists()


def test_tail_read_with_a_current_index_reads_no_older_line(tmp_path, monkeypatch):
    # The index cannot see an edit that keeps the history's length more
    # than _TAIL_SPAN bytes before its prefix ends. A read with the index
    # takes the rows it holds and reads no older line, so a line made
    # malformed that way fails only a read without the index.
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    rows = _history_rows(0, 3 * monitor._TAIL_SPAN // 250)
    _write_rows(path, rows)
    assert read_history(str(path), ["absent"], 3) == []
    data = path.read_bytes()
    bad = b'{"model": "\\u0061"'
    first_end = data.index(b"\n")
    path.write_bytes(bad + b" " * (first_end - len(bad)) + data[first_end:])
    assert read_history(str(path), ["few", "absent"], 3) == [rows[3], rows[5]]
    Path(str(path) + _SIDECAR).unlink()
    with pytest.raises(MonitorError, match="bad history line"):
        read_history(str(path), ["few", "absent"], 3)


def test_tail_read_with_a_current_index_reads_a_bounded_span(tmp_path, monkeypatch):
    line = (baseline_row(0, "b", _ZERO).to_line() + "\n").encode("utf-8")
    for blocks in (64, 256):
        path = tmp_path / f"history{blocks}.jsonl"
        path.write_bytes(line * (blocks * monitor._BLOCK_SIZE // len(line) + 1))
        # The first read parses the whole file and writes the index.
        assert read_history(str(path), ["absent"], 30) == []
        opened = []

        def recording_open(*args):
            opened.append(_ReadSizes(open(*args)))
            return opened[-1]

        with monkeypatch.context() as patch:
            patch.setattr(monitor, "open", recording_open, raising=False)
            assert read_history(str(path), ["absent"], 30) == []
        # The index holds the file's one model's last 30 rows.
        index_size = Path(str(path) + _SIDECAR).stat().st_size
        assert index_size < 30 * len(line) and opened[1].sizes == [index_size]
        # One block from the end, the sidecar, and the span it hashes.
        read = sum(sum(fh.sizes) for fh in opened)
        assert read <= monitor._BLOCK_SIZE + index_size + monitor._TAIL_SPAN


def test_full_windows_and_full_reads_touch_no_sidecar(tmp_path, monkeypatch):
    monkeypatch.setattr(monitor, "_BLOCK_SIZE", 1024)
    path = tmp_path / "history.jsonl"
    rows = _history_rows(0, 60)
    _write_rows(path, rows)
    small = tmp_path / "small.jsonl"
    _write_rows(small, rows[:2])
    opened = []
    parsed = []

    def recording_open(*args):
        opened.append(args[0])
        return open(*args)

    def counting_parse(line):
        parsed.append(line)
        return parse_history_line(line)

    monkeypatch.setattr(monitor, "open", recording_open, raising=False)
    monkeypatch.setattr(monitor, "parse_history_line", counting_parse)
    # Two rows of "a" lie in the newest block: the read stops there, and
    # parses each row it returns once.
    assert read_history(str(path), ["a"], 2) == rows[-2:]
    assert len(parsed) == 2
    assert read_history(str(path)) == rows
    # A history smaller than one block, with a short model.
    assert read_history(str(small), ["a", "absent"], 3) == rows[1:2]
    assert opened == [str(path)] * 2 + [str(small)]
    assert not Path(str(path) + _SIDECAR).exists()
    assert not Path(str(small) + _SIDECAR).exists()


def _torn_history(path, models, final):
    """Whole rows of `models`, one per timestamp, then the bytes `final`."""
    rows = [
        baseline_row(ts, "b\u00e9", _ZERO)._replace(model=model)
        for ts, model in enumerate(models)
    ]
    whole = "".join(
        json.dumps(r._asdict(), ensure_ascii=False) + "\n" for r in rows
    ).encode("utf-8")
    path.write_bytes(whole + final)
    return rows, whole


# A write cut short: the first 60 bytes of a row, a row cut inside a
# two-byte character, and a lone fragment of punctuation.
_TORN_ENDS = [
    baseline_row(9, "b", _ZERO).to_line().encode("utf-8")[:60],
    '{"timestamp": 9, "model": "a", "batch_id": "\u00e9'.encode("utf-8")[:-1],
    b'{"tim',
]


@pytest.mark.parametrize("block", [5, 1 << 16])
@pytest.mark.parametrize("final", _TORN_ENDS)
def test_torn_last_line_is_dropped_with_a_warning(tmp_path, caplog, block, final):
    path = tmp_path / "history.jsonl"
    rows, _ = _torn_history(path, ["a", BASELINE_MODEL, "a", "b"], final)
    with mock.patch.object(monitor, "_BLOCK_SIZE", block):
        with caplog.at_level("WARNING", logger="kgmon.monitor"):
            assert read_history(str(path)) == rows
            assert read_history(str(path), ["a"], 1) == rows[2:3]
            assert read_history(str(path), ["a", "b"], 5) == [rows[0], *rows[2:]]
    warnings = [r.getMessage() for r in caplog.records]
    assert len(warnings) == 3
    assert all(f"history {path}: dropping a torn last line" in w for w in warnings)


@pytest.mark.parametrize("final", _TORN_ENDS)
def test_torn_line_before_the_last_still_raises(tmp_path, final):
    path = tmp_path / "history.jsonl"
    rows, whole = _torn_history(path, ["a", "a"], b"")
    path.write_bytes(whole + final + b"\n" + rows[1].to_line().encode() + b"\n")
    with pytest.raises((MonitorError, monitor.UndecodableFileError)):
        read_history(str(path))
    with pytest.raises((MonitorError, monitor.UndecodableFileError)):
        read_history(str(path), ["a"], 5)


def test_unterminated_last_row_is_kept(tmp_path, caplog):
    path = tmp_path / "history.jsonl"
    rows, whole = _torn_history(path, ["a", "b"], b"")
    path.write_bytes(whole.rstrip(b"\n"))
    with caplog.at_level("WARNING", logger="kgmon.monitor"):
        assert read_history(str(path)) == rows
        assert read_history(str(path), ["b"], 1) == rows[1:]
        newest = baseline_row(7, "b", _ZERO)
        append_history(str(path), newest)
    assert not caplog.records
    assert path.read_bytes() == whole + newest.to_line().encode() + b"\n"


@pytest.mark.parametrize("final", _TORN_ENDS)
def test_append_after_a_torn_line_starts_on_the_last_whole_row(tmp_path, final):
    path = tmp_path / "history.jsonl"
    rows, whole = _torn_history(path, ["a", "b"], final)
    newest = [baseline_row(7, "b", _ZERO), baseline_row(8, "b", _ZERO)]
    append_history(str(path), *newest)
    assert path.read_bytes() == whole + b"".join(
        r.to_line().encode() + b"\n" for r in newest
    )
    assert read_history(str(path)) == rows + newest


def test_append_closes_the_history_when_its_end_cannot_be_read(
    tmp_path, monkeypatch
):
    path = tmp_path / "history.jsonl"
    path.write_bytes(baseline_row(1, "b", _ZERO).to_line().encode())
    opened = []

    def recording_open(*args):
        opened.append(open(*args))
        return opened[-1]

    def unreadable(*_args):
        raise OSError("read failed")

    monkeypatch.setattr(monitor, "open", recording_open, raising=False)
    monkeypatch.setattr(monitor, "_runs_backward", unreadable)
    before = path.read_bytes()
    with pytest.raises(OSError, match="read failed"):
        append_history(str(path), baseline_row(2, "b", _ZERO))
    assert [fh.closed for fh in opened] == [True]
    assert path.read_bytes() == before


def test_append_to_an_undamaged_history_only_appends(tmp_path):
    path = tmp_path / "history.jsonl"
    rows = [baseline_row(ts, "b", _ZERO) for ts in range(3)]
    append_history(str(path), rows[0])
    append_history(str(path), *rows[1:])
    assert path.read_bytes() == b"".join(r.to_line().encode() + b"\n" for r in rows)


# The keys of a history line, in wire order.
_WIRE_FIELDS = (
    "timestamp", "model", "batch_id", "icr", "ipr", "ci", "hal", "d_icr",
    "d_ipr", "d_ci", "score", "threshold", "flagged", "hall_total", "hall_failed",
)


def test_history_line_key_order_fixed():
    row = baseline_row(1, "b", MetricVector(icr=0.0, ipr=0.0, ci=0.0))
    assert tuple(json.loads(row.to_line())) == _WIRE_FIELDS


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.builds(
        HistoryRow,
        timestamp=st.integers(0, 2**63),
        model=st.text(),
        batch_id=st.text(),
        icr=_finite,
        ipr=_finite,
        ci=_finite,
        hal=st.none() | _finite,
        d_icr=_finite,
        d_ipr=_finite,
        d_ci=_finite,
        score=_finite,
        threshold=st.none() | _finite,
        flagged=st.booleans(),
        hall_total=st.integers(0, 10**6),
        hall_failed=st.integers(0, 10**6),
    )
)
@example(
    HistoryRow(1, "gpt-\u00e9\u2028\U0001f600", "b\x85", 0.5, 0.25, 0.0, None,
               -0.0, 1e-300, 2.5, 0.1, None, True, 3, 1)
)
def test_to_line_bytes_equal_the_per_field_dump(row):
    # The line as it was built field by field with getattr, before rows
    # were tuples; the wire format must not move.
    old = json.dumps({name: getattr(row, name) for name in _WIRE_FIELDS})
    assert row.to_line().encode("utf-8") == old.encode("utf-8")
    assert parse_history_line(row.to_line()) == row


def test_parse_history_line_errors():
    with pytest.raises(MonitorError, match="bad history line"):
        parse_history_line("{not json")
    with pytest.raises(MonitorError, match="not a key-value"):
        parse_history_line("[1, 2]")
    with pytest.raises(MonitorError, match="missing fields"):
        parse_history_line('{"timestamp": 1}')
    full = json.loads(baseline_row(1, "b", _ZERO).to_line())
    del full["score"], full["hall_total"]
    with pytest.raises(
        MonitorError, match=r"^history line missing fields: score, hall_total$"
    ):
        parse_history_line(json.dumps(full))


@pytest.mark.parametrize(
    "field, value",
    [
        ("timestamp", 1.0),
        ("timestamp", True),
        ("model", 7),
        ("batch_id", None),
        ("score", "0.5"),
        ("score", False),
        ("icr", "1"),
        ("d_ci", None),
        ("hal", "0.1"),
        ("threshold", True),
        ("flagged", 0),
        ("hall_total", 2.0),
        ("hall_failed", False),
    ],
)
def test_parse_history_line_rejects_ill_typed_fields(field, value):
    payload = json.loads(baseline_row(1, "b", _ZERO).to_line())
    payload[field] = value
    with pytest.raises(MonitorError, match="^bad history line: a field has the wrong"):
        parse_history_line(json.dumps(payload))


def test_parse_history_line_accepts_ints_and_nulls_for_numbers():
    payload = json.loads(baseline_row(1, "b", _ZERO).to_line())
    payload.update(icr=1, score=0, hal=None, threshold=2)
    row = parse_history_line(json.dumps(payload))
    assert (row.icr, row.score, row.hal, row.threshold) == (1, 0, None, 2)


def test_parse_history_line_maps_every_field_by_name():
    # parse_history_line builds the row positionally; give every field a
    # distinct value of its type so a field-order mismatch cannot go unnoticed.
    values = {name: i for i, name in enumerate(HistoryRow._fields)}
    values.update(model="m", batch_id="b", icr=3.5, flagged=True)
    shuffled = dict(sorted(values.items(), reverse=True))
    row = parse_history_line(json.dumps({**shuffled, "extra": "ignored"}))
    assert row._asdict() == values


def test_observe_row_copies_fields():
    state = ThresholdState(capacity=30, lam=2.0, warmup_min=1)
    weights = normalize_weights(1.0, 1.0, 1.0, 1.0)
    metrics = MetricVector(icr=0.3, ipr=0.2, ci=0.1, hal=0.5)
    delta = _delta(d_icr=0.0625, d_ipr=0.125, d_ci=0.03125, d_hal=0.25)
    row, top = observe(
        state,
        timestamp=9,
        model="gpt",
        metrics=metrics,
        weights=weights,
        batch_id="b9",
        delta=delta,
        hall_total=4,
        hall_failed=2,
    )
    first_score = anomaly_score(delta, weights)
    assert row == HistoryRow(
        timestamp=9,
        model="gpt",
        batch_id="b9",
        icr=0.3,
        ipr=0.2,
        ci=0.1,
        hal=0.5,
        d_icr=0.0625,
        d_ipr=0.125,
        d_ci=0.03125,
        score=first_score,
        threshold=None,
        flagged=False,
        hall_total=4,
        hall_failed=2,
    )
    assert top is None
    # The row carries the caller's delta of the metrics against a
    # baseline, and the threshold is the first score alone.
    base = MetricVector(icr=0.9, ipr=0.25, ci=0.125, hal=0.375)
    computed = metric_delta(metrics, base)
    row, top = observe(
        state,
        timestamp=10,
        model="gpt",
        metrics=metrics,
        delta=computed,
        weights=weights,
        batch_id="b10",
        hall_total=5,
        hall_failed=3,
    )
    assert (row.d_icr, row.d_ipr, row.d_ci) == (
        computed.icr,
        computed.ipr,
        computed.ci,
    )
    assert row.score == anomaly_score(computed, weights)
    assert row.threshold == first_score
    assert row.flagged and top == "icr"
    assert (row.timestamp, row.batch_id, row.hal) == (10, "b10", 0.5)
    assert (row.hall_total, row.hall_failed) == (5, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_observe_names_top_term_only_on_flagged_rows(deltas):
    state = ThresholdState(capacity=5, lam=1.0, warmup_min=2)
    weights = normalize_weights(1.0, 2.0, 3.0)
    for ts, (d_icr, d_ipr, d_ci) in enumerate(deltas):
        row, top = observe(
            state,
            timestamp=ts,
            model="m",
            metrics=_ZERO,
            weights=weights,
            delta=_delta(d_icr, d_ipr, d_ci),
        )
        assert (top is None) == (not row.flagged)
        assert top in (None, "icr", "ipr", "ci")


def test_replay_reproduces_thresholds_bit_exact(tmp_path):
    rng = random.Random(13)
    path = str(tmp_path / "history.jsonl")
    state_by_model = {
        "alpha": ThresholdState(capacity=7, lam=2.0, warmup_min=3),
        "beta": ThresholdState(capacity=7, lam=2.0, warmup_min=3),
    }
    for ts in range(60):
        append_history(
            path, baseline_row(ts, f"b{ts}", MetricVector(icr=1.0, ipr=1.0, ci=1.0))
        )
        for model, state in sorted(state_by_model.items()):
            d = _delta(d_icr=rng.random(), d_ipr=rng.random(), d_ci=rng.random())
            row, _ = observe(
                state,
                timestamp=ts,
                model=model,
                metrics=_ZERO,
                weights=_EQUAL_WEIGHTS,
                batch_id=f"b{ts}",
                delta=d,
            )
            append_history(path, row)
    rows = read_history(path)
    replayed = replay_history(rows, capacity=7, lam=2.0, warmup_min=3)
    assert len(replayed) == 120
    for row, threshold, flagged in replayed:
        assert threshold == row.threshold
        assert flagged == row.flagged


def test_replay_skips_baseline_rows():
    rows = [
        baseline_row(0, "b", MetricVector(icr=1.0, ipr=1.0, ci=1.0)),
        baseline_row(1, "b", MetricVector(icr=1.0, ipr=1.0, ci=1.0)),
    ]
    assert (
        replay_history(
            rows, capacity=DEFAULT_WINDOW, lam=DEFAULT_LAMBDA, warmup_min=DEFAULT_WARMUP
        )
        == []
    )


def test_observe_score_reconstruction_identity():
    # The scored delta written to history must reproduce the score exactly:
    # score == w_icr*d_icr + w_ipr*d_ipr + w_ci*d_ci under the same floats.
    rng = random.Random(31)
    state = ThresholdState(capacity=50, lam=2.0, warmup_min=2)
    for ts in range(200):
        d = _delta(d_icr=rng.random(), d_ipr=rng.random(), d_ci=rng.random())
        row, _ = observe(
            state,
            timestamp=ts,
            model="m",
            metrics=_ZERO,
            weights=_EQUAL_WEIGHTS,
            delta=d,
        )
        again = anomaly_score(_delta(row.d_icr, row.d_ipr, row.d_ci), _EQUAL_WEIGHTS)
        assert again == row.score
