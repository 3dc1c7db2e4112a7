import json
import math
import random
import statistics
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kgmon import monitor
from kgmon.cli import RunConfig, _bootstrap_state
from kgmon.metrics import MetricDelta, MetricVector, metric_delta
from kgmon.monitor import (
    BASELINE_MODEL,
    DEFAULT_WEIGHTS,
    AnomalyWeights,
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
    update_threshold,
)

_ZERO = MetricVector(icr=0.0, ipr=0.0, ci=0.0)


def _delta(d_icr=0.0, d_ipr=0.0, d_ci=0.0, d_hal=None):
    return MetricDelta(d_icr=d_icr, d_ipr=d_ipr, d_ci=d_ci, d_hal=d_hal)


_W_ICR_ONLY = normalize_weights(1.0, 0.0, 0.0)


def _observe_score(state, ts, score):
    # A pure-ICR delta under unit weight carries the score through exactly.
    return observe(
        state,
        timestamp=ts,
        model="m",
        metrics=_ZERO,
        baseline_metrics=_ZERO,
        weights=_W_ICR_ONLY,
        delta=_delta(d_icr=score),
    )


def test_normalize_weights():
    w = normalize_weights(1.0, 1.0, 2.0)
    assert (w.w_icr, w.w_ipr, w.w_ci) == (0.25, 0.25, 0.5)
    assert w.w_hal is None
    w = normalize_weights(1.0, 1.0, 1.0, 1.0)
    assert w == AnomalyWeights(0.25, 0.25, 0.25, 0.25)
    assert DEFAULT_WEIGHTS.w_icr == pytest.approx(1 / 3)
    with pytest.raises(MonitorError, match="nonnegative"):
        normalize_weights(-0.1, 1.0, 1.0)
    with pytest.raises(MonitorError, match="positive"):
        normalize_weights(0.0, 0.0, 0.0)


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
    expected = (w.w_icr * d[0] + w.w_ipr * d[1]) + w.w_ci * d[2]
    if w.w_hal is not None:
        expected = expected + w.w_hal * d[3]
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


# Finite doubles with |x| <= 1e6, weighted toward the cases the exact sums
# must get right: zeros of both signs, subnormals, and repeated values.
_SCORES = st.one_of(
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
        ThresholdState(capacity=0)
    with pytest.raises(MonitorError):
        ThresholdState(lam=0.0)
    with pytest.raises(MonitorError):
        ThresholdState(warmup_min=0)


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
        ThresholdState(scores=[0.1, bad])
    with pytest.raises(MonitorError, match="non-finite"):
        state.push(bad)
    row = row._replace(score=bad)
    with pytest.raises(MonitorError, match="non-finite"):
        replay_history([row], warmup_min=1)


def test_observe_rejects_non_monotone_timestamps():
    state = ThresholdState()
    _observe_score(state, 5, 0.1)
    with pytest.raises(MonitorError, match="non-monotone"):
        _observe_score(state, 5, 0.1)
    with pytest.raises(MonitorError, match="non-monotone"):
        _observe_score(state, 4, 0.1)
    _observe_score(state, 6, 0.1)


def test_observe_computes_delta_when_missing():
    state = ThresholdState(warmup_min=1)
    metrics = MetricVector(icr=0.2, ipr=0.4, ci=0.6)
    base = MetricVector(icr=0.5, ipr=0.4, ci=0.1)
    row, _ = observe(
        state,
        timestamp=0,
        model="m",
        metrics=metrics,
        baseline_metrics=base,
        weights=DEFAULT_WEIGHTS,
    )
    assert row.d_icr == pytest.approx(0.3)
    assert row.d_ipr == 0.0
    assert row.d_ci == pytest.approx(0.5)


def test_observe_top_weighted_term_and_tie_order():
    state = ThresholdState(capacity=5, lam=2.0, warmup_min=1)
    _observe_score(state, 0, 0.0)
    w = normalize_weights(2.0, 1.0, 1.0)
    row, top = observe(
        state,
        timestamp=1,
        model="m",
        metrics=_ZERO,
        baseline_metrics=_ZERO,
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
        baseline_metrics=_ZERO,
        weights=DEFAULT_WEIGHTS,
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
        baseline_metrics=_ZERO,
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


def _read_history_forward(path):
    """The whole-file read written out: text mode, front to back."""
    with open(path, encoding="utf-8") as fh:
        return [parse_history_line(line) for line in fh if line.strip()]


_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_BLANK_LINES = st.sampled_from(["", "\n", " \n", "\u3000\r\n", "\t\r", "\r\n"])
_TAIL_ROWS = st.lists(
    st.tuples(
        st.sampled_from([BASELINE_MODEL, "a", "b", "few"]),
        st.text(
            st.sampled_from("e\u00e9\u20ac\U0001f600\u2028\x85\u3000")
            | st.characters(blacklist_categories=("Cs",)),
            max_size=6,
        ),
        st.floats(allow_nan=False, allow_infinity=False),
        _BLANK_LINES,
        _LINE_ENDS,
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    items=_TAIL_ROWS,
    window=st.integers(1, 4),
    requested=st.lists(
        st.sampled_from(["a", "b", "few", "absent"]), min_size=1, unique=True
    ),
    trailing=st.sampled_from(["", "\n", " ", "\u3000", "\t\r\n"]),
    final_newline=st.booleans(),
    # A few bytes puts lines and CRLF pairs across block boundaries; larger
    # blocks put several lines in one decoded run.
    block=st.integers(1, 16) | st.integers(17, 4096),
)
def test_tail_read_matches_full_read(
    tmp_path_factory, items, window, requested, trailing, final_newline, block
):
    path = tmp_path_factory.getbasetemp() / "tail_history.jsonl"
    parts = []
    few_left = window - 1  # "few" always has fewer than `window` rows
    for ts, (model, batch_id, score, blank, end) in enumerate(items):
        if model == "few":
            if not few_left:
                continue
            few_left -= 1
        row = baseline_row(ts, batch_id, _ZERO)._replace(model=model, score=score)
        # ensure_ascii=False puts multi-byte UTF-8 into the file, and raw
        # U+2028 and U+0085, at which text mode does not split.
        line = json.dumps(row._asdict(), ensure_ascii=False)
        parts += [blank, line, end]
    if parts and not final_newline:
        parts.pop()
    else:
        parts.append(trailing)
    path.write_bytes("".join(parts).encode("utf-8"))

    with mock.patch.object(monitor, "_BLOCK_SIZE", block):
        full = read_history(str(path))
        tail = read_history(str(path), requested, window)
    assert full == _read_history_forward(path)
    assert tail == full[len(full) - len(tail) :]

    need = {m: min(window, sum(r.model == m for r in full)) for m in requested}

    def holds(rows):
        return all(sum(r.model == m for r in rows) >= need[m] for m in requested)

    assert holds(tail) and (not tail or not holds(tail[1:]))
    config = RunConfig(
        ontology="",
        dictionary="",
        rules="",
        history=str(path),
        models=requested,
        weights=DEFAULT_WEIGHTS,
        window=window,
    )
    for model in requested:
        from_tail = _bootstrap_state(tail, model, config)
        from_full = _bootstrap_state(full, model, config)
        assert from_tail.scores == from_full.scores
        assert from_tail.last_timestamp == from_full.last_timestamp


@pytest.mark.parametrize("block", [7, 1 << 16])
@pytest.mark.parametrize(
    "oldest, parsed",
    [
        ("not json", False),
        ('{"batch_id": "few", "model": "other"', False),
        # Lines that may hold a row of "few" are parsed, in any spacing,
        # and so is any line with a backslash: it may hide the name.
        ('{"timestamp": 0, "model": "few"', True),
        ('{"model"\t :"few"', True),
        ('{"model": "\\u0066ew"', True),
        ('{"batch_id": "\\u0062"', True),
    ],
)
def test_tail_read_passes_over_old_lines_of_other_models(
    tmp_path, block, oldest, parsed
):
    path = tmp_path / "history.jsonl"
    old = [baseline_row(ts, "b", _ZERO) for ts in range(3)]
    few = baseline_row(3, "b", _ZERO)._replace(model="few")
    newest = baseline_row(4, "b", _ZERO)
    lines = [oldest, *(r.to_line() for r in old), few.to_line(), newest.to_line()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with mock.patch.object(monitor, "_BLOCK_SIZE", block):
        assert read_history(str(path), [], 3) == []
        # "few" has one row of the three wanted and "absent" none, so the
        # suffix starts at few's row.
        if parsed:
            with pytest.raises(MonitorError, match="bad history line"):
                read_history(str(path), ["few", "absent"], 3)
        else:
            assert read_history(str(path), ["few", "absent"], 3) == [few, newest]
        with pytest.raises(MonitorError, match="bad history line"):
            read_history(str(path))


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
            assert read_history(str(path), ["a"], 1) == rows[2:]
            assert read_history(str(path), ["a", "b"], 5) == rows
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
    state = ThresholdState(warmup_min=1)
    weights = normalize_weights(1.0, 1.0, 1.0, 1.0)
    metrics = MetricVector(icr=0.3, ipr=0.2, ci=0.1, hal=0.5)
    delta = _delta(d_icr=0.0625, d_ipr=0.125, d_ci=0.03125, d_hal=0.25)
    row, top = observe(
        state,
        timestamp=9,
        model="gpt",
        metrics=metrics,
        baseline_metrics=MetricVector(icr=0.9, ipr=0.8, ci=0.7),
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
    # Without an override the row carries the computed delta, and the
    # threshold is the first score alone.
    base = MetricVector(icr=0.9, ipr=0.25, ci=0.125, hal=0.375)
    row, top = observe(
        state,
        timestamp=10,
        model="gpt",
        metrics=metrics,
        baseline_metrics=base,
        weights=weights,
        batch_id="b10",
        hall_total=5,
        hall_failed=3,
    )
    computed = metric_delta(metrics, base)
    assert (row.d_icr, row.d_ipr, row.d_ci) == (
        computed.d_icr,
        computed.d_ipr,
        computed.d_ci,
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
            baseline_metrics=_ZERO,
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
                baseline_metrics=_ZERO,
                weights=DEFAULT_WEIGHTS,
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
    assert replay_history(rows) == []


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
            baseline_metrics=_ZERO,
            weights=DEFAULT_WEIGHTS,
            delta=d,
        )
        again = anomaly_score(_delta(row.d_icr, row.d_ipr, row.d_ci), DEFAULT_WEIGHTS)
        assert again == row.score
