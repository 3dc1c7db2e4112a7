"""Timing scaled to a reference CPU speed.

On a small shared VM the speed of the CPU a process gets can swing by 2x
over tens of seconds (other tenants, not this process). Raw wall time of
the same work then spreads far more between runs than any change worth
detecting. So every timed operation is bracketed by a fixed piece of
pure-Python work, the calibration, and its wall time is scaled by
REFERENCE_S / (mean calibration time around it): the result is the time
the operation would take on a CPU that runs the calibration in
REFERENCE_S seconds. The calibration is benchmark code, so a change to
kgmon cannot change it. Raw wall seconds are kept alongside.
"""

import json
import random
import statistics
import time

# Roughly the calibration's time on a 2-vCPU Xeon VM at its fast speed.
REFERENCE_S = 0.005

_rng = random.Random(0)
_TEXT = " ".join(
    "".join(_rng.choice("abcdefghijklmnop") for _ in range(_rng.randint(2, 9)))
    + _rng.choice(("", "", "", ".", ","))
    for _ in range(300)
)
_HAY = " ".join([_TEXT] * 8)
_PUNCT = frozenset(".,")
_SCORES = [_rng.gauss(0.0, 0.01) for _ in range(30)]
_ROWS = [
    json.dumps({"timestamp": i, "model": "m", "score": _rng.random(), "threshold": None})
    for i in range(40)
]


def _work() -> int:
    # The same kinds of work as kgmon's hot paths: a character loop like
    # the pure tokenizer, dict updates, whitespace-normalising, casefolding
    # and searching a longer text, a window's stdev, and JSON rows.
    tokens = []
    text = _TEXT
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, i))
            i += 1
            continue
        start = i
        i += 1
        while i < n and not text[i].isspace() and text[i] not in _PUNCT:
            i += 1
        tokens.append((text[start:i], start))
    counts: dict[str, int] = {}
    for tok, _ in tokens:
        counts[tok] = counts.get(tok, 0) + 1
    hay = " ".join(_HAY.split()).casefold()
    found = sum(1 for tok in list(counts)[:40] if tok + "q" in hay)
    spread = statistics.stdev(_SCORES) + statistics.fmean(_SCORES)
    rows = [json.loads(line) for line in _ROWS]
    return len(tokens) + found + len(rows) + int(spread)


def calibrate() -> float:
    """Wall seconds of the fixed calibration work."""
    start = time.perf_counter()
    for _ in range(3):
        _work()
    return time.perf_counter() - start


class Clock:
    """Times operations in reference seconds (see the module docstring)."""

    def __init__(self) -> None:
        self._last = calibrate()

    def time(self, fn, *args):
        """Run fn(*args); returns (result, reference seconds, wall seconds)."""
        before = self._last
        start = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - start
        self._last = calibrate()
        return result, wall * REFERENCE_S * 2 / (before + self._last), wall
