"""Host-speed calibration: a fixed pure-Python loop timed next to every measurement.

The machines this benchmark runs on are shared: the same request can take
twice as long for seconds to minutes at a time when neighbours are busy.
Each timed request is therefore bracketed by two runs of the loop below, and
its time is reported at reference speed:

    scaled = measured * REFERENCE_S / (mean of the two bracketing loop times)

Per-layer span times are scaled by their pass's overall factor.  The loop
touches none of blocksieve's code, so a faster program still reads faster by
the same factor.  On a quiet host the loop takes about REFERENCE_S,
so scaled times read close to raw ones there.  Changing the loop or
REFERENCE_S changes every reported time: do so only together with re-measuring
the baseline.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.001


def _dfs(i: int, acc: int) -> int:
    return acc if i == 0 else _dfs(i - 1, acc + (i * 7) % 13)


def _loop():
    """Recursion over small ints, dict updates, Fraction sums, list building."""
    d: dict[int, int] = {}
    for i in range(400):
        d[i % 97] = d.get(i % 97, 0) + _dfs(20, i)
    s = Fraction(0)
    for i in range(1, 120):
        s += Fraction(i % 7, (i % 5) + 1)
    return s, [[x * y for x in range(6)] for y in range(30)]


def sample() -> float:
    """Seconds one run of the loop takes now; the collector is paused meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(measured: float, before: float, after: float) -> float:
    """A time measured between two loop samples, at reference speed."""
    return measured * REFERENCE_S * 2 / (before + after)
