"""How fast the host runs Python right now, from a fixed reference loop.

The benchmark's host is shared, and its speed drifts by 20% or more
between runs a few minutes apart; every timing of a run moves with it.
The reference loop does the kind of work moncoh's hot paths do (integer
row operations on a list of lists) but uses nothing from moncoh, so its
time follows the host and not the program.  A run times the loop before
its operations, between them for a fixed share of the time that passed,
and after them, and reports each timing scaled by ``factor()``: seconds
on a host where the loop takes ``REFERENCE_S``.

On a two-vCPU 2.1 GHz Xeon host, where the middle half of ten runs' raw
wall times spanned up to 28% of their median, scaling brought the worst
spread seen to 10%; in calm stretches (raw spread 2-5%) it can add a few
percent, because the loop and the program do not slow down alike.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# About the loop's median time on the host the benchmark was defined on,
# so that scaled seconds read close to raw ones there.
REFERENCE_S = 0.004
# Between operations the loop runs for this share of the time since it
# last ran, so its samples cover the run evenly, long operations too.
DUTY = 0.05
INTERVAL_S = 0.25


def reference_loop(n: int = 36, modulus: int = 1000003) -> list[list[int]]:
    """Forward elimination on a fixed n x n integer matrix modulo a prime."""
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = rows[k]
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(n):
                row[j] = (row[j] * 3 - f * pivot[j]) % modulus
    return rows


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = perf_counter()

    def sample(self, seconds: float) -> None:
        """Time the loop over and over for about ``seconds``, at least once."""
        end = perf_counter() + seconds
        while True:
            t = perf_counter()
            reference_loop()
            done = perf_counter()
            self.samples.append(done - t)
            if done >= end:
                break
        self._last = perf_counter()

    def tick(self) -> None:
        """Sample for DUTY of the time since the last sample, if that is
        INTERVAL_S or more."""
        since = perf_counter() - self._last
        if since >= INTERVAL_S:
            self.sample(DUTY * since)

    def loop_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        return REFERENCE_S / self.loop_s()
