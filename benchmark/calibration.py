"""Host-speed probe for the benchmark's end-to-end times.

The benchmark shares a host whose speed drifts by ten to thirty percent
from one run to the next and swings within seconds (other tenants), and
a slow spell slows every query alike. A worker therefore times a fixed
unit of pure-Python work in its own process: SETUP_UNITS units right
after set-up, then one between two queries at most every INTERVAL_S
seconds. `scales` turns each time into a time at reference speed: it
multiplies it by REFERENCE_S over the fastest unit timed around it (within
WINDOW_S, or the MIN_UNITS nearest). A reported second is a second on a
host that runs the unit in REFERENCE_S.

The unit does the kind of work genvar's kernels do (row reduction of
integer lists modulo a prime, a product of dict-keyed polynomials), never
calls genvar and runs with the garbage collector paused, so a change to
genvar cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import time

# Fastest unit on a quiet 2-core x86-64 VM with Python 3.11.
REFERENCE_S = 0.0012
INTERVAL_S = 0.05
WINDOW_S = 0.25
MIN_UNITS = 3
SETUP_UNITS = 20
PRIME = 32003
SIZE = 20


def _matrix() -> list:
    """A fixed SIZE x SIZE matrix from a linear congruential generator."""
    x, rows = 12345, []
    for _ in range(SIZE):
        row = []
        for _ in range(SIZE):
            x = (1103515245 * x + 12345) % 2 ** 31
            row.append(x % PRIME)
        rows.append(row)
    return rows


MATRIX = _matrix()
POLY = {(i, j): i + j for i in range(-4, 5) for j in range(6)}


def unit() -> int:
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    rows = [list(r) for r in MATRIX]
    rank = 0
    for col in range(SIZE):
        piv = next((i for i in range(rank, SIZE) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, PRIME)
        for i in range(rank + 1, SIZE):
            f = rows[i][col] * inv % PRIME
            if f:
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], rows[rank])]
        rank += 1
    square: dict = {}
    for (a, b), c in POLY.items():
        for (d, e), f in POLY.items():
            square[a + d, b + e] = square.get((a + d, b + e), 0) + c * f
    return rank + len(square)


class Probe:
    """Unit times of one process with their start times, the start times
    of the queries timed between them, and the time spent on units."""

    def __init__(self):
        self.units: list[float] = []
        self.starts: list[float] = []
        self.query_starts: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        paused = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        unit()
        t1 = time.perf_counter()
        if paused:
            gc.enable()
        self.units.append(t1 - t0)
        self.starts.append(t0)
        self.spent += time.perf_counter() - t0
        self._last = t1

    def between_queries(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()


def scales(unit_starts, units, starts, durations) -> list:
    """For each timed span (start, duration), the factor REFERENCE_S over
    the fastest unit that started within WINDOW_S of the span, or over
    the fastest of the MIN_UNITS units that started nearest to it."""
    out = []
    for t, d in zip(starts, durations):
        lo = bisect.bisect_left(unit_starts, t - WINDOW_S)
        hi = bisect.bisect_right(unit_starts, t + d + WINDOW_S)
        if hi - lo < MIN_UNITS:
            near = sorted(range(len(units)), key=lambda i: abs(unit_starts[i] - t))
            near = near[:MIN_UNITS]
        else:
            near = range(lo, hi)
        out.append(REFERENCE_S / min(units[i] for i in near))
    return out
