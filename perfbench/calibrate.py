"""Host-speed calibration for the benchmark's timings.

The host this benchmark was defined on runs the same pure-Python work
up to 1.4x slower for stretches of 30 s and more, so raw seconds from
runs a few minutes apart disagree by more than any useful regression
bound.  run.py therefore times a fixed kernel between jobs and scales
each job's seconds by REFERENCE_S / (kernel seconds around the job):
reported times are seconds at the reference host speed.  Raw seconds
and every kernel sample are kept in the run's record.

The kernel shares no code with the package: fraction-free elimination
of a fixed pseudo-random sparse integer matrix held as dicts, plus
tuple hashing, the same kinds of interpreter work as the program's
inner loops.
"""

from __future__ import annotations

import random
import time
from math import gcd

# a typical sample() on the host the benchmark was defined on (2-vCPU
# Intel Xeon at 2.0 GHz, CPython 3.11.7); it only sets the scale
REFERENCE_S = 0.0085
REPEATS = 3
ROWS = 60
COLS = 45


def _matrix():
    rng = random.Random(20130829)
    return {r: {c: rng.randrange(-9, 10) or 1 for c in rng.sample(range(COLS), 4)}
            for r in range(ROWS)}


def kernel() -> int:
    rows = _matrix()
    seen = 0
    for pivot_col in range(COLS):
        holders = [r for r, row in rows.items() if pivot_col in row]
        if not holders:
            continue
        r0 = min(holders, key=lambda r: (len(rows[r]), r))
        pivot = rows.pop(r0)
        p = pivot[pivot_col]
        for r in holders:
            if r == r0:
                continue
            row = rows[r]
            a = row.pop(pivot_col)
            new = {c: p * v for c, v in row.items()}
            for c, v in pivot.items():
                if c != pivot_col:
                    w = new.get(c, 0) - a * v
                    if w:
                        new[c] = w
                    else:
                        new.pop(c, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {c: v // g for c, v in new.items()}
            rows[r] = new
            seen ^= hash(tuple(sorted(new))) & 0xFFFF
    return seen


def sample() -> float:
    """Seconds of one kernel run: the fastest of REPEATS, so that a single
    interruption does not count as a slow host."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
