"""Machine-speed probe.

The reference machine's speed drifts with the load of other tenants: the
same pass can take 1.0x to 1.8x its quiet time, in spells that last from
seconds to minutes, so medians of raw wall time move between runs by more
than any useful bound. The benchmark therefore times this fixed kernel of
its own right before and after every timed pass or import, and rescales the
time in between to the kernel's quiet time on the reference machine. The kernel does the two
kinds of work rmflab's layers do: interpreted integer and container work,
and numpy uint64 arithmetic over arrays a few MB long. It never calls rmflab,
so a change to the program moves the rescaled times exactly as the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel time (s) on the reference machine when quiet: the fastest of 200
# runs on 2 vCPUs with Python 3.11.7 and numpy 2.4.6. It fixes the scale of
# the rescaled times only; comparisons between commits do not depend on it.
REFERENCE_S = 0.0355

_WORDS = np.arange(1 << 19, dtype=np.uint64)


def _interpreted() -> int:
    total = 0
    gcd = math.gcd
    for i in range(1, 60_000):
        total += gcd(i, 360_360) + (i * i) % 7
    table = {}
    for i in range(20_000):
        table[(i, i + 1)] = i
    return total + len(table)


def _vectorized() -> int:
    total = 0
    for _ in range(6):
        z = _WORDS ^ (_WORDS >> np.uint64(30))
        z *= np.uint64(0xBF58476D1CE4E5B9)
        total += int(np.bitwise_count(z)[0])
    return total


def probe_s() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _interpreted()
    _vectorized()
    return time.perf_counter() - t0


def rescaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, given the kernel times `probe_s`
    measured right before and right after them."""
    return seconds * REFERENCE_S / ((before + after) / 2)
