"""Machine speed reference.

On a shared machine with two vCPUs the speed of the CPU drifts by up to
1.8x within seconds, and CPU time drifts with it, so raw timings of the
same code on the same input spread far wider than any bound worth
having.
The benchmark therefore times a fixed pure-Python ``Fraction`` kernel,
the kind of arithmetic ``ncmoduli`` spends its time in, next to every
op and every probe, and divides each measured time by the slowdown
``kernel time / REFERENCE_S``.  Reported times read as they would on a
machine where the kernel takes ``REFERENCE_S``: the reference machine
(2-vCPU Intel Xeon, CPython 3.11) in its faster phases.  The kernel is
benchmark code, so a change to ``ncmoduli`` moves the scaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

from fractions import Fraction
from statistics import median
from time import perf_counter

REFERENCE_S = 0.0006
_MATRIX = [[Fraction(3 * r + c + 1, 7 + 2 * r + c) for c in range(4)] for r in range(4)]


def _kernel():
    m = _MATRIX
    for _ in range(3):
        m = [[sum((m[r][k] * _MATRIX[k][c] for k in range(4)), Fraction(0)) for c in range(4)] for r in range(4)]
    return m


def kernel_seconds() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def slowdown() -> float:
    """How much slower than its reference time the kernel runs right now."""
    return kernel_seconds() / REFERENCE_S


def op_factors(slowdowns, window: int = 3):
    """Scale factor per op from slowdowns taken before each op and after the last.

    Op i sits between readings i and i + 1; the median over a few readings
    around it ignores one that a collector pause or interrupt hit.
    """
    return [
        1.0 / median(slowdowns[max(0, i - window + 1): i + window + 1])
        for i in range(len(slowdowns) - 1)
    ]
