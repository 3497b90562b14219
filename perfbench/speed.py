"""The machine's speed, read from a fixed reference loop timed beside the work.

On the shared VM the benchmark was built on, each CPU swings between a fast
and a slow state, 1.3-1.5x apart, that hold from under a second to a minute
or more.  pvi's exact and numeric code slows with it, so the raw times of
one 15-20 s run move by up to a fifth with the share of it spent slow.  The
loop below does the kinds of work pvi does (Fraction arithmetic, dict
updates, string formatting, a complex-float series), but none of pvi's, and
its time tracks that state: over 10-second windows the raw time of a batch
of exact-algebra operations ranged 96-127 ms while the batch's time over the
loop's stayed within 8.25-8.47 (numeric-certify: within 2.5 %).

So every time the benchmark reports is scaled by ``REF_S / reference_s()``,
with ``reference_s()`` taken next to the measured work on the same CPU: it
reads as the time on a machine where the loop takes ``REF_S``.  A change to
pvi cannot move the loop: it runs no pvi code, and the cyclic collector is
off while it runs, so pvi's heap does not enter it.
"""

from __future__ import annotations

import cmath
import gc
from fractions import Fraction
from time import perf_counter

REF_S = 0.010  # the loop's time in the fast state of the baseline VM
EVERY_S = 0.5  # the timed loop reads the speed again after this many seconds


def reference_s() -> float:
    """Wall time of one run of the fixed reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        sums: dict[tuple[int, int], Fraction] = {}
        harmonic = Fraction(0)
        for i in range(1, 1000):
            key = (i % 37, i % 11)
            sums[key] = sums.get(key, Fraction(0)) + Fraction(i, 7 + i % 5)
            harmonic += Fraction(1, i)
        _ = [str(v) for v in sums.values()]
        z, q = 0j, cmath.exp(0.3j - 0.2)
        for i in range(1, 6000):
            z += q ** (i % 40) / (1 - 0.5 * q ** (i % 7))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale() -> float:
    """REF_S over the reference loop's time now: multiply a time measured now by it."""
    return REF_S / reference_s()


def scaled(raw_s: float, before_s: float) -> float:
    """A time measured just after a reference run of `before_s`, scaled by the
    mean of that run and one taken now."""
    return raw_s * REF_S / ((before_s + reference_s()) / 2)
