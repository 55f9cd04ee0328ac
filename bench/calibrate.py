"""Timing that corrects for the machine's changing speed.

On a shared host the speed of this process swings by a third over
seconds when other tenants are busy.  Each timed span is therefore
bracketed by a fixed pure-Python loop, and its time is scaled by how long
the loop took around it: REFERENCE_S / loop time.  The result reads as
seconds on a machine where the loop takes REFERENCE_S, and it varies far
less from run to run than the raw time.  Imports nothing but ``time``, so
that set-up can be timed this way from its first import.
"""

from __future__ import annotations

from time import perf_counter

LOOPS = 100_000
REFERENCE_S = 0.008


def loop_seconds() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    return perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Reference seconds per raw second, given the loop times around a span."""
    return REFERENCE_S / ((before + after) / 2)


def scaled(raw: float, before: float, after: float) -> float:
    """``raw`` seconds in reference seconds, given the loop times around it."""
    return raw * factor(before, after)
