"""Reference kernel that gauges the machine's speed between operations.

On a shared machine the speed of one core drifts by 20% and more, over
seconds and over tens of minutes, and a slow stretch can last a whole run;
per-scene fastest times do not remove it.  So the benchmark times this
fixed kernel between every two operations (and around every set-up) and
divides each time by the mean of the kernel's two adjacent times: the
ratio keeps the program's cost and drops most of the machine's.  Times
are reported in seconds at the kernel's nominal speed, ``NOMINAL_S``.

A set-up is a fresh process, so it is gauged by a fresh process too:
``process_seconds`` starts this file as a script, which imports the
standard modules it needs and runs ``PROCESS_PASSES`` kernel passes.
That follows process start and imports from disk as well, which the
kernel alone does not; its nominal time is ``PROCESS_NOMINAL_S``.

The kernel is the benchmark's own code and never changes with the
program: sparse polynomial multiplication with ``Fraction`` coefficients
over dicts of exponent tuples, the interpreter work that dominates
``stabred``.  It runs with the cyclic garbage collector off, so a program
that keeps more objects alive cannot slow the kernel and hide its own
cost.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# Median times of one kernel pass and of one reference process on a
# 2-core Intel Xeon container with Python 3.11.7; they only set the scale
# of the reported seconds.
NOMINAL_S = 0.00045
PROCESS_NOMINAL_S = 0.095
PROCESS_PASSES = 100


def _polynomial(rng, terms):
    return {
        tuple(rng.randint(0, 3) for _ in range(4)): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        for _ in range(terms)
    }


_RNG = random.Random(7)
_LEFT = _polynomial(_RNG, 9)
_RIGHT = _polynomial(_RNG, 9)


def _multiply(left, right):
    out = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def kernel_seconds(passes=1):
    """Seconds one pass of the kernel takes now: the median of ``passes``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(passes):
            start = perf_counter()
            _multiply(_LEFT, _RIGHT)
            times.append(perf_counter() - start)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def process_seconds():
    """Seconds from starting a reference process to the end of its passes."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1]) - start


def scaled(seconds, before, after, nominal=NOMINAL_S):
    """``seconds`` at nominal speed, given the reference's times around it."""
    return seconds * nominal * 2 / (before + after)


if __name__ == "__main__":
    for _ in range(PROCESS_PASSES):
        _multiply(_LEFT, _RIGHT)
    print(repr(perf_counter()))
