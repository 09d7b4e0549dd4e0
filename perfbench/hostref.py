"""Host-speed reference loops, sampled next to every timed piece of work.

Shared hosts change speed in phases, sometimes within a second and by up
to a factor of two, with CPU time equal to wall time.
So the benchmark samples a fixed reference loop in the same process right
before and right after each timed job or import, and scales the wall time
by a nominal time / (median of those samples).  A reported time reads
"seconds on a host where the reference loop takes its nominal time"; raw
wall times are printed beside it.  Only the benchmark's own code runs in
the loops, so a change to the program cannot move them.

Two loops: the Fraction loop below, and an int-only loop in cold.py that
can run in a fresh interpreter before `import butcher_kit.cli` without
importing anything.  Warm jobs use the Fraction loop; the import uses the
int loop; a cold job uses the geometric mean of both, which over five
batches of cold jobs per workload kept batch medians within 2-5% where
either loop alone let them move 5-16%.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the median of each loop on the host the benchmark was defined on
# (2 vCPU x86-64, Python 3.11).  Fixed constants, so normalised times stay
# comparable between commits.
FRACTION_NOMINAL_S = 0.001
INT_NOMINAL_S = 0.0005

BURST = 3


def fraction_sample() -> float:
    """Wall time of one fixed Fraction loop, in seconds."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    total = Fraction(0)
    for i in range(1, 120):
        total += x / i
        x = x * Fraction(i, i + 1)
    elapsed = time.perf_counter() - start
    if total <= 0:  # keeps the loop's result live
        raise AssertionError("reference loop lost its value")
    return elapsed


def burst(count: int = BURST) -> list[float]:
    return [fraction_sample() for _ in range(count)]


def scale(before: list[float], after: list[float], nominal: float = FRACTION_NOMINAL_S) -> float:
    """Factor that turns a wall time measured between two bursts into nominal seconds."""
    return nominal / statistics.median(before + after)
