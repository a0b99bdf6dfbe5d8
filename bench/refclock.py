"""A reference clock: wall times scaled to a fixed machine speed.

The machines this benchmark runs on share their cores with other work, and
their speed for the same Python code drifts by tens of percent over seconds
to minutes.  Every timed interval is therefore bracketed by two runs of
:func:`reference_kernel`, a fixed piece of integer arithmetic that does not
touch iterqm, and scaled by ``NOMINAL_S / (mean of the two kernel times)``.
The result reads as seconds on a machine on which the kernel takes
``NOMINAL_S``.  The raw wall times are kept in the per-run records.

Run as a script, it prints the scaled time of ``import iterqm`` in this
(fresh) interpreter: ``python3 bench/refclock.py SRC_DIR``.
"""

from __future__ import annotations

import gc
import sys
from fractions import Fraction
from time import perf_counter

#: The kernel's time on the machine the benchmark was tuned on, when quiet.
NOMINAL_S = 0.0021


def reference_kernel() -> Fraction:
    """Fixed exact rational arithmetic, the staple of iterqm's exact layers."""
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 7)
    return acc


def kernel_seconds() -> float:
    """The kernel's wall time, with the garbage collector held off so that
    the heap left by the measured code does not lengthen it."""
    gc.disable()
    try:
        t0 = perf_counter()
        reference_kernel()
        return perf_counter() - t0
    finally:
        gc.enable()


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """A wall time in seconds at the nominal speed."""
    return wall_s * NOMINAL_S * 2 / (before_s + after_s)


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    before = kernel_seconds()
    t0 = perf_counter()
    import iterqm  # noqa: F401

    wall = perf_counter() - t0
    after = kernel_seconds()
    print(scaled(wall, before, after), wall)
