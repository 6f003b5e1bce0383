"""A fixed reference kernel that measures the host's current speed.

The benchmark runs on shared hosts whose speed drifts: a fixed piece of
work takes up to 1.8x longer for minutes at a time when other tenants
load the machine, with no steal time to show for it (the slowdown is in
the hardware the tenants share, so CPU time drifts with wall time).  No
statistic over one run's passes removes a drift that lasts longer than
the run.  The benchmark therefore runs this kernel between passes and
reports pass wall time as a multiple of the kernel's wall time, which
cancels the drift the two share.  On a 2-vCPU cloud VM, over ten seeds
of 60 s runs of ``lstsq_ladder``, the quotient spread 0.05 (interquartile
range over median) where the raw pass seconds spread 0.13.  On
``cyclic3_fleet``, whose few long passes leave few kernel runs to
average, it spread 0.06 against 0.38 over six runs in a heavy drift and
0.12 against 0.13 over ten in a quiet one.

The kernel does the two kinds of host work the program's passes are
made of: error-free float transformations in pure Python (scalar
multiple double arithmetic) and the same on small limb arrays (narrow
limb launches).  It imports nothing from the program, so no change to
the program changes it.
"""

from __future__ import annotations

import numpy as np

#: iterations of each half; together about 0.5 s on a 2-vCPU cloud VM
SCALAR_STEPS = 2_000_000
ARRAY_STEPS = 30_000
#: shape of the limb arrays: 8 limbs of a 31-wide batch
ARRAY_SHAPE = (8, 31)


def scalar_half() -> float:
    """Compensated summation of a geometric series, one float at a time."""
    total = error = 0.0
    term = 1.0
    for _ in range(SCALAR_STEPS):
        s = total + term
        b = s - total
        error += (total - (s - b)) + (term - b)
        total = s
        term *= 0.9999999
    return total + error


def array_half() -> np.ndarray:
    """Two-sum and halving on small limb arrays, one ufunc call at a time."""
    a = np.linspace(1.0, 2.0, ARRAY_SHAPE[0] * ARRAY_SHAPE[1]).reshape(ARRAY_SHAPE)
    b = a[::-1].copy()
    for _ in range(ARRAY_STEPS):
        s = a + b
        v = s - a
        e = (a - (s - v)) + (b - v)
        a = s * 0.5
        b = e + b * 0.5
    return a


def run() -> None:
    """One run of the kernel: a fixed amount of work."""
    scalar_half()
    array_half()
