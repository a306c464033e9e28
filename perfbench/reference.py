"""Host-speed reference: a fixed kernel timed next to every operation.

The host this benchmark was built on runs the same call anywhere from 1x to
2x its fastest time, in spells of seconds to minutes that a run cannot
outlast.  The kernel below does work of the same kind as mottreg's inner
loops (a Python loop of small numpy products, as in an ODE step) and shares
no code with it, so it slows down with the host but not with the program.
Each operation's wall time is scaled by REFERENCE_S over the kernel time
measured around it: the result is the time the operation would take on the
host at the kernel's reference speed.
"""
from __future__ import annotations

import time

import numpy as np

# kernel time on an uncontended core of the 2-vCPU Xeon VM the bounds were
# set on (its fast spells read 7.2 to 7.6 ms, its slow ones about 13.5 ms)
REFERENCE_S = 7.5e-3
STEPS = 1000


def kernel() -> float:
    """Wall time of the reference kernel, in seconds."""
    start = time.perf_counter()
    a = np.array([[0.5, 0.01j], [-0.01j, 2.5]])
    y = np.array([1.0 + 0j, 0j])
    h = 1e-3
    for _ in range(STEPS):
        k1 = -1j * (a @ y)
        k2 = -1j * (a @ (y + 0.5 * h * k1))
        y = y + h * k2
        np.abs(y).max()
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from a wall time to the reference speed, given the kernel
    times measured just before and just after it."""
    return 2.0 * REFERENCE_S / (before + after)
