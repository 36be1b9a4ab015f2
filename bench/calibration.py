"""A fixed reference computation that measures how fast this CPU runs right now.

On a shared host the speed one thread gets changes by up to 1.6x, for seconds
to minutes at a time, and both CPUs of a small virtual machine can be slow
together. The probe does the kind of work c235 does: Python calls, small
frozen dataclasses and 9-element numpy arrays. It runs no c235 code, so no
change to c235 can move it. A time multiplied by REF_S / probe() is the time
the same work takes at the reference speed, the speed at which the probe
takes REF_S. On a 2-vCPU Intel Xeon virtual machine the scaled time of a pass
of c235 operations varied 3% where the wall time varied 11%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# about probe() on a 2-vCPU Intel Xeon virtual machine at its faster speed
REF_S = 1.0e-3


@dataclass(frozen=True)
class _Term:
    value: float
    coeffs: np.ndarray


def _kernel() -> float:
    a = np.linspace(0.5, 1.5, 9)
    h = np.zeros(9)
    for _ in range(20):
        b = np.convolve(a, a)[:9]
        for k in range(9):
            h[k] = (b[k] - np.dot(h[:k], a[k:0:-1])) / a[0]
    acc = 0.0
    for i in range(64):
        t = _Term(float(i), a * 1.0001)
        u = _Term(t.value + 1.0, np.outer(t.coeffs, t.coeffs)[0])
        acc += float(u.coeffs[0]) + len(str(u.value))
    return acc + float(h[-1])


def probe() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
