"""Jet kernel timings on operands captured from the workloads themselves.

The univariate kernels (mul, div, compose, invert, fractional pow) are timed
on the order-8 Jet1 operands that dual-certificates produces; the MJet2
kernels on the operands of catalog-verify coframes. Capture swaps the kernels
for recording wrappers while a few real operations run, then restores them;
the timings call the original kernels on the recorded operands.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from c235 import jets
from c235.jets import Jet1, MJet2

import calibration
import tracing
import workloads

MAX_SAMPLES = 128
REPEATS = 7
CATALOG_ORDER = 8


def _is_frac(e) -> bool:
    return not (isinstance(e, int) or (isinstance(e, Fraction) and e.denominator == 1))


# metric -> (original kernel, operand filter)
JET_KERNELS = {
    "jets.mul_us": (Jet1.__mul__, lambda a, b: isinstance(b, Jet1)),
    "jets.div_us": (Jet1.__truediv__, lambda a, b: isinstance(b, Jet1)),
    "jets.compose_us": (jets.jet_compose, lambda outer, inner, *rest: True),
    "jets.invert_us": (jets.jet_invert, lambda f: True),
    "jets.pow_frac_us": (jets.jet_pow, lambda f, e: _is_frac(e)),
}
MJET_KERNELS = {
    "jets.mjet_mul_us": (MJet2.__mul__, lambda a, b: isinstance(b, MJet2)),
    "jets.mjet_reciprocal_us": (MJet2.reciprocal, lambda a: True),
}


def _recorder(kernel, accept, sink):
    def record(*args):
        if accept(*args) and all(a.order == CATALOG_ORDER for a in args if isinstance(a, Jet1)):
            sink.append(args)
        return kernel(*args)
    return record


def capture(kernels: dict, ops) -> dict:
    """Run `ops` with each kernel recording its operands; metric -> operand list."""
    sinks = {m: [] for m in kernels}
    repl = {k: _recorder(k, accept, sinks[m]) for m, (k, accept) in kernels.items()}
    saved = [(cls, attr, val) for cls in (Jet1, MJet2) for attr, val in vars(cls).items()
             if any(val is k for k in repl)]
    try:
        for cls, attr, val in saved:
            setattr(cls, attr, repl[val])
        with tracing.rebind(repl):
            for op in ops:
                workloads.execute(op)
    finally:
        for cls, attr, val in saved:
            setattr(cls, attr, val)
    return sinks


def time_kernels(kernels: dict, sinks: dict) -> dict:
    """Median over REPEATS of the mean time per call, in us at the reference speed."""
    out = {}
    for metric, (kernel, _) in kernels.items():
        samples = sinks[metric]
        if len(samples) > MAX_SAMPLES:
            samples = [samples[i] for i in np.linspace(0, len(samples) - 1, MAX_SAMPLES).astype(int)]
        if not samples:
            raise RuntimeError(f"no operands captured for {metric}")
        reps = []
        before = calibration.probe()
        for _ in range(REPEATS + 1):
            t0 = time.perf_counter()
            for args in samples:
                kernel(*args)
            reps.append((time.perf_counter() - t0) / len(samples))
        factor = calibration.REF_S / ((before + calibration.probe()) / 2)
        out[metric] = float(np.median(reps[1:]) * factor * 1e6)
    return out


def kernel_metrics(seed: int) -> dict:
    dual = workloads.operations("dual-certificates", seed, blocks=1)
    certs = [op for op in dual if op.kind == "g2"]
    out = time_kernels(JET_KERNELS, capture(JET_KERNELS, certs))
    verify = workloads.operations("catalog-verify", seed, blocks=1)[:3]
    out.update(time_kernels(MJET_KERNELS, capture(MJET_KERNELS, verify)))
    return out
