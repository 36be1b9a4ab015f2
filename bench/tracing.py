"""Spans recorded from outside c235, and the per-layer metrics derived from them.

Tracing replaces the public functions listed in TARGETS, in every c235 module
that binds them, with wrappers that record one span per call. Nothing under
src/ changes, and the untraced run never installs the wrappers.

A span is [name, tag, start_ns, end_ns, parent, op_id, error]. `parent` is the
index of the enclosing span, or -1 for an operation span. Spans stay in memory
until the run ends. A span's self time is its duration minus that of its
direct children. Durations are scaled to the reference speed with the factor
the harness measured for the span's operation.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

import numpy as np

import c235
from c235 import chazy, cli, dist, geometry, jets, specialfn, twistor

MODULES = (c235, jets, specialfn, chazy, dist, geometry, twistor, cli)

# the public functions each workload reaches, by layer
TARGETS = {
    specialfn: ("hypergeom_pair", "transform_identity_check", "closed_form_solution"),
    chazy: ("residual_6th", "residual_ds6", "schwarz_solution", "two_pole_solution"),
    dist: ("F_jet", "legendre_transform"),
    geometry: ("flatness_suite", "sample_points", "coframe_for_spec", "metric_at",
               "curvature", "metric_signature"),
    twistor: ("g2_certificate",),
    cli: ("build_parser",),
}

FAMILIES = ("power_m", "hyper_triple", "schwarz_triple_param", "two_pole",
            "ds_curve", "elementary_r")

# per-layer metrics that are a median span duration, in microseconds:
# metric name -> (span name, tag or None)
US_P50 = {f"dist.F_jet.{f}.us_p50": ("dist.F_jet", f) for f in FAMILIES}
US_P50.update({
    "dist.legendre_transform.us_p50": ("dist.legendre_transform", None),
    "specialfn.hypergeom_pair.us_p50": ("specialfn.hypergeom_pair", None),
    "chazy.schwarz_solution.us_p50": ("chazy.schwarz_solution", None),
    "chazy.residual_6th.us_p50": ("chazy.residual_6th", None),
    "chazy.residual_ds6.us_p50": ("chazy.residual_ds6", None),
    "geometry.coframe_for_spec.us_p50": ("geometry.coframe_for_spec", None),
    "geometry.metric_at.us_p50": ("geometry.metric_at", None),
    "geometry.curvature.us_p50": ("geometry.curvature", None),
    "twistor.g2_certificate.us_p50": ("twistor.g2_certificate", None),
    "cli.build_parser_us": ("cli.build_parser", None),
})
US_P50.update({
    f"specialfn.transform_identity_check.{k}.us_p50": ("specialfn.transform_identity_check", k)
    for k in cli.TRANSFORM_KINDS
})

# layer_counts entries printed apart from the metrics: 0 on these workloads
ERROR_COUNTS = ("dist.F_jet.errors", "geometry.errors")
# layer busy shares; one a workload's own spans leave at 0 is filled
BUSY_SHARES = ("dist.F_jet.busy_share", "geometry.busy_share")


def _tag(name: str, args) -> str | None:
    if name == "dist.F_jet":
        return args[0].family
    if name == "specialfn.transform_identity_check":
        return args[0]
    return None


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self.factors = []  # scale factor of each operation, by operation id
        self._stack = []
        self._op_id = -1

    @contextlib.contextmanager
    def operation(self, op):
        self._op_id += 1
        idx = self._open(f"op.{op.kind}", op.case)
        try:
            yield
        finally:
            self._close(idx, False)

    def _open(self, name, tag) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, tag, time.perf_counter_ns(), 0, parent, self._op_id, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx, error):
        span = self.spans[idx]
        span[3] = time.perf_counter_ns()
        span[6] = error
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, _tag(name, args))
            error = True
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                self._close(idx, error)
        return traced

    def write(self, fh, phase: str):
        """Append the spans to an open text file, one JSON object a line."""
        for name, tag, t0, t1, parent, op_id, error in self.spans:
            fh.write(json.dumps({"phase": phase, "name": name, "tag": tag,
                                 "start_ns": t0, "end_ns": t1, "parent": parent,
                                 "op": op_id, "error": error}) + "\n")


@contextlib.contextmanager
def rebind(replacements: dict):
    """Swap every c235 module binding of each original for its replacement."""
    saved = []
    try:
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                for orig, new in replacements.items():
                    if val is orig:
                        saved.append((mod, attr, val))
                        setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, val in reversed(saved):
            setattr(mod, attr, val)


def installed(tracer: Tracer):
    """Context manager that routes the TARGETS through `tracer`."""
    repl = {}
    for mod, names in TARGETS.items():
        layer = mod.__name__.rsplit(".", 1)[-1]
        for n in names:
            fn = getattr(mod, n)
            repl[fn] = tracer.wrap(f"{layer}.{n}", fn)
    return rebind(repl)


# --- derived metrics ------------------------------------------------------


def _durations(tracer):
    """Each span's duration and self time in us, scaled as its operation was."""
    spans = tracer.spans
    dur = np.array([(s[3] - s[2]) * tracer.factors[s[5]] for s in spans], dtype=float) / 1e3
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[4] >= 0:
            child[s[4]] += d
    return dur, dur - child


def span_p50s(tracer: Tracer) -> dict:
    """The US_P50 metrics present in the spans (median inclusive duration, us)."""
    dur, _ = _durations(tracer)
    out = {}
    for metric, (name, tag) in US_P50.items():
        sel = [d for s, d in zip(tracer.spans, dur) if s[0] == name and (tag is None or s[1] == tag)]
        if sel:
            out[metric] = float(np.median(sel))
    return out


def layer_counts(tracer: Tracer, first_pass_ops: int, cli_bytes: int) -> dict:
    """Counts, busy shares and cli overhead of the workload's own spans."""
    spans = tracer.spans
    dur, self_us = _durations(tracer)
    is_op = np.array([s[4] < 0 for s in spans])
    op_total = float(dur[is_op].sum())
    layer = np.array([s[0].split(".", 1)[0] for s in spans])
    names = np.array([s[0] for s in spans])
    errors = np.array([s[6] for s in spans])
    first = np.array([s[5] < first_pass_ops for s in spans])
    fjet = names == "dist.F_jet"
    geo = layer == "geometry"
    # a geometry error counts once, where it arose, not in each caller it unwinds
    geo_child_err = np.zeros(len(spans), dtype=bool)
    for s, g, e in zip(spans, geo, errors):
        if s[4] >= 0 and g and e:
            geo_child_err[s[4]] = True
    # cli overhead: an operation's time outside its direct calls into other layers
    layer_child = np.zeros(len(spans))
    for s, d, lay in zip(spans, dur, layer):
        if s[4] >= 0 and lay != "cli" and spans[s[4]][4] < 0:
            layer_child[s[4]] += d
    cli_ops = is_op & np.isin(names, ("op.verify", "op.identities", "op.curvature"))
    overhead_ms = (dur[cli_ops] - layer_child[cli_ops]) / 1e3
    return {
        "dist.F_jet.calls": int((fjet & first).sum()),
        "dist.F_jet.errors": int((fjet & errors).sum()),
        "dist.F_jet.busy_share": float(self_us[fjet].sum() / op_total),
        "geometry.busy_share": float(self_us[geo].sum() / op_total),
        "geometry.errors": int((geo & errors & ~geo_child_err).sum()),
        "cli.report_bytes": cli_bytes,
        "cli.overhead_ms_p50": float(np.median(overhead_ms)),
    }
