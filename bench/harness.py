"""Closed-loop measurement of one workload: one client, one thread, in process.

`end_to_end` gives the untraced metrics a user sees; `per_layer` gives the
traced per-layer metrics. Both run the workload's fixed operation list in
rounds until the run's time is up. Every latency is scaled to the reference
speed of `calibration`, and an operation's latency is the median of its
rounds. Every round must reproduce the first round's output of each
operation byte for byte.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import c235

import calibration
import kernels
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

SETUP_REPEATS = 5
WARMUP_SECONDS = 1.0
# operation time between calibration probes
PROBE_EVERY_S = 0.05
# latencies kept per operation: the latest rounds, in a buffer of fixed size
# so that the process's peak RSS does not grow with the number of rounds
KEPT_ROUNDS = 256
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Run:
    """Rounds over one operation list."""

    def __init__(self, ops: list):
        self.ops = ops
        # wall-clock latencies of each op's latest rounds, s, and the same scaled
        self.raw = np.full((len(ops), KEPT_ROUNDS), np.nan)
        self.scaled = np.full((len(ops), KEPT_ROUNDS), np.nan)
        self.first = []  # (failure, report bytes) of each op's first execution
        self.digests = []  # digest of each op's first output
        self.probes = []  # calibration probe times, s
        self.attempted = 0
        self.failed = 0
        self.irreproducible = 0
        self.rounds = 0  # completed rounds

    def record(self, i: int, out: workloads.Outcome) -> None:
        self.attempted += 1
        self.failed += out.failure is not None
        digest = hashlib.blake2b(f"{out.failure}\0{out.stdout}".encode(), digest_size=16).digest()
        if i == len(self.first):
            self.first.append((out.failure, len(out.stdout.encode())))
            self.digests.append(digest)
        else:
            self.irreproducible += digest != self.digests[i]
        self.raw[i, self.rounds % KEPT_ROUNDS] = out.seconds

    def scale(self, pending: list, before: float, after: float) -> float:
        """Scale the pending latencies by the probes either side of them; the factor."""
        self.probes.append(after)
        factor = calibration.REF_S / ((before + after) / 2)
        for i, rnd, seconds in pending:
            self.scaled[i, rnd % KEPT_ROUNDS] = seconds * factor
        pending.clear()
        return factor

    def latencies(self, scaled: bool = True) -> np.ndarray:
        """Each operation's median latency over its kept rounds, s."""
        return np.nanmedian(self.scaled if scaled else self.raw, axis=1)

    def points_per_s(self, scaled: bool = True) -> float:
        certified = sum(op.points for op, (failure, _) in zip(self.ops, self.first) if failure is None)
        return certified / self.latencies(scaled).sum()

    def failures(self) -> list:
        """(operation label, reason) of each operation that failed its gate."""
        return [(op.label(), f) for op, (f, _) in zip(self.ops, self.first) if f is not None]

    def op_mix(self) -> dict:
        return dict(sorted(Counter(op.mix_key for op in self.ops).items()))

    def cli_bytes(self) -> int:
        """Bytes of report the cli printed, once over the list."""
        return sum(n for op, (_, n) in zip(self.ops, self.first) if op.kind != "g2")


def run_ops(ops: list, seconds: float, tracer=None) -> Run:
    """Rounds over `ops` until `seconds` have elapsed; the first round always completes.

    A calibration probe runs between operations, at least every PROBE_EVERY_S
    of operation time, and each latency is scaled by the mean of the probes
    on either side of it. A tracer gets the factor of every operation.
    """
    run = Run(ops)
    pending = []  # (op index, round, latency) since the last probe
    spent = 0.0
    before = calibration.probe()
    deadline = time.perf_counter() + seconds

    def scale(after):
        n = len(pending)
        factor = run.scale(pending, before, after)
        if tracer is not None:
            tracer.factors.extend([factor] * n)

    while True:
        for i, op in enumerate(ops):
            if run.rounds and time.perf_counter() >= deadline:
                scale(calibration.probe())
                return run
            if tracer is None:
                out = workloads.execute(op)
            else:
                with tracer.operation(op):
                    out = workloads.execute(op)
            run.record(i, out)
            pending.append((i, run.rounds, out.seconds))
            spent += out.seconds
            if spent >= PROBE_EVERY_S:
                after = calibration.probe()
                scale(after)
                before, spent = after, 0.0
        run.rounds += 1


def warm_up(workload: str, seed: int, seconds: float) -> None:
    """Run operations from a separate input stream, untimed."""
    deadline = time.perf_counter() + min(WARMUP_SECONDS, seconds / 10)
    for op in workloads.operations(workload, seed, stream=1, blocks=1):
        workloads.execute(op)
        if time.perf_counter() >= deadline:
            return


def setup_seconds() -> float:
    """Time of a fresh interpreter running `python -m c235.cli --version`, scaled."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    before = calibration.probe()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "c235.cli", "--version"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    after = calibration.probe()
    if proc.returncode != 0 or not proc.stdout.startswith("c235 "):
        raise RuntimeError(f"c235 --version failed: {proc.stderr.strip()}")
    return elapsed * calibration.REF_S / ((before + after) / 2)


def end_to_end(workload: str, seed: int, seconds: float, setup_repeats: int = SETUP_REPEATS,
               blocks: int | None = None):
    """(metrics, run) of an untraced run; metrics map name -> (value, unit)."""
    setup = [setup_seconds() for _ in range(setup_repeats)]
    warm_up(workload, seed, seconds)
    run = run_ops(workloads.operations(workload, seed, blocks=blocks), seconds)
    lat_ms = run.latencies() * 1e3
    metrics = {
        "points_per_s": (run.points_per_s(), "points/s"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (float(np.median(setup)), "s"),
    }
    return metrics, run


def per_layer(workload: str, seed: int, seconds: float, spans_path: Path,
              blocks: int | None = None):
    """(metrics, traced run, filled metric names, error counts) of a traced run.

    Half the time runs untraced and half traced, on the same inputs, so that
    trace.overhead_share compares like with like. A span metric for a
    function this workload never calls, or the busy share of a layer it never
    reaches, is taken from a traced first block of the other workloads at the
    same seed, and its name is returned in `filled`. The error counts are
    printed, not reported as metrics: on these workloads they are 0.
    """
    ops = workloads.operations(workload, seed, blocks=blocks)
    warm_up(workload, seed, seconds)
    plain = run_ops(ops, seconds / 2)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = run_ops(ops, seconds / 2, tracer)
    metrics = tracing.span_p50s(tracer)
    metrics.update(tracing.layer_counts(tracer, len(ops), traced.cli_bytes()))
    errors = {m: metrics.pop(m) for m in tracing.ERROR_COUNTS}
    filled = [m for m in tracing.US_P50 if m not in metrics]
    filled += [m for m in tracing.BUSY_SHARES if metrics[m] == 0.0]
    fill = tracing.Tracer()
    if filled:
        with tracing.installed(fill):
            for other in workloads.WORKLOADS:
                if other != workload:
                    run_ops(workloads.operations(other, seed, blocks=1), 0, fill)
        from_fill = tracing.span_p50s(fill)
        from_fill.update(tracing.layer_counts(fill, 0, 0))
        metrics.update({m: from_fill[m] for m in filled})
    metrics.update(kernels.kernel_metrics(seed))
    metrics["trace.overhead_share"] = 1.0 - traced.points_per_s() / plain.points_per_s()
    with open(spans_path, "w", encoding="utf-8") as fh:
        tracer.write(fh, "workload")
        fill.write(fh, "fill")
    return metrics, traced, filled, errors


def layer_unit(metric: str) -> str:
    if metric.endswith((".calls", "_bytes")):
        return "count"
    if metric.endswith("_share"):
        return "share"
    return "ms" if metric.endswith("_ms_p50") else "us"


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(workload: str, seed: int, run: Run) -> dict:
    return {
        "git_sha": _git_sha(),
        "c235": c235.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "workload": workload,
        "seed": seed,
        "op_mix": run.op_mix(),
        "rounds": run.rounds,
    }
