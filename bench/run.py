"""Benchmark c235 on one workload, end to end or per layer.

    python3 bench/run.py --workload catalog-verify --seed 0 --seconds 20 --trace 0

Run it from anywhere; it measures the c235 sources in ../src next to this
directory. With --trace 0 it prints the end-to-end metrics of an untraced
run; with --trace 1 the per-layer metrics of a traced run, and it writes the
spans to bench/results/. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. Exit code 0 means a result was printed, 2 bad usage or no c235
sources to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_FAILURES_SHOWN = 20


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_harness():
    """Import the harness against the c235 sources beside this directory."""
    if not (SRC / "c235" / "__init__.py").is_file():
        raise FileNotFoundError(f"no c235 sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import c235
    import harness

    if Path(c235.__file__).resolve().parent != SRC / "c235":
        raise ImportError(f"c235 was imported from {c235.__file__}, not {SRC}")
    return harness


def main(argv=None) -> int:
    args = _args(argv)
    if args.seconds < 0:
        print("--seconds must be >= 0", file=sys.stderr)
        return 2
    try:
        harness = _load_harness()
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    harness.RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, run, filled, errors = harness.per_layer(
            args.workload, args.seed, args.seconds,
            harness.RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {m: (v, harness.layer_unit(m)) for m, v in sorted(values.items())}
    else:
        metrics, run = harness.end_to_end(args.workload, args.seed, args.seconds)
        filled, errors = [], {}
    defects = harness.workloads.known_defects()

    prov = harness.provenance(args.workload, args.seed, run)
    print(f"c235 bench  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = "  (from the other workloads' first block)" if name in filled else ""
        print(f"  {name:52s} {value:14.6g} {unit}{note}")
    if not args.trace:
        raw = sorted(run.latencies(scaled=False) * 1e3)
        print(f"  unscaled: points_per_s {run.points_per_s(scaled=False):.6g}, "
              f"op_p50_ms {statistics.median(raw):.6g}; calibration probe median "
              f"{statistics.median(run.probes) * 1e3:.4g} ms against "
              f"{harness.calibration.REF_S * 1e3:g} ms at the reference speed")
    for name, count in errors.items():
        print(f"  {name:52s} {count:14d} count  (calls that raised, traced phase)")
    print(f"  {'failed_share':52s} {run.failed / run.attempted:14.6g} share "
          f"({run.failed} of {run.attempted} operations, {len(run.ops)} distinct)")
    failures = run.failures()
    for label, reason in failures[:MAX_FAILURES_SHOWN]:
        print(f"  FAILED {label}: {reason}")
    if len(failures) > MAX_FAILURES_SHOWN:
        print(f"  ... and {len(failures) - MAX_FAILURES_SHOWN} more in {stem}.json")
    if run.irreproducible:
        print(f"  NOT REPRODUCIBLE: {run.irreproducible} repeated operations changed their report")
    for d in defects:
        state = (f"present, {d['failing']} of {d['operations']} operations fail, e.g. "
                 f"{d['first']['operation']}: {d['first']['reason']}" if d["present"]
                 else f"not reproduced by its {d['operations']} operations")
        print(f"  known defect, left out of the timed list: {d['defect']}: {state}")

    result = {
        "correct": run.irreproducible == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    record = dict(result, provenance=prov, layer_errors=errors, known_defects=defects,
                  failures=[{"operation": lbl, "reason": r} for lbl, r in failures])
    (harness.RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
