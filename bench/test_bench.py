"""Smoke test of the benchmark itself: one short block of each workload.

It checks the result schema and every metric name; it asserts no timing.
Run it with the rest of the suite (`PYTHONPATH=src python -m pytest -q`) or
alone (`PYTHONPATH=src python -m pytest -q bench`).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {"setup_s", "points_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
PER_LAYER = (
    {f"jets.{k}_us" for k in ("mul", "div", "compose", "invert", "pow_frac",
                              "mjet_mul", "mjet_reciprocal")}
    | {f"dist.F_jet.{f}.us_p50" for f in tracing.FAMILIES}
    | {"dist.F_jet.calls", "dist.F_jet.busy_share",
       "dist.legendre_transform.us_p50", "specialfn.hypergeom_pair.us_p50",
       "chazy.schwarz_solution.us_p50", "chazy.residual_6th.us_p50",
       "chazy.residual_ds6.us_p50", "geometry.coframe_for_spec.us_p50",
       "geometry.metric_at.us_p50", "geometry.curvature.us_p50", "geometry.busy_share",
       "twistor.g2_certificate.us_p50", "cli.build_parser_us",
       "cli.report_bytes", "cli.overhead_ms_p50", "trace.overhead_share"}
    | {f"specialfn.transform_identity_check.{k}.us_p50" for k in workloads.cli.TRANSFORM_KINDS}
)


def test_benchmark_json_names_every_metric():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_lists_are_seeded(workload):
    ops = workloads.operations(workload, 7)
    assert ops == workloads.operations(workload, 7)
    assert ops != workloads.operations(workload, 8)
    assert len(ops) >= 100
    (kind,) = {op.kind for op in ops} - {"identities"}
    cases = {op.case for op in ops if op.kind == kind}
    catalog = {s.id for s in workloads.dist.catalog()}
    assert cases == catalog - workloads.EXCLUDED[kind]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_schema(workload):
    metrics, run = harness.end_to_end(workload, 0, 0, setup_repeats=1, blocks=1)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {m: u for m, (_, u) in metrics.items()} == units
    assert all(math.isfinite(v) and v > 0 for v, _ in metrics.values())
    assert run.attempted == len(run.ops) and run.irreproducible == 0
    assert run.failed == len(run.failures()) == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_schema(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    metrics, run, filled, errors = harness.per_layer(workload, 0, 0, spans, blocks=1)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(metrics) == set(units)
    assert all(harness.layer_unit(m) == units[m] for m in metrics)
    assert all(math.isfinite(v) and v != 0 for v in metrics.values())
    assert set(errors) == set(tracing.ERROR_COUNTS)
    assert set(filled) <= set(tracing.US_P50) | set(tracing.BUSY_SHARES)
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"phase", "name", "tag", "start_ns", "end_ns", "parent", "op", "error"}


def test_gate_records_failures_and_keeps_going():
    ops = [
        workloads.Op("g2", "no-such-case", basepoint=0.5),
        workloads.Op("verify", "no-such-case", ("verify", "--case", "no-such-case", "--seed", "3")),
        workloads.Op("g2", "H-power-2", basepoint=1.5),
    ]
    run = harness.run_ops(ops, 0)
    assert (run.attempted, run.failed) == (3, 2)
    (l1, r1), (l2, r2) = run.failures()
    assert "no-such-case" in l1 and r1.startswith("raised UnknownCaseId")
    assert "--seed 3" in l2 and r2.startswith("exit 2")


def test_known_defects_report():
    report = workloads.known_defects()
    assert len(report) == 2
    for d in report:
        assert 0 <= d["failing"] <= d["operations"]
        assert d["present"] == (d["first"] is not None) == (d["failing"] > 0)


def test_command_prints_one_result_line():
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "dual-certificates",
           "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == END_TO_END
    assert result["attempted"] >= 1


def test_fails_without_sources(tmp_path):
    for d in SPEC["paths"]:
        shutil.copytree(ROOT / d, tmp_path / d, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "catalog-verify",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
