"""The three benchmark workloads: seeded operation lists, execution and gates.

Each workload is a fixed list of operations drawn from the seed: every
catalog case (and, on dual-certificates, every identity kind) appears the
same number of times, with its own generated inputs. The program sees only
those inputs: case ids, seeds, basepoints and point strings.

Each operation is timed around the single call into c235 and then checked by
its gate. A gate failure is recorded with the case and its inputs, counted,
and the run goes on.

The operations that a known defect of c235 makes fail are left out of the
timed lists (EXCLUDED), so that a failed operation there means new breakage.
`known_defects` runs them on every run instead and reports whether each
defect is still present.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from c235 import cli, dist, twistor

WORKLOADS = ("catalog-verify", "dual-certificates", "point-queries")

VERIFY_POINTS = 10
IDENTITY_SAMPLES = 3
# blocks in a list; a block holds every timed case once (and every identity kind
# once, on dual-certificates), so each list has >= 100 operations and its
# 90th latency percentile has ten samples above it
BLOCKS = {"catalog-verify": 4, "dual-certificates": 4, "point-queries": 4}
# the flatness tolerance `c235 verify` applies by default
CERT_TOL = cli.DEFAULT_TOL

# Cases whose declared domain holds an interior zero of z1: a verify or
# curvature point near it raises SingularCoframeError.
Z1_ROOT_CASES = frozenset({"F-triple-(-2/3,5/6,1/2)", "F-triple-(-2/3,5/6,2/3)",
                           "H-triple-(-1/2,5/6,2/3)"})
# The negative control whose dual certificate passes at most basepoints,
# because chazy._rel floors the residual's denominator at 1.
FLOORED_CONTROL = "F-power-3"
# operation kind -> cases left out of the timed lists for a known defect
EXCLUDED = {"verify": Z1_ROOT_CASES, "curvature": Z1_ROOT_CASES,
            "g2": frozenset({FLOORED_CONTROL})}


@dataclass(frozen=True)
class Op:
    """One request: `argv` for a cli call, or (case, basepoint) for g2."""

    kind: str  # verify | g2 | identities | curvature
    case: str  # catalog id, or the identity kind
    argv: tuple = ()
    basepoint: float = 0.0
    points: int = 1  # catalog points the operation certifies
    expect_fail: bool = False

    @property
    def mix_key(self) -> str:
        """kind/family, or identities/<kind>, for the operation mix."""
        if self.kind == "identities":
            return f"identities/{self.case}"
        return f"{self.kind}/{dist.get_spec(self.case).family}"

    def label(self) -> str:
        if self.kind == "g2":
            return f"g2_certificate({self.case!r}, {self.basepoint!r})"
        return "c235 " + " ".join(self.argv)


@dataclass
class Outcome:
    seconds: float
    failure: str | None
    stdout: str = ""


def _specs(kind: str):
    """The catalog cases timed in operations of `kind`, in id order."""
    skip = EXCLUDED.get(kind, ())
    return sorted((s for s in dist.catalog() if s.id not in skip), key=lambda s: s.id)


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def _shuffled_specs(rng, kind: str):
    specs = _specs(kind)
    return [specs[i] for i in rng.permutation(len(specs))]


def _verify_block(rng):
    ops = []
    for s in _shuffled_specs(rng, "verify"):
        vseed = int(rng.integers(2**31))
        argv = ("verify", "--case", s.id, "--points", str(VERIFY_POINTS),
                "--seed", str(vseed))
        ops.append(Op("verify", s.id, argv, points=VERIFY_POINTS,
                      expect_fail=s.expect_fail))
    return ops


def _dual_block(rng):
    certs = []
    for s in _shuffled_specs(rng, "g2"):
        lo, hi = s.domain
        certs.append(Op("g2", s.id, basepoint=float(rng.uniform(lo, hi)),
                        expect_fail=s.expect_fail))
    kinds = [cli.TRANSFORM_KINDS[i] for i in rng.permutation(len(cli.TRANSFORM_KINDS))]
    idents = [
        Op("identities", k, ("identities", "--kind", k, "--samples",
                             str(IDENTITY_SAMPLES), "--seed", str(int(rng.integers(2**31)))),
           points=0)
        for k in kinds
    ]
    # spread the slow identity requests evenly through the fast certificates
    ops = []
    step = len(certs) / len(idents)
    for j, op in enumerate(idents):
        ops.extend(certs[round(j * step):round((j + 1) * step)])
        ops.append(op)
    return ops


def _point_block(rng):
    ops = []
    for s in _shuffled_specs(rng, "curvature"):
        lo, hi = s.domain
        xyzp = rng.uniform(-1.0, 1.0, size=4)
        lam = float(rng.uniform(lo, hi))
        names = ("x", "y", "z", "p", s.param_name)
        point = ",".join(f"{n}={float(v)!r}" for n, v in zip(names, (*xyzp, lam)))
        ops.append(Op("curvature", s.id, ("curvature", "--case", s.id, "--point",
                                           point, "--json")))
    return ops


_BLOCK_BUILDERS = {
    "catalog-verify": _verify_block,
    "dual-certificates": _dual_block,
    "point-queries": _point_block,
}


def operations(workload: str, seed: int, stream: int = 0, blocks: int | None = None) -> list:
    """The operation list of `workload`; stream 0 is measured, others warm up."""
    rng = _rng(workload, seed, stream)
    build = _BLOCK_BUILDERS[workload]
    return [op for _ in range(blocks or BLOCKS[workload]) for op in build(rng)]


# --- known defects --------------------------------------------------------

DEFECT_BASEPOINTS = 300


def _defect_probes() -> list:
    """(defect, operations that fail while it is present), fixed inputs."""
    lo, hi = dist.get_spec(FLOORED_CONTROL).domain
    basepoints = np.random.default_rng(0).uniform(lo, hi, DEFECT_BASEPOINTS)
    floored = [Op("g2", FLOORED_CONTROL, basepoint=float(b), expect_fail=True)
               for b in basepoints]
    z1_case = "H-triple-(-1/2,5/6,2/3)"
    z1_root = [Op("verify", z1_case, ("verify", "--case", z1_case, "--points", "40",
                                      "--seed", "0"), points=40)]
    return [
        (f"{FLOORED_CONTROL} passes its dual certificate (floor in chazy._rel)", floored),
        ("verify reaches an interior zero of z1 (SingularCoframeError)", z1_root),
    ]


def known_defects() -> list:
    """Run fixed operations of the kinds EXCLUDED leaves out; one dict per defect.

    Each gives the defect, how many of its operations still fail and the
    first failure, with its operation. Nothing here is timed or counted in
    a run's `failed`.
    """
    report = []
    for defect, ops in _defect_probes():
        failures = [(op.label(), f) for op in ops
                    if (f := execute(op).failure) is not None]
        first = {"operation": failures[0][0], "reason": failures[0][1]} if failures else None
        report.append({"defect": defect, "present": bool(failures), "failing": len(failures),
                       "operations": len(ops), "first": first})
    return report


# --- execution ------------------------------------------------------------


def execute(op: Op) -> Outcome:
    """Run one operation, timing only the call into c235, then gate it."""
    if op.kind == "g2":
        t0 = time.perf_counter()
        try:
            cert = twistor.g2_certificate(op.case, op.basepoint)
        except Exception as exc:  # the benchmark must keep running
            return Outcome(time.perf_counter() - t0, _raised(exc))
        elapsed = time.perf_counter() - t0
        return Outcome(elapsed, _gate_g2(op, cert), repr(cert["residual"]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the benchmark must keep running
            return Outcome(time.perf_counter() - t0, _raised(exc))
        elapsed = time.perf_counter() - t0
    text = out.getvalue()
    return Outcome(elapsed, _gate_cli(op, code, text, err.getvalue()), text)


def _raised(exc: Exception) -> str:
    """An uncaught exception, with the frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name}"
    return f"raised {type(exc).__name__}: {exc} (at {where})"


def _gate_g2(op: Op, cert: dict) -> str | None:
    res = cert["residual"]
    if not math.isfinite(res):
        return f"residual {res}"
    passed = res < CERT_TOL
    if passed == op.expect_fail:
        return f"residual {res:.3g} {'passes' if passed else 'fails'} but expectFail={op.expect_fail}"
    return None


def _gate_cli(op: Op, code, text: str, err: str) -> str | None:
    expected = 1 if op.expect_fail else 0
    if code != expected:
        detail = err.strip().splitlines()[-1] if err.strip() else ""
        return f"exit {code}, expected {expected} {detail}".rstrip()
    try:
        payload = json.loads(text)
    except ValueError:
        return "stdout is not a JSON report"
    if op.kind == "verify":
        case = payload["cases"][0]
        if case["pass"] == op.expect_fail:
            return f"report pass={case['pass']} but expectFail={op.expect_fail}"
    elif op.kind == "identities":
        if payload["summary"]["failed"]:
            return f"{payload['summary']['failed']} identity samples failed"
    elif op.kind == "curvature":
        rep = payload["report"]
        if rep["signature"] != [2, 3]:
            return f"signature {rep['signature']}"
        arrays = [rep[k] for k in ("christoffel", "riemann", "ricci", "weyl")]
        scalars = [rep[k] for k in ("scalar", "maxAbsWeyl", "maxAbsRicci", "metricScale")]
        if not all(np.isfinite(a).all() for a in arrays + scalars):
            return "non-finite curvature report"
    return None
