"""Tests for the c235 command-line interface."""

import argparse
import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import c235
from c235 import cli, dist, errors, geometry
from c235.cli import main
from oracles import CLOSED_FORMS, expand_report, full_curvature, pair_form, weyl_flatness


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# --- list ---------------------------------------------------------------


def test_list_plain(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "F-power-2" in out
    assert "H-ds-curve" in out
    assert "twistor-case-5" in out


def test_list_json_fields(capsys):
    code, payload, _ = run_json(capsys, "list", "--json")
    assert code == 0
    rows = payload["cases"]
    assert len(rows) == 34
    row = next(r for r in rows if r["id"] == "H-two-pole")
    for key in ("id", "picture", "family", "paramName", "domain", "expectFail", "aliases", "note"):
        assert key in row
    assert "twistor-case-5" in row["aliases"]


def test_list_filter(capsys):
    code, payload, _ = run_json(capsys, "list", "--json", "--filter", "picture=H_of_t")
    assert code == 0
    assert all(r["picture"] == "H_of_t" for r in payload["cases"])
    assert len(payload["cases"]) > 0


# --- verify ---------------------------------------------------------------


def test_verify_single_case(capsys):
    code, payload, _ = run_json(capsys, "verify", "--case", "F-power-2", "--points", "3", "--json")
    assert code == 0
    assert payload["summary"]["failed"] == 0
    case = payload["cases"][0]
    assert case["id"] == "F-power-2"
    assert case["pass"] is True


def test_verify_control_case_solo_fails(capsys):
    # asking for a control case explicitly reports its raw failure
    code, payload, _ = run_json(capsys, "verify", "--case", "F-power-3", "--points", "2", "--json")
    assert code == 1
    assert payload["cases"][0]["pass"] is False


def test_verify_all_honours_expect_fail(capsys):
    code, payload, _ = run_json(capsys, "verify", "--points", "2", "--json")
    assert code == 0
    assert payload["summary"]["failed"] == 0
    by_id = {c["id"]: c for c in payload["cases"]}
    assert by_id["F-power-3"]["expectFail"] is True
    assert by_id["F-power-3"]["pass"] is False


def test_verify_reports_one_ode_residual_per_picture(capsys):
    # each point of a case has its picture's own ODE residual and nothing
    # else: the dual residual of an F-picture jet is, by the Legendre
    # duality, the same polynomial as its own, and the frame Weyl tensor is,
    # by the exact identity test_geometry proves, that polynomial too
    code, payload, _ = run_json(capsys, "verify", "--points", "3", "--json")
    assert code == 0
    assert payload["version"] == cli.REPORT_VERSION == 4
    names = {"F_of_q": ("ode_residual_F",), "H_of_t": ("ode_residual_H",)}
    assert len(payload["cases"]) == len(dist.catalog())
    for case in payload["cases"]:
        picture = dist.get_spec(case["id"]).picture
        assert sorted((c["point"], c["name"]) for c in case["checks"]) == [
            (i, name) for i in range(3) for name in names[picture]], case["id"]


def test_verify_deterministic(capsys):
    argv = ("verify", "--case", "H-power-2", "--points", "4", "--seed", "7", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_verify_tol_env(capsys, monkeypatch):
    monkeypatch.setenv("C235_TOL", "1e-20")
    # q^(1/3) reads round-off, which nothing gets below 1e-20; F-power-2 reads exactly 0,
    # since F''' = 0 zeroes every monomial of the sixth-order equation
    code, payload, _ = run_json(capsys, "verify", "--case", "F-power-1/3", "--points", "2", "--json")
    assert payload["config"]["tol"] == 1e-20
    assert code == 1  # nothing is flat to 1e-20


def test_verify_builds_each_jet_once(capsys, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dist.F_jet(*args, **kwargs)

    for mod in (cli, geometry):
        monkeypatch.setattr(mod, "F_jet", counted)
    code, payload, _ = run_json(capsys, "verify", "--case", "F-power-1/3", "--points", "10", "--json")
    assert code == 0
    assert len(payload["cases"][0]["checks"]) == 10
    # one call covers the 10 points
    assert len(calls) == 1
    assert np.shape(calls[0][1]) == (10,)


def _one_nan_row(spec, param, *args, **kwargs):
    # F_jet with a NaN in coefficient 2 of the jet at point 3
    jet = dist.F_jet(spec, param, *args, **kwargs)
    coeffs = jet.coeffs.copy()
    coeffs[3, 2] = np.nan
    return dataclasses.replace(jet, coeffs=coeffs)


def test_verify_reports_a_singular_coframe(capsys, monkeypatch):
    # a jet that is not finite at one point stops that point's check alone, as
    # an error entry: the report is still written. The Weyl chain refuses the
    # same point's coframe, and no other
    for mod in (cli, geometry):
        monkeypatch.setattr(mod, "F_jet", _one_nan_row)
    code, payload, _ = run_json(capsys, "verify", "--case", "F-power-1/3", "--points", "10", "--json")
    assert code == 1
    assert payload["summary"] == {"passed": 0, "failed": 1}
    errors = [c for c in payload["cases"][0]["checks"] if "error" in c]
    assert errors == [
        {"name": "ode_residual_F", "point": 3, "value": None, "tol": cli.DEFAULT_TOL, "pass": False,
         "error": "DegenerateError: residual is not finite at this point"}]
    spec = dist.get_spec("F-power-1/3")
    weyl = weyl_flatness(spec, geometry.sample_points(spec, 10, 0))
    assert [(i, f"{type(r).__name__}: {r}") for i, r in enumerate(weyl) if isinstance(r, geometry.C235Error)] == [
        (3, "SingularCoframeError: coframe is not finite at this point")]
    assert all(r < 1e-7 for r in weyl if not isinstance(r, geometry.C235Error))


@pytest.mark.parametrize("case_id", ["F-power-1/3", "H-power-2"])
@pytest.mark.parametrize("second, error", [
    (0.0, "DegenerateError: {}'' = 0 at the basepoint"),
    (1e-320, "SingularCoframeError: frame is not finite at this point")])
def test_verify_refuses_a_point_off_the_frame(capsys, monkeypatch, case_id, second, error):
    # the residual certifies flatness only where the frame of the Weyl identity is
    # built: F'' = 0 (H'' = 0) at point 3, or a frame that overflows there, gives
    # that point an error entry, and every other point its residual
    def second_derivative_at_3(spec, param, *args, **kwargs):
        jet = dist.F_jet(spec, param, *args, **kwargs)
        coeffs = jet.coeffs.copy()
        coeffs[3, 2] = second
        return dataclasses.replace(jet, coeffs=coeffs)

    for mod in (cli, geometry):
        monkeypatch.setattr(mod, "F_jet", second_derivative_at_3)
    code, payload, _ = run_json(capsys, "verify", "--case", case_id, "--points", "10", "--json")
    assert code == 1
    checks = payload["cases"][0]["checks"]
    assert [c["point"] for c in checks] == list(range(10))
    assert [c for c in checks if "error" in c] == [
        {"name": "ode_residual_" + case_id[0], "point": 3, "value": None, "tol": cli.DEFAULT_TOL,
         "pass": False, "error": error.format(case_id[0])}]
    assert all(c["pass"] for c in checks if c["point"] != 3)


def test_verify_and_flatness_suite_share_the_runner(capsys, monkeypatch):
    # verify's entries are flatness_suite's results, check by check and point by
    # point, from one call of it per case
    for mod in (cli, geometry):
        monkeypatch.setattr(mod, "F_jet", _one_nan_row)
    calls = []
    suite_of = geometry.flatness_suite

    def counted(*args, **kwargs):
        calls.append(args[0].id)
        return suite_of(*args, **kwargs)

    monkeypatch.setattr(geometry, "flatness_suite", counted)
    spec = dist.get_spec("F-power-1/3")
    code, payload, _ = run_json(capsys, "verify", "--case", spec.id, "--points", "10", "--json")
    assert code == 1
    assert calls == [spec.id]
    pts = geometry.sample_points(spec, 10, 0)
    suite = suite_of(spec, pts)
    assert list(suite) == ["ode_residual_F"]
    assert isinstance(suite["ode_residual_F"][3], errors.DegenerateError)
    assert isinstance(weyl_flatness(spec, pts)[3], errors.SingularCoframeError)
    assert payload["cases"][0]["checks"] == [
        cli._check(name, i, cli.DEFAULT_TOL, r)
        for name, outcomes in suite.items() for i, r in enumerate(outcomes)]


def test_verify_passes_by_a_zero_of_z1(capsys, monkeypatch):
    # the case's former domain holds the zero of z1 at s = (2 + sqrt 3)/4 = 0.933013;
    # at the point s = 0.93308 next to it the coframe's cond is 1.6e18, and the
    # metric is still flat there
    spec = dataclasses.replace(dist.get_spec("H-triple-(-1/2,5/6,2/3)"), domain=(0.05, 0.95))
    monkeypatch.setattr(cli, "get_spec", lambda case_id: spec)
    code, payload, _ = run_json(capsys, "verify", "--case", "H-triple-(-1/2,5/6,2/3)",
                                "--points", "40", "--seed", "0", "--json")
    assert code == 0
    assert payload["summary"] == {"passed": 1, "failed": 0}
    checks = payload["cases"][0]["checks"]
    # an H-picture case has one ODE residual per point
    assert len(checks) == 40
    assert all(c["pass"] and "error" not in c for c in checks)
    # and the Weyl chain reads the metric flat at every one of those points
    ratios = weyl_flatness(spec, geometry.sample_points(spec, 40, 0))
    assert all(isinstance(r, float) and r < 1e-7 for r in ratios)


def test_verify_builds_no_coframe_metric_or_curvature(capsys, monkeypatch):
    # the frame Weyl tensor is the residual's left side (test_geometry proves it
    # exactly), so verify certifies each point once, by the residual alone
    def refuse(*args, **kwargs):
        raise AssertionError("verify reached the coframe, metric or curvature")

    for name in ("coframe_for_spec", "metric_at", "curvature", "weyl_ratio"):
        monkeypatch.setattr(geometry, name, refuse)
    code, payload, _ = run_json(capsys, "verify", "--points", "3", "--json")
    assert code == 0 and payload["summary"]["failed"] == 0


def test_verify_makes_no_svd(capsys, monkeypatch):
    # flatness is certified by the Weyl ratio alone, with no conditioning test
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cond or np.linalg.svd called")

    for name in ("cond", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    code, _, _ = run(capsys, "verify", "--case", "H-power--2", "--points", "50", "--json")
    assert code == 0


# near-flat members, each a flat catalog member with one parameter moved by 1e-8: the
# residual grows like eps times a family's sensitivity (3.6e-3 for the power laws), which
# puts each far above DEFAULT_TOL's 1e-11 and far below the 1e-7 that it used to be
EPS = 1e-8
NEAR_FLAT = {
    "F-power-2/3": lambda p: {"m": p["m"] + EPS},
    "H-power-1/2": lambda p: {"m": p["m"] + EPS},
    "F-schwarz-(3,3,3)": lambda p: {**p, "exponents": (p["exponents"][0] + EPS, p["exponents"][1])},
    "H-schwarz-(4/3,4/3,4/3)": lambda p: {**p, "exponents": (p["exponents"][0] + EPS, p["exponents"][1])},
    "F-triple-(-4/3,5/3,2/3)": lambda p: {**p, "abc": dist.HyperTriple(p["abc"].a + EPS, p["abc"].b, p["abc"].c)},
}


@pytest.mark.parametrize("case_id", NEAR_FLAT)
def test_verify_fails_near_flat_members(case_id):
    # on verify's own path, at 10 points for each of seeds 0-9: the member fails on its
    # residual alone, with no error entry, where the flat member itself passes
    flat = dist.get_spec(case_id)
    near = dataclasses.replace(flat, params=NEAR_FLAT[case_id](flat.params))
    for seed in range(10):
        case = cli._verify_case(near, 10, cli.DEFAULT_TOL, seed)
        assert case["pass"] is False, (case_id, seed)
        assert {(c["name"], "error" in c) for c in case["checks"]} == {("ode_residual_" + case_id[0], False)}
        assert cli._verify_case(flat, 10, cli.DEFAULT_TOL, seed)["pass"], (case_id, seed)


@pytest.mark.parametrize("failing", [{3}, set(range(10))], ids=["one-point", "every-point"])
def test_verify_reports_a_failing_jet(capsys, monkeypatch, failing):
    pts = geometry.sample_points(dist.get_spec("F-power-1/3"), 10, 0)
    bad = {pts[i][4] for i in failing}

    def flaky(spec, param, *args, **kwargs):
        dist.DomainError.raise_where(np.isin(param, list(bad)), "no jet at these points")
        return dist.F_jet(spec, param, *args, **kwargs)

    for mod in (cli, geometry):
        monkeypatch.setattr(mod, "F_jet", flaky)
    code, payload, _ = run_json(capsys, "verify", "--case", "F-power-1/3", "--points", "10", "--json")
    assert code == 1
    checks = payload["cases"][0]["checks"]
    errors = [c for c in checks if "error" in c]
    assert sorted((c["name"], c["point"]) for c in errors) == [("ode_residual_F", i) for i in sorted(failing)]
    for c in errors:
        assert c["value"] is None and c["pass"] is False
        assert c["error"].startswith("DomainError: no jet at ")
    assert all(c["pass"] for c in checks if "error" not in c)
    # the Weyl chain meets the same failing jets, at the same points alone
    weyl = weyl_flatness(dist.get_spec("F-power-1/3"), pts)
    assert {i for i, r in enumerate(weyl) if isinstance(r, dist.DomainError)} == failing
    assert all(r < 1e-7 for r in weyl if not isinstance(r, geometry.C235Error))


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    argv = ("verify", "--case", "F-power-2", "--points", "2", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # importing the cli builds nothing
    proc = subprocess.run(
        [sys.executable, "-c", "import c235.cli as c; print(c.build_parser.cache_info().currsize)"],
        capture_output=True, text=True,
    )
    assert proc.stdout.strip() == "0", proc.stderr


def test_verify_flat_case_near_its_domain_end(capsys):
    # at t = 0.051, by the domain's lower end, H = t^-2 gives a coframe of cond
    # 1.04e13, though the metric is flat there
    code, _, _ = run(capsys, "verify", "--case", "H-power--2", "--points", "1000",
                     "--seed", "1", "--json")
    assert code == 0


# --- identities -------------------------------------------------------------


def test_identities_all(capsys):
    code, payload, _ = run_json(capsys, "identities", "--json", "--samples", "4")
    assert code == 0
    kinds = {row["kind"] for row in payload["results"]}
    assert "wronskian" in kinds
    assert all(row["pass"] for row in payload["results"])


def test_wronskian_triple_is_table1_row1():
    assert cli.WRONSKIAN_TRIPLE == CLOSED_FORMS["table1_row1"].hyper


def test_identities_single_kind(capsys):
    code, payload, _ = run_json(capsys, "identities", "--kind", "quadratic", "--json")
    assert code == 0
    assert all(row["kind"] == "quadratic" for row in payload["results"])


# --- curvature ----------------------------------------------------------------


def test_curvature_elementary_ricci(capsys):
    code, payload, _ = run_json(
        capsys, "curvature", "--case", "F-elementary-r",
        "--point", "x=0.1,y=0.2,z=0.3,p=0.4,r=2.0", "--json",
    )
    assert code == 0
    ricci = expand_report(payload["report"])["ricci"]
    assert ricci[4, 4] == pytest.approx(2.0, rel=1e-8)
    assert payload["report"]["signature"] == [2, 3]


@pytest.mark.parametrize("spec", dist.catalog(), ids=lambda s: s.id)
def test_curvature_names_the_coordinates(capsys, spec):
    # lam is q in the F picture and t in the H picture, except for F-elementary-r
    lam = {"F-elementary-r": "r"}.get(spec.id, "q" if spec.picture == "F_of_q" else "t")
    pt = geometry.sample_points(spec, 1, 400)[0].tolist()
    point = ",".join(f"{k}={v!r}" for k, v in zip(("x", "y", "z", "p", spec.param_name), pt))
    code, payload, _ = run_json(capsys, "curvature", "--case", spec.id, "--point", point, "--json")
    assert code == 0
    assert payload["coords"] == ["x", "y", "z", "p", lam]


def test_curvature_of_h_two_pole_keeps_x_apart_from_t(capsys):
    code, payload, _ = run_json(capsys, "curvature", "--case", "H-two-pole",
                                "--point", "x=0.2,y=-0.1,z=0.4,p=0.5,t=0.3", "--json")
    assert code == 0
    assert payload["point"]["x"] == 0.2 and payload["point"]["t"] == 0.3
    assert len(set(payload["coords"])) == 5


@pytest.mark.parametrize("case, point", [
    ("F-power-2", "x=0.1,y=0.2,z=0.3,p=1e308,q=1.5"),  # the metric overflows
    ("F-power--1", "x=0.1,y=0.2,z=0.3,p=1e200,q=5.025"),  # its curvature does
])
def test_curvature_that_overflows_is_refused_in_one_line(capsys, case, point):
    # as CI runs the CLI: an overflow's RuntimeWarning would end in a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "curvature", "--case", case, "--point", point, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("SingularMetricError: ") and err.count("\n") == 1


def test_curvature_overflow_prints_no_warning():
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "c235.cli", "curvature", "--case", "F-power-2",
         "--point", "x=0.1,y=0.2,z=0.3,p=1e308,q=1.5", "--json"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "SingularMetricError: metric is singular at this point\n"


# one of x, y, z, p is moved to a finite value far out: 6 values at 4 coordinates of 34 cases
EXTREMES = (1e154, 1e200, 1e300, 1e308, -1e308, sys.float_info.max)


def _refuse_constant(name):
    raise AssertionError(f"{name} in the report")


def test_curvature_at_extreme_points_reports_or_refuses_in_one_line(capsys):
    # as CI runs the CLI, with RuntimeWarnings as errors: each probe gives the canonical
    # strict JSON of a finite report, or exit 2 with one SingularMetricError line
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for spec in dist.catalog():
            for coord in ("x", "y", "z", "p"):
                for value in EXTREMES:
                    coords = {"x": 0.1, "y": 0.2, "z": 0.3, "p": 0.4,
                              spec.param_name: sum(spec.domain) / 2, coord: value}
                    point = ",".join(f"{k}={v!r}" for k, v in coords.items())
                    code, out, err = run(capsys, "curvature", "--case", spec.id, "--point", point,
                                         "--json")
                    if code == 0:
                        doc = json.loads(out, parse_constant=_refuse_constant)
                        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                        assert err == ""
                    else:
                        assert (code, out) == (2, ""), (spec.id, point)
                        assert err.startswith("SingularMetricError: ") and err.count("\n") == 1
                    codes.append(code)
    # six more report than with whole Riemann and Weyl tensors: at p = 1e154 four
    # H-schwarz cases overflowed only in slots off the pair form, which curvature no
    # longer computes; at p = 1e200 and 1e300 H-power--2's exact Legendre frame
    # gives a metric whose curvature is finite
    assert (codes.count(0), codes.count(2)) == (639, 177)


@pytest.mark.parametrize("case, param, at, jets", [
    ("F-triple-(-2/3,5/6,1/2)", "s=0.5", {"q": 1.7466998789056822}, 1),
    ("H-schwarz-(2/3,2/3,2/3)", "s=0.6", {"t": 0.3}, 1),
    ("F-elementary-r", "r=2.0", {"r": 2.0}, 0),  # its frame is built in r, not from F_jet
    ("F-power-2", "q=1.5", {"q": 1.5}, 1),
])
def test_curvature_says_where_its_tensors_are(capsys, monkeypatch, case, param, at, jets):
    # the value of the frame's fifth coordinate, read from the one F_jet the query builds
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return dist.F_jet(*args, **kwargs)

    for mod in (cli, geometry):
        monkeypatch.setattr(mod, "F_jet", counted)
    code, payload, _ = run_json(capsys, "curvature", "--case", case,
                                "--point", f"x=0.1,y=0.2,z=0.3,p=0.4,{param}", "--json")
    assert code == 0
    assert payload["at"] == at
    assert list(at) == payload["coords"][4:]
    assert len(calls) == jets


@pytest.mark.parametrize("spec", dist.catalog(), ids=lambda s: s.id)
def test_curvature_report_is_the_json_of_its_lists(capsys, spec):
    # F-power-3, the control, included: every case at 3 seeded points. Christoffel and
    # Ricci are written whole; Riemann and Weyl, antisymmetric only to round-off, are
    # rebuilt from one slot of each class
    for pt in geometry.sample_points(spec, 3, 23).tolist():
        point = ",".join(f"{k}={v!r}" for k, v in zip(("x", "y", "z", "p", spec.param_name), pt))
        code, out, _ = run(capsys, "curvature", "--case", spec.id, "--point", point, "--json")
        assert code == 0
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        g = geometry.metric_at(geometry.coframe_for_spec(spec, pt))
        rep, whole = geometry.curvature(g), full_curvature(g)
        full = expand_report(doc["report"])
        assert np.array_equal(full["christoffel"], rep.christoffel)
        assert np.array_equal(full["ricci"], rep.ricci)
        for name in ("riemann", "weyl"):
            assert doc["report"][name] == getattr(rep, name).tolist()
            assert np.max(np.abs(full[name] - getattr(whole, name))) <= 1e-13 * rep.metricScale
        for name in ("scalar", "maxAbsWeyl", "maxAbsRicci", "metricScale"):
            assert doc["report"][name] == getattr(rep, name)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_curvature_report_slots_are_the_whole_tensor_kernels(capsys, monkeypatch, seed):
    # the benchmark's point-queries inputs: each report's Riemann and Weyl are the
    # whole-tensor kernel's on the pair-form slots, bit for bit, from the same metric
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for op in workloads.operations("point-queries", seed, blocks=1):
        code, payload, _ = run_json(capsys, *op.argv)
        assert code == 0
        spec = dist.get_spec(op.case)
        pt = [payload["point"][k] for k in ("x", "y", "z", "p", spec.param_name)]
        g = geometry.metric_at(geometry.coframe_for_spec(spec, pt))
        whole = full_curvature(g)
        report = payload["report"]
        for name in ("riemann", "weyl"):
            assert report[name] == pair_form(getattr(whole, name)).tolist(), (op.case, name)
        assert report["christoffel"] == whole.christoffel[(..., *geometry.PAIRS)].tolist()
        assert report["ricci"] == whole.ricci[geometry.PAIRS].tolist()
        assert report["maxAbsWeyl"] == np.max(np.abs(pair_form(whole.weyl)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_emit_refuses_what_is_not_strict_json_and_writes_nothing(capsys, tmp_path, bad):
    target = tmp_path / "report.json"
    with pytest.raises(ValueError):
        cli._emit({"report": {"weyl": [0.0, bad]}}, argparse.Namespace(out=str(target), json=True))
    assert capsys.readouterr().out == ""
    assert not target.exists()


# --- refused input -------------------------------------------------------------

VERIFY_ONE = ("verify", "--case", "F-power-2", "--points", "2", "--json")
REFUSED = [
    pytest.param(("verify", "--case", "no-such-case"), None,
                 "UnknownCaseId", "no-such-case", id="verify-unknown-case"),
    pytest.param(("curvature", "--case", "nope", "--point", "x=0,y=0,z=0,p=0,q=1"), None,
                 "UnknownCaseId", "nope", id="curvature-unknown-case"),
    *(pytest.param((command, f"--tol={tol}", "--json"), None, "InvalidParam", "--tol",
                   id=f"{command}-tol={tol}")
      for command in ("verify", "identities") for tol in ("nan", "inf", "-inf", "0", "-1e-7")),
    *(pytest.param(VERIFY_ONE, value, "InvalidParam", "C235_TOL", id=f"C235_TOL={value}")
      for value in ("abc", "nan", "inf")),
    pytest.param(("verify", "--points", "0"), None, "InvalidParam", "--points", id="points-0"),
    pytest.param(("identities", "--samples", "0"), None, "InvalidParam", "--samples",
                 id="samples-0"),
    # counts whose samples numpy refuses to allocate (35.5 PiB and more), at once
    *(pytest.param((*argv, str(n)), None, "InvalidParam", argv[-1], id=f"{argv[-1][2:]}-{n}")
      for argv in (("verify", "--case", "F-power-2", "--points"),
                   ("identities", "--kind", "wronskian", "--samples"))
      for n in (10 ** 15, 2 ** 62)),
    pytest.param(("identities", "--kind", "nonsense"), None, "InvalidParam", "nonsense",
                 id="unknown-kind"),
    pytest.param(("list", "--filter", "planet=mars"), None, "InvalidParam", "planet",
                 id="unknown-filter-key"),
    pytest.param(("list", "--filter", "planet"), None, "InvalidParam", "--filter",
                 id="filter-without-value"),
    pytest.param(("curvature", "--case", "F-power-2", "--point", "x=1,y"), None,
                 "InvalidParam", "malformed", id="malformed-point"),
    pytest.param(("curvature", "--case", "F-power-2", "--point", "x=1,y=2"), None,
                 "InvalidParam", "missing coordinates: z, p, q", id="point-missing-coordinates"),
    pytest.param(("curvature", "--case", "F-power-2", "--point", "x=0,y=0,z=0,p=0,q=-5"), None,
                 "DomainError", "outside admissible", id="point-outside-domain"),
    # every case past either end of its domain; F-elementary-r builds its frame without F_jet
    *(pytest.param(("curvature", "--case", spec.id, "--point",
                    f"x=0.1,y=0.2,z=0.3,p=0.4,{spec.param_name}={value!r}", "--json"), None,
                   "DomainError", f"{spec.id}: basepoint outside admissible [{lo}, {hi}]\n",
                   id=f"{spec.id}-{end}")
      for spec in dist.catalog() for lo, hi in [spec.domain]
      for end, value in (("hi+1", hi + 1), ("lo-0.01", lo - 0.01))),
    # a coordinate that is not finite, not one of the five names, or given twice
    pytest.param(("curvature", "--case", "F-power-2", "--point", "x=nan,y=0,z=0,p=0.1,q=1"),
                 None, "InvalidParam", "x=nan is not finite", id="point-nan"),
    pytest.param(("curvature", "--case", "F-power-2", "--point", "x=0,y=0,z=0,p=inf,q=1"),
                 None, "InvalidParam", "p=inf is not finite", id="point-inf"),
    pytest.param(("curvature", "--case", "F-power-2", "--point", "x=0,y=0,z=0,p=0.1,q=1,w=7"),
                 None, "InvalidParam", "unknown coordinate 'w'", id="point-unknown-name"),
    pytest.param(("curvature", "--case", "F-power-2", "--point", "x=0,y=0,z=0,p=0.1,q=1,q=2"),
                 None, "InvalidParam", "'q' is given twice", id="point-repeated-name"),
    *(pytest.param((command, "--seed", "-1", "--json"), None, "InvalidParam", "--seed",
                   id=f"{command}-seed--1")
      for command in ("verify", "identities")),
    # an --out that cannot be written is refused before the subcommand runs
    *(pytest.param((*argv, "--out", "missing-dir/x.json"), None, "InvalidParam",
                   "no directory 'missing-dir'", id=f"{argv[0]}-out-missing-dir")
      for argv in (("list",), VERIFY_ONE)),
    pytest.param(("list", "--out", "."), None, "InvalidParam", "is a directory",
                 id="list-out-directory"),
]


@pytest.mark.parametrize("argv, env_tol, error, needle", REFUSED)
def test_refused_input_exits_2(capsys, monkeypatch, tmp_path, argv, env_tol, error, needle):
    # main alone maps a refused input to exit 2: one "<Class>: message" line
    # on stderr, and nothing on stdout
    monkeypatch.chdir(tmp_path)  # where the --out paths above are relative to
    if env_tol is not None:
        monkeypatch.setenv("C235_TOL", env_tol)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    name, message = err.split(": ", 1)
    assert name == error and issubclass(getattr(errors, name), errors.C235Error)
    assert needle in message


def test_no_subcommand_prints_the_usage_and_exits_2(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert out.startswith("usage: c235") and err == ""


def _exits(capsys, *argv):
    """main's exit code, with argparse's SystemExit read as one, and its stdout and stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_the_top_level_parser_keeps_its_own_arguments(capsys):
    parser = cli.build_parser()
    assert _exits(capsys, "--version") == (0, f"c235 {c235.__version__}\n", "")
    assert _exits(capsys, "--help") == (0, parser.format_help(), "")
    code, out, err = _exits(capsys, "nope")
    assert (code, out) == (2, "") and "invalid choice: 'nope'" in err
    code, out, err = _exits(capsys, "--json", "list")
    assert (code, out) == (2, "") and "unrecognized arguments" in err


def test_a_subcommand_parses_its_own_arguments_once(capsys, monkeypatch):
    verify = cli.build_parser().commands["verify"]
    assert _exits(capsys, "verify", "--help") == (0, verify.format_help(), "")
    assert verify.format_help().startswith("usage: c235 verify")
    # argparse refuses an argument the subcommand does not take, and names the subcommand
    for flag in ("--version", "--bogus"):
        code, out, err = _exits(capsys, "verify", flag)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == f"c235 verify: error: unrecognized arguments: {flag}"
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    code, _, _ = _exits(capsys, "verify", "--case", "F-power-2", "--points", "1", "--json")
    assert code == 0 and calls == ["c235 verify"]


def test_unwritable_out_is_refused_before_any_case_runs(capsys, monkeypatch, tmp_path):
    def no_case(*_):
        raise AssertionError("verify ran a case")

    monkeypatch.setattr(cli, "_verify_case", no_case)
    code, out, err = run(capsys, "verify", "--out", str(tmp_path / "missing-dir" / "x.json"))
    assert (code, out) == (2, "") and err.startswith("InvalidParam: ")


def test_a_failed_write_is_invalid_param(tmp_path):
    # an OSError while writing --out (here its directory is a file) becomes InvalidParam
    (tmp_path / "file").write_text("")
    args = argparse.Namespace(out=str(tmp_path / "file" / "x.json"), json=False)
    with pytest.raises(errors.InvalidParam, match="cannot write --out"):
        cli._emit({"version": 1}, args)


# --- output file and console script -------------------------------------------


@pytest.mark.parametrize("argv", [
    ("list",),
    ("verify", "--case", "F-power-1/3"),
    ("identities", "--kind", "euler", "--samples", "2"),
    ("curvature", "--case", "F-elementary-r", "--point", "x=0.1,y=0.2,z=0.3,p=0.4,r=2.0"),
], ids=lambda argv: argv[0])
def test_reports_are_one_sorted_json_line(tmp_path, capsys, argv):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, *argv, "--json", "--out", str(target))
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert target.read_bytes() == out.encode()


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--case", "F-power-2", "--points", "2", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["summary"]["failed"] == 0


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "c235.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "c235" in proc.stdout
