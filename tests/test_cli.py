"""Tests for the c235 command-line interface."""

import argparse
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import c235
from c235 import cli, dist, errors, geometry
from c235.cli import main


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


def test_verify_deterministic(capsys):
    argv = ("verify", "--case", "H-power-2", "--points", "4", "--seed", "7", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_verify_tol_env(capsys, monkeypatch):
    monkeypatch.setenv("C235_TOL", "1e-20")
    code, payload, _ = run_json(capsys, "verify", "--case", "F-power-2", "--points", "2", "--json")
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
    assert len(payload["cases"][0]["checks"]) == 30
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
    # a jet that is not finite at one point stops each of that point's checks
    # alone, as an error entry: the report is still written
    for mod in (cli, geometry):
        monkeypatch.setattr(mod, "F_jet", _one_nan_row)
    code, payload, _ = run_json(capsys, "verify", "--case", "F-power-1/3", "--points", "10", "--json")
    assert code == 1
    assert payload["summary"] == {"passed": 0, "failed": 1}
    errors = [c for c in payload["cases"][0]["checks"] if "error" in c]
    residual = "DegenerateError: residual is not finite at this point"
    assert errors == [
        {"name": name, "point": 3, "value": None, "tol": cli.DEFAULT_TOL, "pass": False,
         "error": error}
        for name, error in (("ode_residual_F", residual),
                            ("weyl_flatness", "SingularCoframeError: coframe is not finite at this point"),
                            ("duality_residual", residual))]


def test_verify_and_flatness_suite_share_the_runner(capsys, monkeypatch):
    # verify's weyl_flatness entries are flatness_suite's results, point by
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
    flat = [c for c in payload["cases"][0]["checks"] if c["name"] == "weyl_flatness"]
    suite = suite_of(spec, geometry.sample_points(spec, 10, 0))
    assert [c["point"] for c in flat] == list(range(10))
    assert isinstance(suite[3], errors.SingularCoframeError)
    for i, (c, r) in enumerate(zip(flat, suite)):
        assert c == cli._check("weyl_flatness", i, cli.DEFAULT_TOL, r)


def test_verify_passes_by_a_zero_of_z1(capsys, monkeypatch):
    # the case's former domain holds the zero of z1 at s = 0.9329; at the
    # point s = 0.93308 next to it the coframe's cond is 1.6e18, and the
    # metric is still flat there
    spec = dataclasses.replace(dist.get_spec("H-triple-(-1/2,5/6,2/3)"), domain=(0.05, 0.95))
    monkeypatch.setattr(cli, "get_spec", lambda case_id: spec)
    code, payload, _ = run_json(capsys, "verify", "--case", "H-triple-(-1/2,5/6,2/3)",
                                "--points", "40", "--seed", "0", "--json")
    assert code == 0
    assert payload["summary"] == {"passed": 1, "failed": 0}
    checks = payload["cases"][0]["checks"]
    # an H-picture case has an ODE residual and a flatness check per point
    assert len(checks) == 2 * 40
    assert all(c["pass"] and "error" not in c for c in checks)


def test_verify_makes_no_svd(capsys, monkeypatch):
    # flatness is certified by the Weyl ratio alone, with no conditioning test
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cond or np.linalg.svd called")

    for name in ("cond", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    code, _, _ = run(capsys, "verify", "--case", "H-power--2", "--points", "50", "--json")
    assert code == 0


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
    assert sorted((c["name"], c["point"]) for c in errors) == sorted(
        (name, i) for i in failing
        for name in ("ode_residual_F", "weyl_flatness", "duality_residual"))
    for c in errors:
        assert c["value"] is None and c["pass"] is False
        assert c["error"].startswith("DomainError: no jet at ")
    assert all(c["pass"] for c in checks if "error" not in c)


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
    ricci = payload["report"]["ricci"]
    assert ricci[4][4] == pytest.approx(2.0, rel=1e-8)
    assert payload["report"]["signature"] == [2, 3]


@pytest.mark.parametrize("spec", dist.catalog(), ids=lambda s: s.id)
def test_curvature_names_the_coordinates(capsys, spec):
    # lam is q in the F picture and t in the H picture, except for F-elementary-r
    lam = {"F-elementary-r": "r"}.get(spec.id, "q" if spec.picture == "F_of_q" else "t")
    pt = geometry.sample_points(spec, 1, 400)[0]
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


def _head_curvature_text(case: str, point: str) -> str:
    """The curvature report as json.dumps writes its .tolist() payload: the oracle of the writer."""
    spec = dist.get_spec(case)
    coords = cli._parse_point(point, spec)
    g = geometry.metric_at(geometry.coframe_for_spec(spec, tuple(coords.values())))
    rep = geometry.curvature(g)
    payload = {
        "version": cli.REPORT_VERSION,
        "case": spec.id,
        "point": coords,
        "coords": list(geometry.coframe_coords(spec)),
        "report": {**{k: np.asarray(v).tolist() for k, v in vars(rep).items()},
                   "signature": list(geometry.metric_signature(g))},
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("spec", dist.catalog(), ids=lambda s: s.id)
def test_curvature_report_is_the_json_of_its_lists(capsys, spec):
    # F-power-3, the control, included: every case at 3 seeded points
    for pt in geometry.sample_points(spec, 3, 23):
        point = ",".join(f"{k}={v!r}" for k, v in zip(("x", "y", "z", "p", spec.param_name), pt))
        code, out, _ = run(capsys, "curvature", "--case", spec.id, "--point", point, "--json")
        assert code == 0
        assert out == _head_curvature_text(spec.id, point)


# --- the tensors' writer ---------------------------------------------------------


def _dumps(a: np.ndarray) -> str:
    return json.dumps(a.tolist(), separators=(",", ":"))


SHAPES = [(), (1,), (4,), (1, 1), (2, 3), (3, 1), (1, 4, 1), (2, 1, 3), (5, 5, 5),
          (1, 1, 1, 1), (2, 3, 1, 2), (5, 5, 5, 5)]
# exact zeros, -0.0, a value and its negative, subnormals, the largest double, NaN and inf
SPECIAL = [0.0, -0.0, 0.1, -0.1, 1 / 3, -1 / 3, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
           1.7976931348623157e308, -1.7976931348623157e308, 1e16, 123456789.0, math.nan,
           math.inf, -math.inf]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_the_writer_writes_each_array_as_json_writes_its_list(shape):
    rng = np.random.default_rng(len(shape) + math.prod(shape))
    size = math.prod(shape)
    finite = [v for v in SPECIAL if math.isfinite(v)]
    # a few magnitudes, each with either sign, among zeros: as in a Riemann tensor
    pool = rng.standard_normal(3) * 10.0 ** rng.integers(-300, 300, 3)
    cases = [
        np.zeros(shape),
        np.full(shape, -0.0),
        rng.choice(finite, size).reshape(shape),
        (rng.choice(pool, size) * rng.choice([-1.0, 0.0, 0.0, 1.0], size)).reshape(shape),
        rng.standard_normal(size).reshape(shape),
    ]
    for v in SPECIAL:
        a = rng.choice(pool, size) * rng.choice([-1.0, 0.0, 1.0], size)
        a[rng.integers(size)] = v
        cases.append(a.reshape(shape))
    for a in cases:
        assert cli._json_arrays(["", ""], [a]) == _dumps(a)


def test_the_writer_joins_arrays_and_texts_in_turn():
    rng = np.random.default_rng(7)
    arrays = [rng.choice([0.0, 0.5, -0.5, 1e-310], (5,) * k) for k in (3, 4, 2, 4)]
    texts = ["{", ",", ",x,", "", "}\n"]
    want = texts[0] + "".join(_dumps(a) + t for a, t in zip(arrays, texts[1:]))
    assert cli._json_arrays(texts, arrays) == want
    arrays[2][1, 1] = math.nan  # through json.dumps, with NaN
    want = texts[0] + "".join(_dumps(a) + t for a, t in zip(arrays, texts[1:]))
    assert cli._json_arrays(texts, arrays) == want and "NaN" in want


@pytest.mark.parametrize("text", ["m", "\0"], ids=["text", "placeholder-text"])
def test_emit_writes_the_arrays_of_a_payload_by_value(capsys, text):
    # arrays anywhere in the payload, in the order of the sorted keys; a string that
    # reads as the writer's placeholder is written as itself
    a, k = np.array([[0.0, -0.0], [-2.5, 2.5]]), np.arange(3)
    payload = {"z": a, "a": {"n": 1.5, "t": [a[0], np.float64(0.1), k]}, "m": text}
    cli._emit(payload, argparse.Namespace(out=None, json=True))
    lists = {"z": a.tolist(), "a": {"n": 1.5, "t": [a[0].tolist(), 0.1, [0, 1, 2]]}, "m": text}
    assert capsys.readouterr().out == json.dumps(lists, sort_keys=True, separators=(",", ":")) + "\n"


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
