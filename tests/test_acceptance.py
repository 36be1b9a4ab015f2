"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
"[criterion N] ... PASS/FAIL" line (visible with pytest -s or on failure).
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from c235.chazy import (
    DUAL_SIXTH_ORDER,
    SchwarzTriple,
    residual_6th,
    residual_ds6,
    residual_gen_chazy,
    schwarz_solution,
    two_pole_solution,
)
from c235.cli import main as cli_main
from c235.dist import F_jet, catalog, get_spec, legendre_transform
from c235.errors import C235Error
from c235.geometry import (
    build_coframe,
    conformal_rescale_check,
    curvature,
    metric_at,
    sample_points,
)
from c235.jets import jet_const, jet_log, jet_var
from c235.specialfn import (
    HyperTriple,
    hyp2f1_jet,
    hypergeom_pair,
    transform_identity_check,
    wronskian_check,
)
from c235.twistor import g2_certificate

from oracles import (
    CLOSED_FORMS,
    chazy_log_solution,
    closed_form_ode_residual,
    closed_form_pair,
    coordinate_change_mismatch,
    derivative_oracle,
    dual_coframe,
    elementary_frame,
    full_curvature,
    identity_q,
    jet_abs_pow,
    jet_exp,
    legendre_pair_map,
    omega_factor,
    parametrized_y,
    residual_chazy,
    ricci_identity_check,
    riemann_symmetry_error,
    twistor_annihilators,
    weyl_flatness,
    weyl_identity_misses,
    weyl_trace_error,
)

K23 = Fraction(2, 3)
K32 = Fraction(3, 2)
POINT4 = (0.3, -0.2, 0.5, 0.7)


def report(n: int, label: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {n}] {label}: {status}")
    assert not failures, failures[:10]


def param_samples(spec, n=10, seed=0):
    lo, hi = spec.domain
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=n)


# --- 1. flat-family residuals ------------------------------------------------


def test_criterion_1_flat_family_residuals():
    failures = []
    start = time.monotonic()
    for spec in catalog():
        if spec.expect_fail:
            continue
        residual = residual_6th if spec.picture == "F_of_q" else residual_ds6
        for lam in param_samples(spec, 10):
            r = residual(F_jet(spec, float(lam)))
            if not r < 1e-8:
                failures.append((spec.id, float(lam), r))
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    report(1, "flat-family residuals < 1e-8 at 10 points, < 10 s", failures)


# --- 2. generalised-Chazy residuals -------------------------------------------

LOG_CASES = [
    ((Fraction(-2, 3), Fraction(5, 6), Fraction(1, 2)), K23),
    ((Fraction(-4, 3), Fraction(5, 3), Fraction(2, 3)), K23),
    ((Fraction(-2, 3), Fraction(5, 6), Fraction(2, 3)), K23),
    ((Fraction(-1, 4), Fraction(5, 12), Fraction(1, 2)), K32),
    ((Fraction(-1, 4), Fraction(5, 12), Fraction(2, 3)), K32),
    ((Fraction(-1, 2), Fraction(5, 6), Fraction(2, 3)), K32),
]

PARAM_CASES = [
    ((3, 3, 3), "sum222", K23),
    ((Fraction(4, 3), Fraction(4, 3), Fraction(4, 3)), "sum222", K32),
    ((3, Fraction(1, 3), Fraction(1, 3)), "sum222", K23),
    ((Fraction(3, 2), Fraction(1, 3), Fraction(1, 2)), "w123", K23),
    ((Fraction(3, 2), 3, Fraction(1, 2)), "w123", K23),
    ((Fraction(3, 2), Fraction(1, 3), Fraction(9, 2)), "w123", K23),
    ((Fraction(3, 2), Fraction(1, 2), Fraction(1, 3)), "w132", K23),
    ((6, Fraction(3, 2), Fraction(3, 2)), "w411", K23),
    ((Fraction(2, 3), Fraction(3, 2), Fraction(3, 2)), "w411", K23),
    ((Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)), "w411", K23),
]


def test_criterion_2_generalised_chazy_residuals():
    failures = []
    # log-derivative constructions
    for abc, k in LOG_CASES:
        z1, z2 = hypergeom_pair(HyperTriple(*abc), 0.3)
        _, y = chazy_log_solution(z1, z2)
        r = residual_gen_chazy(y, k)
        if not r < 1e-8:
            failures.append(("log", abc, r))
    # parametrised constructions
    for abc, weights, k in PARAM_CASES:
        s = schwarz_solution(SchwarzTriple(*abc), 0.3)
        y = parametrized_y(s, weights)
        r = residual_gen_chazy(y, k)
        if not r < 1e-8:
            failures.append((weights, abc, r))
    # two-pole constructions
    for k in (K23, K32):
        y = two_pole_solution(k, 0.0, -1.0, 2.0)
        r = residual_gen_chazy(y, k)
        if not r < 1e-8:
            failures.append(("two-pole", k, r))
    # leading-order solutions c/x
    for k in (K23, K32):
        kf = float(k)
        for c in (-6.0, -3.0 + kf / 2.0, -3.0 - kf / 2.0):
            x0 = 0.7
            y = jet_const(c, x0, 8) / jet_var(x0, 8)
            r = residual_gen_chazy(y, k)
            if not r < 1e-8:
                failures.append(("leading", k, c, r))
    # the (0,0,0) case solves the classical equation
    s = schwarz_solution(SchwarzTriple(0, 0, 0), 0.3)
    y = parametrized_y(s, "sum222")
    if not residual_chazy(y) < 1e-9:
        failures.append(("darboux-halphen", residual_chazy(y)))
    report(2, "generalised-Chazy constructions < 1e-8, classical < 1e-9", failures)


# --- 3. duality ----------------------------------------------------------------


def test_criterion_3_legendre_duality():
    failures = []
    for spec in catalog():
        if spec.picture != "F_of_q" or spec.expect_fail:
            continue
        for lam in param_samples(spec, 3, seed=1):
            F = F_jet(spec, float(lam))
            _, H = legendre_transform(F)
            r = residual_ds6(H)
            if not r < 1e-8:
                failures.append(("flat-to-flat", spec.id, float(lam), r))
            _, F_back = legendre_transform(H)
            if not np.allclose(F_back.coeffs[:7], F.coeffs[:7], atol=1e-10):
                failures.append(("involution", spec.id, float(lam)))
    for s0 in (0.2, 0.3, 0.45):
        z1, z2 = closed_form_pair("table1_row1", s0)
        w1, _ = legendre_pair_map(z1, z2, "F_to_H")
        lhs = (z1 ** 3).value()
        rhs = 1.0 / (w1 ** 4).value()
        if not abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs)):
            failures.append(("pair-map", s0, lhs, rhs))
    report(3, "Legendre duality, involution, pair map", failures)


# --- 4. hypergeometric layer -----------------------------------------------------


def test_criterion_4_hypergeometric_layer():
    failures = []
    for family in CLOSED_FORMS:
        s0 = 1.4 if family == "elementary_r" else 0.35
        r = closed_form_ode_residual(family, s0)
        if not r < 1e-10:
            failures.append(("closed-form", family, r))
    truncations = [
        (HyperTriple(-4, -1, -2), lambda s: 1.0 - 2.0 * s),
        (
            HyperTriple(Fraction(-4, 3), Fraction(5, 3), Fraction(2, 3)),
            lambda s: (3 * s * s - 4 * s + 1) * (1 - s) ** (-2.0 / 3.0),
        ),
        (HyperTriple(Fraction(-4, 3), -1, -2), lambda s: 1.0 - 2.0 * s / 3.0),
        (HyperTriple(Fraction(-4, 3), -1, Fraction(2, 3)), lambda s: 1.0 + 2.0 * s),
    ]
    for s0 in (0.1, 0.25, 0.4, 0.6, 0.8):
        for triple, closed in truncations:
            got = hyp2f1_jet(triple, s0, 4).value()
            if abs(got - closed(s0)) > 1e-12 * max(1.0, abs(closed(s0))):
                failures.append(("truncation", triple, s0, got))
    p = CLOSED_FORMS["table1_row1"].hyper
    pair = lambda s: hypergeom_pair(p, s)
    for s0 in (0.2, 0.35, 0.6, 0.8):
        w = wronskian_check(pair, p, 0.5, s0)
        if not w < 1e-9:
            failures.append(("wronskian", s0, w))
    rng = np.random.default_rng(4)
    for kind in (
        "euler", "quadratic", "cubic", "degree4", "degree6",
        "frac_linear_1ms", "frac_linear_s_over_sm1",
    ):
        hi = 0.45 if kind == "quadratic" else 0.92
        for s0 in rng.uniform(0.08, hi, size=10):
            v = transform_identity_check(kind, float(s0))
            if not v < 1e-10:
                failures.append(("identity", kind, float(s0), v))
    report(4, "closed forms, truncations, Wronskian, 7 identities", failures)


# --- 5. curvature ------------------------------------------------------------------


def test_criterion_5_curvature():
    failures = []
    for spec in catalog():
        pts = sample_points(spec, 3 if spec.expect_fail else 10, seed=5)
        out = weyl_flatness(spec, pts)
        if any(isinstance(r, C235Error) for r in out):
            failures.append(("error", spec.id))
        elif spec.expect_fail:
            if not all(r > 1e-3 for r in out):
                failures.append(("control", spec.id))
        elif not all(r < 1e-7 for r in out):
            failures.append(("flatness", spec.id))
    # explicit example: coordinate Ricci 6/(r^2 - 1) and its flattening rescale
    for r0 in (1.6, 2.3):
        q_of, F_of = elementary_frame(r0, (1, 0, 0, 1))
        rep = curvature(metric_at(build_coframe(q_of, F_of, POINT4)))
        expected = 6.0 / (r0 * r0 - 1.0)
        if abs(rep.ricci[4, 4] - expected) > 1e-8 * abs(expected):
            failures.append(("ricci-rr", r0, rep.ricci[4, 4]))
        nu = 1.0 / omega_factor(r0)
        if nu.value() < 0:
            nu = -nu
        out = conformal_rescale_check(q_of, F_of, nu, POINT4)
        if not out["ricciMax"] < 1e-7:
            failures.append(("rescale", r0, out["ricciMax"]))
    # the Ricci identity in the reduced frame
    for q0, a in [(1.2, 1.0 / 3.0), (0.8, 3.0), (1.5, 2.0)]:
        err = ricci_identity_check(identity_q(q0), jet_abs_pow(jet_var(q0, 8), a), POINT4)
        if not err < 1e-8:
            failures.append(("ricci-identity", a, err))
    # 40 nu'' + (6I' - I^2) nu = 0  <=>  rescaled Ricci = 0, both directions
    q0 = 1.4
    F13 = jet_abs_pow(jet_var(q0, 8), 1.0 / 3.0)
    sol = conformal_rescale_check(identity_q(q0), F13, jet_abs_pow(jet_var(q0, 8), 1.0 / 3.0), POINT4)
    if not (abs(sol["odeValue"]) < 1e-10 and sol["ricciMax"] < 1e-7):
        failures.append(("rescale-forward", sol))
    non = conformal_rescale_check(identity_q(q0), F13, jet_abs_pow(jet_var(q0, 8), 0.5), POINT4)
    if not (abs(non["odeValue"]) > 1e-3 and abs(non["computed"]) > 1e-4 and non["mismatch"] < 1e-8):
        failures.append(("rescale-converse", non))
    report(5, "Weyl flatness, controls, Ricci identities, rescale", failures)


# --- 6. dual Weyl correspondence ------------------------------------------------------


def test_criterion_6_dual_weyl_correspondence():
    failures = []
    # exactly, at 3 random rational points: C(theta^2, theta^5, theta^2, theta^5) (H'')^8
    # is LHS_dual / 100, and every other frame component is 0
    misses = weyl_identity_misses("H_of_t", DUAL_SIXTH_ORDER, 3, seed=1)
    if misses:
        failures.append(("identity", misses))
    spec = get_spec("H-triple-(-1/4,5/12,1/2)")
    H = F_jet(spec, 0.35)
    rep = curvature(metric_at(dual_coframe(H, POINT4)))
    if not (residual_ds6(H) < 1e-9 and rep.maxAbsWeyl / rep.metricScale < 1e-9):
        failures.append(("flat", residual_ds6(H), rep.maxAbsWeyl / rep.metricScale))
    report(6, "single Weyl component is the ODE left side, exactly", failures)


# --- 7. twistor layer --------------------------------------------------------------------

FINAL_THEOREM_CASES = [
    "H-schwarz-(4/3,4/3,4/3)", "H-schwarz-(4/3,1/3,1/3)",          # case 1
    "H-schwarz-(2/3,1/2,1/3)", "H-schwarz-(2/3,1/2,4/3)",
    "H-schwarz-(2/3,2,1/3)",                                        # case 2
    "H-schwarz-(8/3,2/3,2/3)", "H-schwarz-(2/3,2/3,2/3)",          # case 3
    "H-power--2", "H-power--1/2", "H-power-1/2", "H-power-2",       # case 4
    "H-two-pole",                                                    # case 5
    "F-schwarz-(3,3,3)", "F-schwarz-(3,1/3,1/3)",                   # case 6(a)
    "F-schwarz-(3/2,1/3,1/2)", "F-schwarz-(3/2,3,1/2)",
    "F-schwarz-(3/2,1/3,9/2)",                                      # case 6(b)
    "F-schwarz-(6,3/2,3/2)", "F-schwarz-(2/3,3/2,3/2)",            # case 6(c)
    "F-power--1", "F-power-1/3", "F-power-2/3", "F-power-2",        # case 6(d)
    "F-two-pole",                                                    # case 6(e)
]


def test_criterion_7_twistor_layer():
    # the coordinate change, exact for every H, plus the dual residual per case
    failures = [("coordinate", entry) for entry in coordinate_change_mismatch(twistor_annihilators())]
    for case_id in FINAL_THEOREM_CASES:
        spec = get_spec(case_id)
        lo, hi = spec.domain
        t0 = 0.5 * (lo + hi) if hi < 2 else lo + 0.4
        out = g2_certificate(case_id, t0)
        if not out["residual"] < 1e-8:
            failures.append(("certificate", case_id, out["residual"]))
    report(7, "twistor coordinate change and certificates", failures)


# --- 8. infrastructure -----------------------------------------------------------------------


ORACLE_FUNCS = [
    (np.exp, 0.3),
    (np.log, 1.7),
    (np.sqrt, 2.1),
    (lambda x: x ** 2.5, 1.4),
    (lambda x: 1.0 / (1.0 + x * x), 0.6),
    (lambda x: x ** 3 - 2.0 * x, -0.8),
    (lambda x: np.exp(-x * x), 0.4),
    (lambda x: np.abs(x) ** (1.0 / 3.0), 1.9),
    (lambda x: np.exp(x) / (2.0 + x), 0.2),
    (lambda x: np.log(1.0 + x * x), 1.1),
]

ORACLE_JETS = [
    lambda x0: jet_exp(jet_var(x0, 8)),
    lambda x0: jet_log(jet_var(x0, 8)),
    lambda x0: jet_abs_pow(jet_var(x0, 8), 0.5),
    lambda x0: jet_abs_pow(jet_var(x0, 8), 2.5),
    lambda x0: 1.0 / (1.0 + jet_var(x0, 8) * jet_var(x0, 8)),
    lambda x0: jet_var(x0, 8) ** 3 - 2.0 * jet_var(x0, 8),
    lambda x0: jet_exp(-(jet_var(x0, 8) * jet_var(x0, 8))),
    lambda x0: jet_abs_pow(jet_var(x0, 8), 1.0 / 3.0),
    lambda x0: jet_exp(jet_var(x0, 8)) / (2.0 + jet_var(x0, 8)),
    lambda x0: jet_log(1.0 + jet_var(x0, 8) * jet_var(x0, 8)),
]


def test_criterion_8_infrastructure(capsys):
    failures = []
    for (f, x0), make_jet in zip(ORACLE_FUNCS, ORACLE_JETS):
        jet = make_jet(x0)
        for k in range(1, 7):
            got = jet.deriv(k)
            want = derivative_oracle(f, x0, k)
            scale = max(abs(want), 1.0)
            if abs(got - want) > 1e-5 * scale:
                failures.append(("oracle", x0, k, got, want))
    # curvature report internal identities
    q_of = jet_var(1.3, 8)
    g = metric_at(dual_coframe(jet_var(1.3, 8) ** 3, POINT4))
    rep = full_curvature(g)
    if not riemann_symmetry_error(rep) < 1e-9:
        failures.append(("riemann-symmetry", riemann_symmetry_error(rep)))
    if not weyl_trace_error(rep, g) < 1e-9:
        failures.append(("weyl-trace", weyl_trace_error(rep, g)))
    # CLI exit codes and determinism
    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    code_all, _ = run("verify", "--points", "2", "--json")
    code_ctl, _ = run("verify", "--case", "F-power-3", "--points", "2", "--json")
    code_unknown, _ = run("verify", "--case", "does-not-exist")
    if (code_all, code_ctl, code_unknown) != (0, 1, 2):
        failures.append(("exit-codes", code_all, code_ctl, code_unknown))
    _, out1 = run("verify", "--case", "F-power-2", "--points", "3", "--json")
    _, out2 = run("verify", "--case", "F-power-2", "--points", "3", "--json")
    if out1 != out2 or json.loads(out1)["summary"]["failed"] != 0:
        failures.append(("determinism",))
    report(8, "jet oracle, curvature identities, CLI contracts", failures)
