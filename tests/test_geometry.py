"""Tests for the 5D coframe, metric, and curvature machinery."""

import numpy as np
import pytest

from c235.chazy import residual_ds6
from c235.dist import F_jet, catalog, get_spec, legendre_transform
from c235.chazy import residual_6th
from c235.errors import (
    BranchError,
    DegenerateError,
    DomainError,
    SingularCoframeError,
    SingularMetricError,
)
from c235.geometry import (
    DIM,
    ETA,
    MetricJet,
    _coframe,
    _coords,
    _frame_coeffs,
    build_coframe,
    coframe_H,
    coframe_for_spec,
    conformal_rescale_check,
    curvature,
    flatness_suite,
    frame_jets_for_spec,
    metric_at,
    metric_signature,
    on_regular_rows,
    reduced_metric,
    ricci_identity_check,
    riemann_symmetry_error,
    sample_points,
    weyl_equals_residual_check,
    weyl_trace_error,
)
from c235.jets import Jet1, MJet2, jet_abs_pow, jet_const, jet_var
from c235.specialfn import ClosedFormId, closed_form_solution

POINT4 = (0.3, -0.2, 0.5, 0.7)


def power_F(q0: float, a: float, order: int = 8) -> Jet1:
    return jet_abs_pow(jet_var(q0, order), a)


def identity_q(q0: float, order: int = 8) -> Jet1:
    return jet_var(q0, order)


# --- coframe and metric basics -------------------------------------------


def test_eta_matrix():
    assert ETA[0, 4] == ETA[4, 0] == 1.0
    assert ETA[1, 3] == ETA[3, 1] == -1.0
    assert ETA[2, 2] == pytest.approx(4.0 / 3.0)
    mask = np.ones((5, 5), dtype=bool)
    for i, j in [(0, 4), (4, 0), (1, 3), (3, 1), (2, 2)]:
        mask[i, j] = False
    assert np.all(ETA[mask] == 0.0)


def test_metric_signature_is_2_3():
    q0 = 1.4
    cf = build_coframe(identity_q(q0), power_F(q0, 2.0), POINT4)
    g = metric_at(cf)
    assert metric_signature(g) == (2, 3)


def test_quadratic_F_is_weyl_flat():
    for q0 in (0.7, 1.4, -2.1):
        cf = build_coframe(identity_q(q0), power_F(q0, 2.0), POINT4)
        rep = curvature(metric_at(cf))
        assert rep.maxAbsWeyl / rep.metricScale < 1e-9


def test_cubic_F_control_is_not_flat():
    cf = build_coframe(identity_q(1.3), power_F(1.3, 3.0), POINT4)
    rep = curvature(metric_at(cf))
    assert rep.maxAbsWeyl / rep.metricScale > 1e-3


def test_reduced_metric_equals_full_metric():
    q0 = 1.25
    q_of = identity_q(q0)
    F_of = power_F(q0, 2.5)
    g_full = metric_at(build_coframe(q_of, F_of, POINT4))
    g_red = reduced_metric(q_of, F_of, POINT4)
    scale = np.max(np.abs(g_full.value))
    assert np.max(np.abs(g_full.value - g_red.value)) < 1e-12 * scale
    assert np.max(np.abs(g_full.grad - g_red.grad)) < 1e-11 * scale
    assert np.max(np.abs(g_full.hess - g_red.hess)) < 1e-10 * scale


# --- the dense metric against the MJet2 scalar pipeline --------------------


def _lam(jet: Jet1) -> MJet2:
    return MJet2.from_jet1(jet, 4, DIM)


def reference_coframe(q_of: Jet1, F_of: Jet1, point4):
    """The theta rows as 5x5 MJet2 scalars, combined one product at a time."""
    zero, one = MJet2.constant(0.0, DIM), MJet2.constant(1.0, DIM)

    def chain(f):
        return f.derivative() / q_of.derivative()

    def lincomb(*terms):
        out = [zero] * DIM
        for coeff, row in terms:
            for a in range(DIM):
                out[a] = out[a] + coeff * row[a]
        return tuple(out)

    Fp = chain(F_of)
    Fpp = chain(Fp)
    F3 = chain(Fpp)
    F4 = chain(F3)
    Fp, Fpp, F3, F4 = (_lam(j) for j in (Fp, Fpp, F3, F4))
    w1 = (-MJet2.coordinate(point4[3], 3, DIM), one, zero, zero, zero)
    w2 = (-_lam(q_of), zero, zero, one, zero)
    w3 = (-_lam(F_of), zero, one, zero, zero)
    w4 = (zero, zero, zero, zero, _lam(q_of.derivative()))
    w5 = (one, zero, zero, zero, zero)
    inv_Fpp = Fpp.reciprocal()
    comb = lincomb((Fp, w2), (-one, w3))
    coef4 = (F3 * F3 * 7.0 - Fpp * F4 * 4.0) / (Fpp * Fpp * Fpp * 40.0)
    return (
        lincomb((one, w1), (-inv_Fpp, comb)),
        lincomb((inv_Fpp, comb)),
        lincomb((one - Fp * F3 / (Fpp * Fpp * 4.0), w2), (F3 / (Fpp * Fpp * 4.0), w3)),
        lincomb((coef4, comb), (one, w4), (-one, w5)),
        lincomb((-one, w4)),
    )


def reference_metric(theta):
    """(g, dg[k, a, b], d2g[k, l, a, b]) of eta_ij theta^i_a theta^j_b, entry by entry."""
    G = np.empty((DIM, DIM))
    dG = np.empty((DIM, DIM, DIM))
    d2G = np.empty((DIM, DIM, DIM, DIM))
    for a in range(DIM):
        for b in range(DIM):
            acc = MJet2.constant(0.0, DIM)
            for i in range(DIM):
                for j in range(DIM):
                    if ETA[i, j] != 0.0:
                        acc = acc + theta[i][a] * theta[j][b] * ETA[i, j]
            G[a, b], dG[:, a, b], d2G[:, :, a, b] = acc.value, acc.gradient, acc.hessian
    return G, dG, d2G


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_dense_metric_matches_mjet2_reference(spec):
    # summation order differs, so allow round-off amplified by the coframe's condition
    for pt in sample_points(spec, 3, seed=2):
        q_of, F_of = frame_jets_for_spec(spec, pt[4])
        cf = build_coframe(q_of, F_of, pt[:4])
        g = metric_at(cf)
        bound = 1e-13 * max(np.linalg.cond(cf.value), 10.0)
        want = reference_metric(reference_coframe(q_of, F_of, pt[:4]))
        for got, ref in zip((g.value, g.grad, g.hess), want):
            assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref)), (spec.id, pt)


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_batched_geometry_matches_single_point(spec):
    # row i of the coframe and metric built along a point axis against the
    # build at point i alone, within the bound of the MJet2 reference above
    pts = sample_points(spec, 6, seed=7)
    coeffs = np.stack([_frame_coeffs(*frame_jets_for_spec(spec, pt[4])) for pt in pts])
    cf = _coframe(coeffs, np.array(pts)[:, :4], _coords(spec))
    g = metric_at(cf)
    rep = curvature(g)
    suite = flatness_suite(spec, pts)["results"]
    for i, pt in enumerate(pts):
        cf1 = coframe_for_spec(spec, pt)
        g1 = metric_at(cf1)
        assert cf.coords == cf1.coords
        bound = 1e-13 * max(np.linalg.cond(cf1.value), 10.0)
        for got, want in ((cf.value, cf1.value), (cf.grad, cf1.grad), (cf.hess, cf1.hess),
                          (g.value, g1.value), (g.grad, g1.grad), (g.hess, g1.hess)):
            assert np.max(np.abs(got[i] - want)) <= bound * np.max(np.abs(want)), (spec.id, i)
        rep1 = curvature(g1)
        ratio1 = rep1.maxAbsWeyl / rep1.metricScale
        assert abs(rep.maxAbsWeyl[i] / rep.metricScale[i] - ratio1) <= 1e-9, (spec.id, i)
        assert abs(suite[i]["weylRatio"] - ratio1) <= 1e-9, (spec.id, i)


def test_flatness_suite_reports_singular_rows():
    # a vanishing F'' at one point makes that coframe singular; the others still count
    spec = get_spec("F-power-2")
    pts = sample_points(spec, 3, seed=0)
    jet = F_jet(spec, np.array(pts)[:, 4])
    jet = Jet1(jet.basepoint, jet.coeffs * [[1.0], [1e-20], [1.0]])
    out = flatness_suite(spec, pts, jet=jet)
    bad = out["results"][1]
    assert bad["weylRatio"] is None and bad["pass"] is False
    assert bad["error"] == "SingularCoframeError: coframe is singular at this point"
    assert all(r["pass"] and "error" not in r for i, r in enumerate(out["results"]) if i != 1)
    with pytest.raises(SingularCoframeError):
        metric_at(coframe_for_spec(spec, pts[1], jet=Jet1(jet.basepoint[1], jet.coeffs[1])))
    # a stack raises with the mask of its singular rows
    coeffs = np.stack([_frame_coeffs(*frame_jets_for_spec(spec, pt[4])) for pt in pts])
    g = metric_at(_coframe(coeffs, np.array(pts)[:, :4], _coords(spec)))
    g = MetricJet(g.value * [[[1.0]], [[0.0]], [[1.0]]], g.grad, g.hess)
    with pytest.raises(SingularMetricError) as exc:
        curvature(g)
    assert exc.value.rows.tolist() == [False, True, False]


def test_dual_picture_coframe_matches_legendre_build():
    spec = get_spec("H-power-3")
    t0 = 1.2
    H = F_jet(spec, t0)
    cf_direct = coframe_H(H, POINT4)
    q_of = H.derivative()
    F_of = jet_var(t0, H.order) * H.derivative() - H
    cf_built = build_coframe(q_of, F_of, POINT4)
    Wd = cf_direct.value
    Wb = cf_built.value
    assert np.max(np.abs(Wd - Wb)) < 1e-12 * max(1.0, np.max(np.abs(Wd)))


def test_coframe_H_rejects_degenerate_H():
    H = jet_var(0.5, 8)  # H'' = 0
    with pytest.raises(DegenerateError):
        coframe_H(H, POINT4)


def test_singular_coframe_raises():
    # a vanishingly small F'' makes the coframe numerically singular
    q_of = identity_q(1.0)
    F_of = q_of * q_of * 1e-20
    with pytest.raises(SingularCoframeError):
        metric_at(build_coframe(q_of, F_of, POINT4))


# --- curvature identities -------------------------------------------------


def test_riemann_symmetries_and_weyl_trace():
    cf = build_coframe(identity_q(1.3), power_F(1.3, 3.0), POINT4)
    g = metric_at(cf)
    rep = curvature(g)
    assert riemann_symmetry_error(rep) < 1e-9
    assert weyl_trace_error(rep, g) < 1e-9


def test_ricci_identity_for_power_solutions():
    for q0, a in [(1.2, 1.0 / 3.0), (0.8, 3.0), (1.5, 2.0), (2.0, -1.0)]:
        err = ricci_identity_check(identity_q(q0), power_F(q0, a), POINT4)
        assert err < 1e-8, (a, err)


def test_ricci_identity_for_dual_picture_data():
    spec = get_spec("H-power-3")
    H = F_jet(spec, 1.1)
    q_of = H.derivative()
    F_of = jet_var(1.1, H.order) * H.derivative() - H
    assert ricci_identity_check(q_of, F_of, POINT4) < 1e-8


# --- the elementary closed-form family ------------------------------------


def elementary_frame(r0: float, constants=(1, 0, 0, 1)):
    cid = ClosedFormId("elementary_r", constants)
    z1, z2 = closed_form_solution(cid, r0, 8)
    q_of = z2 / z1
    Fpp = z1 ** 3
    Fp = (Fpp * q_of.derivative()).antiderivative(0.0)
    F_of = (Fp * q_of.derivative()).antiderivative(0.0)
    return q_of, F_of


@pytest.mark.parametrize("constants", [(1, 0, 0, 1), (1, 1, 1, -1)])
def test_elementary_coordinate_ricci(constants):
    # Ricci of the reduced metric in the r coordinate is 6/(r^2-1) on the
    # r-r slot and zero elsewhere, for any basis mixing.
    for r0 in (1.5, 2.0, 3.2):
        q_of, F_of = elementary_frame(r0, constants)
        g = reduced_metric(q_of, F_of, POINT4)
        rep = curvature(g)
        expected = 6.0 / (r0 * r0 - 1.0)
        assert rep.ricci[4, 4] == pytest.approx(expected, rel=1e-8)
        off = rep.ricci.copy()
        off[4, 4] = 0.0
        assert np.max(np.abs(off)) < 1e-8 * abs(expected)


def omega_factor(r0: float, order: int = 8) -> Jet1:
    r = jet_var(r0, order)
    num = (r * 3.0 + 1.0) * jet_abs_pow(r - 1.0, 1.0 / 3.0) * (4.0 / 3.0)
    den = jet_abs_pow(r - 1.0, 1.0 / 3.0) - jet_abs_pow(r + 1.0, 1.0 / 3.0)
    return num / den


def test_elementary_rescale_flattens_ricci():
    # nu = 1/Omega (sign-normalised) satisfies the second-order equation
    # 40 nu'' + (6I' - I^2) nu = 0 and kills the Ricci of nu^{-2} g.
    for r0 in (1.6, 2.3):
        q_of, F_of = elementary_frame(r0, (1, 0, 0, 1))
        nu = 1.0 / omega_factor(r0)
        if nu.value() < 0:
            nu = -nu
        out = conformal_rescale_check(q_of, F_of, nu, POINT4, nu_in_lambda=True)
        assert abs(out["odeValue"]) < 1e-10
        assert out["ricciMax"] < 1e-7


# --- the conformal rescale law --------------------------------------------


def test_conformal_rescale_solution_flattens():
    # F = q^{1/3}: nu = q^{1/3} solves the displayed second-order equation.
    q0 = 1.4
    nu = jet_abs_pow(jet_var(q0, 8), 1.0 / 3.0)
    out = conformal_rescale_check(identity_q(q0), power_F(q0, 1.0 / 3.0), nu, POINT4)
    assert abs(out["odeValue"]) < 1e-10
    assert out["ricciMax"] < 1e-7


def test_conformal_rescale_non_solution_matches_prediction():
    # nu = q^{1/2} is not a solution; the frame Ricci component still
    # equals (3/(40 nu))(40 nu'' + (6I'-I^2) nu).
    q0 = 1.4
    nu = jet_abs_pow(jet_var(q0, 8), 0.5)
    out = conformal_rescale_check(identity_q(q0), power_F(q0, 1.0 / 3.0), nu, POINT4)
    assert abs(out["odeValue"]) > 1e-3
    assert out["mismatch"] < 1e-8
    assert out["computed"] == pytest.approx(out["predicted"], rel=1e-8)


def test_conformal_rescale_rejects_nonpositive_nu():
    q0 = 1.4
    nu = jet_const(-2.0, q0, 8)
    with pytest.raises(DegenerateError):
        conformal_rescale_check(identity_q(q0), power_F(q0, 1.0 / 3.0), nu, POINT4)


# --- the single Weyl component law -----------------------------------------


def test_weyl_residual_ratio_is_point_stable():
    # C (H'')^8 = LHS / 100 exactly, so the ratio is 1/100 up to round-off
    for make_H in (lambda t: t ** 3, lambda t: t ** 5 - t ** 3, lambda t: t ** 4 + t):
        out = weyl_equals_residual_check([make_H(jet_var(t0, 8)) for t0 in (0.8, 1.3, 2.1)])
        assert out["ratioSpread"] < 1e-12
        assert abs(out["ratioMean"] - 0.01) < 1e-12 * 0.01


def test_weyl_residual_both_vanish_for_flat_H():
    spec = get_spec("H-triple-(-1/4,5/12,1/2)")
    H = F_jet(spec, 0.35)
    assert residual_ds6(H) < 1e-9
    cf = coframe_H(H, POINT4)
    rep = curvature(metric_at(cf))
    assert rep.maxAbsWeyl / rep.metricScale < 1e-9


# --- catalog sweep ----------------------------------------------------------


def test_flatness_suite_over_catalog():
    for spec in catalog():
        pts = sample_points(spec, 3, seed=11)
        out = flatness_suite(spec, pts, tol=1e-7)
        if spec.expect_fail:
            assert not out["pass"], spec.id
            assert all(r["weylRatio"] > 1e-3 for r in out["results"]), spec.id
        else:
            assert out["pass"], (spec.id, out)


def test_sample_points_respect_domain_and_seed():
    spec = get_spec("F-power-1/3")
    pts1 = sample_points(spec, 5, seed=3)
    pts2 = sample_points(spec, 5, seed=3)
    assert pts1 == pts2
    lo, hi = spec.domain
    for p in pts1:
        assert len(p) == 5
        assert all(-1.0 <= v <= 1.0 for v in p[:4])
        assert lo <= p[4] <= hi


def _sample_points_per_point(spec, n, seed):
    """The former sample_points: two rng.uniform draws per point."""
    rng = np.random.default_rng(seed)
    lo, hi = spec.domain
    pts = []
    for _ in range(n):
        xyzp = rng.uniform(-1.0, 1.0, size=4)
        lam = rng.uniform(lo, hi)
        pts.append((*xyzp, lam))
    return pts


def test_sample_points_match_the_per_point_draws():
    specs = {s.domain: s for s in catalog()}.values()
    for spec in specs:
        for seed in range(21):
            for n in (1, 7, 10, 200):
                assert sample_points(spec, n, seed) == _sample_points_per_point(spec, n, seed), \
                    (spec.id, seed, n)


# --- the Jet1 work along the point axis --------------------------------------


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_batched_jets_match_single_point(spec):
    # row i of each stacked result against the call at point i alone, within
    # 1e-14 of the largest coefficient (the residuals are already relative)
    pts = np.array(sample_points(spec, 6, seed=7))
    jet = F_jet(spec, pts[:, 4])
    coeffs = _frame_coeffs(*frame_jets_for_spec(spec, pts[:, 4], jet=jet))
    residual = residual_6th if spec.picture == "F_of_q" else residual_ds6
    res = residual(jet)
    legendre = legendre_transform(jet) if spec.picture == "F_of_q" else None
    for i, lam in enumerate(pts[:, 4]):
        jet1 = F_jet(spec, float(lam))
        assert np.max(np.abs(jet.coeffs[i] - jet1.coeffs)) <= 1e-14 * np.max(np.abs(jet1.coeffs))
        c1 = _frame_coeffs(*frame_jets_for_spec(spec, float(lam)))
        assert np.max(np.abs(coeffs[i] - c1)) <= 1e-14 * np.max(np.abs(c1)), (spec.id, i)
        assert abs(res[i] - residual(jet1)) <= 1e-14, (spec.id, i)
        if legendre is not None:
            t0, H = legendre_transform(jet1)
            got = np.append(legendre[1].coeffs[i], legendre[0][i])
            want = np.append(H.coeffs, t0)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (spec.id, i)


def test_a_bad_row_gets_its_error_and_the_others_their_values(monkeypatch):
    spec = get_spec("F-schwarz-(3,3,3)")
    pts = np.array(sample_points(spec, 6, seed=3))
    alone = [flatness_suite(spec, pts[i:i + 1])["results"][0]["weylRatio"] for i in range(6)]
    outside = pts.copy()
    outside[2, 4] = 0.99  # out of the declared domain
    with pytest.raises(DomainError) as exc:
        F_jet(spec, outside[:, 4])
    assert exc.value.rows.tolist() == [i == 2 for i in range(6)]
    results = flatness_suite(spec, outside)["results"]
    assert results[2]["error"].startswith("DomainError: ") and results[2]["weylRatio"] is None
    for i in (0, 1, 3, 4, 5):
        assert results[i]["weylRatio"] == pytest.approx(alone[i], rel=1e-9, abs=1e-20)
    # a per-row BranchError deep inside F_jet, at points 0 and 4: the first
    # |s|**e1 of the Schwarz family sees the s of each point as its value
    from c235 import dist

    abs_pow = dist.jet_abs_pow

    def flaky(f, e):
        BranchError.raise_where(np.isin(f.value(), pts[[0, 4], 4]), "made to fail here")
        return abs_pow(f, e)

    monkeypatch.setattr(dist, "jet_abs_pow", flaky)
    found = [None] * 6
    _, live = on_regular_rows(lambda p: F_jet(spec, p), pts[:, 4], np.arange(6), found)
    assert live.tolist() == [1, 2, 3, 5]
    assert [type(e).__name__ for e in found] == [
        "BranchError", "NoneType", "NoneType", "NoneType", "BranchError", "NoneType"]
    results = flatness_suite(spec, pts)["results"]
    for i, r in enumerate(results):
        if i in (0, 4):
            assert r["error"] == "BranchError: made to fail here" and not r["pass"]
        else:
            assert r["weylRatio"] == pytest.approx(alone[i], rel=1e-9, abs=1e-20)


def test_frame_coeffs_builds_dq_once(monkeypatch):
    calls = []
    derivative = Jet1.derivative

    def counted(self):
        calls.append(self)
        return derivative(self)

    monkeypatch.setattr(Jet1, "derivative", counted)
    _frame_coeffs(identity_q(1.3), power_F(1.3, 2.5))
    # dq/dlam once, and one derivative of each of F, F', F'', F'''
    assert len(calls) == 5
