"""Tests for the 5D coframe, metric, and curvature machinery."""

from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from c235 import dist, geometry
from c235.chazy import (
    DUAL_SIXTH_ORDER,
    SIXTH_ORDER,
    reduce_F_to_I,
    residual_6th,
    residual_ds6,
    residual_gen_chazy,
)
from c235.dist import F_jet, catalog, dual_residual, get_spec, legendre_transform
from c235.cli import DEFAULT_TOL
from c235.errors import (
    BranchError,
    C235Error,
    DegenerateError,
    DomainError,
    SingularCoframeError,
    SingularMetricError,
)
from c235.geometry import (
    DIM,
    ETA,
    MatrixJet,
    _derivs_in_q,
    _frame_coeffs,
    _frame_rows,
    _in_lam,
    _in_q_frame,
    _omegas,
    _product,
    _reduced_frame,
    build_coframe,
    coframe_for_spec,
    conformal_rescale_check,
    curvature,
    flatness_suite,
    frame_for_spec,
    metric_at,
    metric_signature,
    on_regular_rows,
    sample_points,
    weyl_ratio,
)
from c235.jets import _TO_DERIVATIVES, Jet1, jet_const, jet_var

from oracles import (
    SZ_DRAWS,
    WEYL_IDENTITY_DEGREE,
    PlebanskiData,
    ReferenceJet2,
    RoundoffScale,
    dual_coframe,
    elementary_frame,
    frame_jets,
    full_curvature,
    identity_q,
    jet_abs_pow,
    legendre_chain_coeffs,
    legendre_data,
    metric_compatibility_error,
    omega_factor,
    pair_form,
    plebanski_metric,
    ricci_identity_check,
    riemann_symmetry_error,
    weyl_flatness,
    weyl_identity_misses,
    weyl_trace_error,
)

POINT4 = (0.3, -0.2, 0.5, 0.7)
# the bound on the Weyl ratio, which has units; DEFAULT_TOL (1e-11) bounds the residual
WEYL_TOL = 1e-7


def both_certificates(spec, pts) -> dict:
    """flatness_suite's residual and the Weyl chain's ratio at each point, by check name."""
    return {**flatness_suite(spec, pts), "weyl_flatness": weyl_flatness(spec, pts)}


def power_F(q0: float, a: float, order: int = 8) -> Jet1:
    return jet_abs_pow(jet_var(q0, order), a)


# --- coframe and metric basics -------------------------------------------


def test_matrix_jets_and_reports_compare_by_identity():
    # they hold arrays, whose == has no truth value: each equals only itself
    g = metric_at(build_coframe(identity_q(1.2), power_F(1.2, 2.0), POINT4))
    rep = curvature(g)
    for a, b in ((g, MatrixJet(g.value.copy(), g.grad.copy(), g.hess.copy())), (rep, replace(rep))):
        assert a != b and not a == b
        assert a == a
        assert hash(a) == hash(a)


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


def test_metric_signature_at_large_p():
    # g_x,lam = p and det g = 1/3, so g has an eigenvalue of size 1/p^2, which
    # eigvalsh of the raw g rounds to 0 at p = 1e50; the equilibrated g keeps its sign
    spec = get_spec("F-power-2")
    big = (1e50, 1e200, 1e300)
    pts = np.array([(0.1, 0.2, 0.3, p, 1.5) for p in big])
    for pt in pts:
        assert metric_signature(metric_at(coframe_for_spec(spec, pt))) == (2, 3), pt[3]
    assert metric_signature(metric_at(coframe_for_spec(spec, pts))).tolist() == [[2, 3]] * 3


def test_quadratic_F_is_weyl_flat():
    for q0 in (0.7, 1.4, -2.1):
        cf = build_coframe(identity_q(q0), power_F(q0, 2.0), POINT4)
        rep = curvature(metric_at(cf))
        assert rep.maxAbsWeyl / rep.metricScale < 1e-9


def test_cubic_F_control_is_not_flat():
    cf = build_coframe(identity_q(1.3), power_F(1.3, 3.0), POINT4)
    rep = curvature(metric_at(cf))
    assert rep.maxAbsWeyl / rep.metricScale > 1e-3


# (q_of, F_of) in the F picture, where lam is q, and in three pictures where
# dq/dlam is not 1: the dual Legendre data of two H entries, and the r frame
REDUCED_FRAMES = {
    "F": lambda: (identity_q(1.25), power_F(1.25, 2.5)),
    "H-power-3": lambda: legendre_data(F_jet(get_spec("H-power-3"), 1.1)),
    "H-triple-(-1/4,5/12,1/2)": lambda: legendre_data(
        F_jet(get_spec("H-triple-(-1/4,5/12,1/2)"), 0.35)),
    "elementary-r": lambda: elementary_frame(2.0, (1, 1, 1, -1)),
}


def reduced_form(W, I, Ip):
    """W^T Q W, for Q the displayed form 2 wt2 wt5 - 2 wt1 wt4 + (4/3) wt3^2
    - (I/3) wt2 wt3 + ((I' - I^2/6)/10) wt2^2, one matrix per point."""
    Q = np.zeros(np.shape(I) + (DIM, DIM))
    Q[..., 1, 4] = Q[..., 4, 1] = 1.0
    Q[..., 0, 3] = Q[..., 3, 0] = -1.0
    Q[..., 2, 2] = 4.0 / 3.0
    Q[..., 1, 2] = Q[..., 2, 1] = -I / 6.0
    Q[..., 1, 1] = (Ip - I * I / 6.0) / 10.0
    return W.swapaxes(-1, -2) @ Q @ W


@pytest.mark.parametrize("frame", REDUCED_FRAMES.values(), ids=REDUCED_FRAMES.keys())
def test_reduced_form_is_the_metric_in_the_reduced_frame(frame):
    q_of, F_of = frame()
    cf = build_coframe(q_of, F_of, POINT4)
    th, W, I, Ip = _reduced_frame(q_of, F_of, POINT4)
    for part in ("value", "grad", "hess"):
        assert np.array_equal(getattr(th, part), getattr(cf, part)), part
    g = metric_at(cf).value
    assert np.max(np.abs(reduced_form(W, I, Ip) - g)) < 1e-12 * np.max(np.abs(g))


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_reduced_form_holds_on_every_case(spec):
    pts = np.array(sample_points(spec, 50, seed=3))
    th, W, I, Ip = _reduced_frame(*frame_jets(spec, pts[:, 4]), pts[:, :4])
    g = metric_at(th).value
    err = np.max(np.abs(reduced_form(W, I, Ip) - g), axis=(-2, -1))
    assert np.all(err < 1e-11 * np.max(np.abs(g), axis=(-2, -1))), (spec.id, err.max())


# --- the dense metric against the reference-jet scalar pipeline -------------


def _lam(jet: Jet1) -> ReferenceJet2:
    return ReferenceJet2.of_jet1(jet, 4, DIM)


def lincomb(*terms):
    """The sum of coeff * row over (coeff, row) terms, for rows of five ReferenceJet2 scalars."""
    out = [ReferenceJet2.constant(0.0, DIM)] * DIM
    for coeff, row in terms:
        for a in range(DIM):
            out[a] = out[a] + coeff * row[a]
    return tuple(out)


def reference_coframe(q_of: Jet1, F_of: Jet1, point4):
    """The theta rows as 5x5 ReferenceJet2 scalars, combined one product at a time."""
    zero, one = ReferenceJet2.constant(0.0, DIM), ReferenceJet2.constant(1.0, DIM)

    def chain(f):
        return f.derivative() / q_of.derivative()

    Fp = chain(F_of)
    Fpp = chain(Fp)
    F3 = chain(Fpp)
    F4 = chain(F3)
    Fp, Fpp, F3, F4 = (_lam(j) for j in (Fp, Fpp, F3, F4))
    w1 = (-ReferenceJet2.coordinate(point4[3], 3, DIM), one, zero, zero, zero)
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
            acc = ReferenceJet2.constant(0.0, DIM)
            for i in range(DIM):
                for j in range(DIM):
                    if ETA[i, j] != 0.0:
                        acc = acc + theta[i][a] * theta[j][b] * ETA[i, j]
            G[a, b], dG[:, a, b], d2G[:, :, a, b] = acc.value, acc.gradient, acc.hessian
    return G, dG, d2G


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_dense_metric_matches_mjet2_reference(spec):
    # summation order differs, so allow round-off amplified by the coframe's condition
    # the reference takes F' to F'''' by the chain rule in q, from order-8 jets;
    # in the dual picture that divides by H'' four times
    for pt in sample_points(spec, 3, seed=2):
        q_of, F_of = frame_jets(spec, pt[4])
        cf = coframe_for_spec(spec, pt)
        g = metric_at(cf)
        bound = 1e-13 * max(np.linalg.cond(cf.value), 10.0)
        G, dG, d2G = reference_metric(reference_coframe(q_of, F_of, pt[:4]))
        # the reference build has partials along all five coordinates; those along
        # x, y and z are exactly zero, and metric_at keeps the (p, lam) ones
        assert not dG[:3].any() and not d2G[:3].any() and not d2G[:, :3].any(), spec.id
        for got, ref in zip((g.value, g.grad, g.hess), (G, dG[3:], d2G[3:, 3:])):
            assert np.max(np.abs(got - ref)) <= bound * np.max(np.abs(ref)), (spec.id, pt)


def in_lam(jet, packed):
    """A `jet` in lam from its value, d/dlam and d2/dlam2 (..., 3)."""
    return jet.of_jet1(packed / _TO_DERIVATIVES, 0, 1)


def reference_frame_rows(c, jet=ReferenceJet2):
    """C of _frame_rows as five rows of five entries, each a `jet` in lam or a
    plain number: the tuple form C had before it became one dense array, from
    the _frame_coeffs c (F' to F'''' in q)."""
    u, Fpp, F3, F4 = (in_lam(jet, c[..., k, :]) for k in range(3, 7))
    s = Fpp.reciprocal()
    B = F3 * s * s * 0.25
    coef4 = (F3 * F3 * 7.0 - Fpp * F4 * 4.0) * s * s * s * 0.025
    return reference_rows(u, s, B, coef4)


def reference_rows(u, s, B, coef4):
    """The tuple form of C from the terms of _frame_rows, each a reference jet in lam."""
    su = s * u
    return (
        (1.0, -su, s, 0.0, 0.0),
        (0.0, su, -s, 0.0, 0.0),
        (0.0, 1.0 - u * B, B, 0.0, 0.0),
        (0.0, coef4 * u, -coef4, 1.0, -1.0),
        (0.0, 0.0, 0.0, -1.0, 0.0),
    )


def dense_rows(C, batch) -> np.ndarray:
    """Rows of ReferenceJet2 entries in lam, or numbers, as the (..., 3, 5, 5) of C, dC/dlam, d2C/dlam2."""
    out = np.zeros(batch + (3, DIM, DIM))
    for i, row in enumerate(C):
        for j, c in enumerate(row):
            if isinstance(c, ReferenceJet2):
                out[..., :, i, j] = c.along(0)
            else:
                out[..., 0, i, j] = c
    return out


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_dense_frame_rows_match_the_tuple_reference(spec):
    stack = sample_points(spec, 10, seed=11)
    for pts in (stack[0], stack):
        terms = frame_for_spec(spec, pts[..., 4])[1]
        th = _frame_rows(*terms)
        # the entries are jets in lam alone: every partial along p is exactly zero
        assert not th.grad[..., 0, :, :].any(), spec.id
        assert not th.hess[..., 0, :, :, :].any() and not th.hess[..., :, 0, :, :].any(), spec.id
        C = lam_parts(th)
        want = dense_rows(reference_rows(*(in_lam(ReferenceJet2, t.derivatives()) for t in terms)),
                          pts.shape[:-1])
        assert C.shape == want.shape
        # each part within a few ulps of the terms it sums, the same rows in absolute values
        scale = np.abs(dense_rows(reference_rows(*(in_lam(RoundoffScale, t.derivatives())
                                                   for t in terms)), pts.shape[:-1]))
        assert np.all(np.abs(C - want) <= 1e-14 * scale), (spec.id, pts.ndim)


def lam_parts(C: MatrixJet) -> np.ndarray:
    """(..., 3, 5, 5): C, dC/dlam and d2C/dlam2 of a MatrixJet over (p, lam)."""
    return np.stack([C.value, C.grad[..., 1, :, :], C.hess[..., 1, 1, :, :]], axis=-3)


def chain_rule_coeffs(spec, lam) -> np.ndarray:
    """_frame_coeffs by the chain rule in q from the order-8 F_jet: in the dual picture
    four divisions by H'', made exactly; with lam = q the divisions are by the unit
    jet, which leaves the plain derivatives; the elementary pair's own chain in r."""
    if spec.picture == "H_of_t":
        return legendre_chain_coeffs(F_jet(spec, lam))
    return _frame_coeffs(*frame_jets(spec, lam))


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_frame_terms_match_the_chain_rule_in_q(spec):
    # the frame terms from the order-6 jet: slices of F's derivatives in the F
    # picture, and in the dual picture the exact forms s = H'', B = -H'''/(4 H'') and
    # coef4 = (4 H'' H'''' - 5 H'''^2)/(40 H''^3). The bound is the tuple reference's
    # above: 1e-14 of the rows in absolute values, in which the d2/dlam2 of coef4's
    # entries cancels by up to 8e8 at H-two-pole and 5e8 at H-ds-curve
    stack = sample_points(spec, 10, seed=11)
    for pts in (stack[0], stack):
        terms = frame_for_spec(spec, pts[..., 4])[1]
        c = chain_rule_coeffs(spec, pts[..., 4])
        want = dense_rows(reference_frame_rows(c), pts.shape[:-1])
        scale = np.abs(dense_rows(reference_frame_rows(c, RoundoffScale), pts.shape[:-1]))
        assert np.all(np.abs(lam_parts(_frame_rows(*terms)) - want) <= 1e-14 * scale), (spec.id, pts.ndim)


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_batched_geometry_matches_single_point(spec):
    # row i of the coframe and metric built along a point axis against the
    # build at point i alone, within the bound of the scalar reference above
    pts = sample_points(spec, 6, seed=7)
    cf = coframe_for_spec(spec, pts)
    g = metric_at(cf)
    # dg is exactly symmetric in (a, b), at one point and on the stack; near
    # the domain end of H-power--2 the flat certificate depends on it
    assert np.array_equal(g.grad, g.grad.swapaxes(-1, -2)), spec.id
    rep = curvature(g)
    suite = weyl_flatness(spec, pts)
    for i, pt in enumerate(pts):
        cf1 = coframe_for_spec(spec, pt)
        g1 = metric_at(cf1)
        assert np.array_equal(g1.grad, g1.grad.swapaxes(-1, -2)), (spec.id, i)
        bound = 1e-13 * max(np.linalg.cond(cf1.value), 10.0)
        for got, want in ((cf.value, cf1.value), (cf.grad, cf1.grad), (cf.hess, cf1.hess),
                          (g.value, g1.value), (g.grad, g1.grad), (g.hess, g1.hess)):
            assert np.max(np.abs(got[i] - want)) <= bound * np.max(np.abs(want)), (spec.id, i)
        rep1 = curvature(g1)
        ratio1 = rep1.maxAbsWeyl / rep1.metricScale
        assert abs(rep.maxAbsWeyl[i] / rep.metricScale[i] - ratio1) <= 1e-9, (spec.id, i)
        assert abs(suite[i] - ratio1) <= 1e-9, (spec.id, i)


def test_flatness_suite_reports_singular_rows(monkeypatch):
    # a non-finite jet at one point makes that residual and coframe fail; the others still count
    spec = get_spec("F-power-2")
    pts = sample_points(spec, 3, seed=0)
    jet = F_jet(spec, pts[:, 4])
    jet = Jet1(jet.basepoint, jet.coeffs * [[1.0], [np.nan], [1.0]])
    with monkeypatch.context() as m:
        m.setattr(geometry, "F_jet", lambda *args: jet)
        out = both_certificates(spec, pts)
    for name, error, text, tol in (
            ("ode_residual_F", DegenerateError, "residual is not finite at this point", DEFAULT_TOL),
            ("weyl_flatness", SingularCoframeError, "coframe is not finite at this point", WEYL_TOL)):
        assert isinstance(out[name][1], error) and str(out[name][1]) == text
        assert all(r < tol for i, r in enumerate(out[name]) if i != 1)
    with pytest.raises(SingularCoframeError):
        metric_at(coframe_for_spec(spec, pts[1], jet=Jet1(jet.basepoint[1], jet.coeffs[1])))
    # a stack raises with the mask of its singular rows
    g = metric_at(coframe_for_spec(spec, pts))
    g = MatrixJet(g.value * [[[1.0]], [[0.0]], [[1.0]]], g.grad, g.hess)
    with pytest.raises(SingularMetricError) as exc:
        curvature(g)
    assert exc.value.rows.tolist() == [False, True, False]


def test_weyl_ratio_marks_points_where_it_is_not_finite():
    # finite metric arrays whose curvature overflows at the middle point: curvature
    # refuses that point, with no RuntimeWarning
    spec = get_spec("F-power-2")
    g = metric_at(coframe_for_spec(spec, sample_points(spec, 3, seed=0)))
    g = MatrixJet(g.value * [[[1.0]], [[1e-20]], [[1.0]]], g.grad,
                  g.hess * np.array([1.0, 1e300, 1.0])[:, None, None, None, None])
    with pytest.raises(SingularMetricError) as exc:
        weyl_ratio(g)
    assert str(exc.value) == "the metric's curvature is not finite at this point"
    assert exc.value.rows.tolist() == [False, True, False]


def test_flatness_suite_keeps_the_points_around_one_whose_curvature_overflows():
    # at p = 1e200 the metric is finite and its curvature is not; the stack's
    # other two points still get their ratios, with RuntimeWarnings as errors
    pts = [(0.1, 0.2, 0.3, 0.4, 1.5), (0.1, 0.2, 0.3, 1e200, 1.5), (0.1, 0.2, 0.3, 0.5, 2.0)]
    out = weyl_flatness(get_spec("F-power--1"), pts)
    assert isinstance(out[1], SingularMetricError)
    assert str(out[1]) == "the metric's curvature is not finite at this point"
    assert all(isinstance(out[i], float) and out[i] < WEYL_TOL for i in (0, 2))


def reference_coframe_H(H: Jet1, point4):
    """The dual-picture theta rows from the H displays, as 5x5 ReferenceJet2 scalars.

    With w2 = dp - H' dx, w3 = dz - (t H' - H) dx, w4 = H'' dt, w5 = dx and
    comb = t w2 - w3: th1 = w1 - H'' comb, th2 = H'' comb,
    th3 = (1 - t B) w2 + B w3, th4 = coef4 comb + w4 - w5, th5 = -w4,
    where B = -H3 / (4 H'') and coef4 = (4 H'' H4 - 5 H3^2) / (40 H''^3).
    """
    zero, one = ReferenceJet2.constant(0.0, DIM), ReferenceJet2.constant(1.0, DIM)
    t0 = float(H.basepoint)
    Hp = H.derivative()
    Hpp = Hp.derivative()
    t = ReferenceJet2.coordinate(t0, 4, DIM)
    w1 = (-ReferenceJet2.coordinate(point4[3], 3, DIM), one, zero, zero, zero)
    w2 = (-_lam(Hp), zero, zero, one, zero)
    w3 = (-_lam(jet_var(t0, H.order) * Hp - H), zero, one, zero, zero)
    w4 = (zero, zero, zero, zero, _lam(Hpp))
    w5 = (one, zero, zero, zero, zero)
    s, H3, H4 = _lam(Hpp), _lam(Hpp.derivative()), _lam(Hpp.derivative().derivative())
    B = H3 / (s * -4.0)
    coef4 = (s * H4 * 4.0 - H3 * H3 * 5.0) / (s * s * s * 40.0)
    comb = lincomb((t, w2), (-one, w3))
    return (
        lincomb((one, w1), (-s, comb)),
        lincomb((s, comb)),
        lincomb((one - t * B, w2), (B, w3)),
        lincomb((coef4, comb), (one, w4), (-one, w5)),
        lincomb((-one, w4)),
    )


def test_dual_picture_coframe_matches_legendre_build():
    # the dual coframe reads the exact Legendre forms of its frame terms from the
    # 6-jet of H; the H displays are the oracle. The partials get the cond-scaled
    # bound of the scalar reference above.
    for spec_id, t0 in (("H-power-3", 1.2), ("H-power--2", 0.4), ("H-two-pole", 0.3)):
        H = F_jet(get_spec(spec_id), t0)
        cf = coframe_for_spec(get_spec(spec_id), (*POINT4, t0))
        ref = reference_coframe_H(H, POINT4)
        bound = 1e-13 * max(np.linalg.cond(cf.value), 10.0)
        # the partial axes last, as the reference jet holds them
        for part, got, tol in (("value", cf.value, 1e-12),
                               ("gradient", np.moveaxis(cf.grad, 0, -1), bound),
                               ("hessian", np.moveaxis(cf.hess, (0, 1), (-2, -1)), bound)):
            want = np.array([[getattr(ref[i][a], part) for a in range(DIM)] for i in range(DIM)])
            # zero along x, y and z; the coframe holds the (p, t) partials
            for axis in range(2, want.ndim):
                assert not np.take(want, range(3), axis=axis).any(), (spec_id, part)
                want = np.take(want, range(3, DIM), axis=axis)
            assert np.max(np.abs(got - want)) < tol * max(1.0, np.max(np.abs(want))), (spec_id, part)


def test_coframe_H_rejects_degenerate_H():
    H = jet_var(0.5, 8)  # H'' = 0
    with pytest.raises(DegenerateError, match="H'' = 0 at the basepoint"):
        dual_coframe(H, POINT4)
    # the chain rule in q raises where dq/dt = H'' vanishes
    with pytest.raises(DegenerateError, match="dq/dlam = 0"):
        build_coframe(*legendre_data(H), POINT4)
    # on a stack, at the rows where H'' = 0
    H = jet_var(np.array([0.5, 1.5]), 8) ** 2 * np.array([0.0, 1.0])
    with pytest.raises(DegenerateError) as exc:
        dual_coframe(H, POINT4)
    assert exc.value.rows.tolist() == [True, False]


def test_singular_coframe_raises():
    # the certificate does not depend on units: F = 1e-20 q^2 is as flat as
    # q^2, though its coframe's cond is about 8e35
    q_of = identity_q(1.0)
    F_of = q_of * q_of * 1e-20
    assert weyl_ratio(metric_at(build_coframe(q_of, F_of, POINT4))) < 1e-7 / 3
    # a coframe holding an inf raises
    coeffs = F_of.coeffs.copy()
    coeffs[3] = np.inf
    with np.errstate(invalid="ignore"):  # inf * 0 in the jet products
        cf = build_coframe(q_of, Jet1(1.0, coeffs), POINT4)
    with pytest.raises(SingularCoframeError, match="coframe is not finite at this point"):
        metric_at(cf)


# --- curvature against the einsum reference --------------------------------


def full_partials(g: MatrixJet):
    """(dG[k, a, b], d2G[k, l, a, b]) along every coordinate, zero where g has no partial."""
    n, A = g.value.shape[-1], g.grad.shape[-3]
    dG = np.zeros(g.value.shape[:-2] + (n, n, n))
    d2G = np.zeros(g.value.shape[:-2] + (n, n, n, n))
    dG[..., n - A:, :, :] = g.grad
    d2G[..., n - A:, n - A:, :, :] = g.hess
    return dG, d2G


def full_metric_at(cf: MatrixJet) -> MatrixJet:
    """The five-partial metric_at: g_ab = eta_ij theta^i_a theta^j_b for a coframe
    whose grad is (..., 5, 5, 5) and hess (..., 5, 5, 5, 5), one matmul stack per
    partial slot."""
    W = cf.value
    EW = ETA @ W
    gT = cf.grad.swapaxes(-1, -2)  # [k, a, i]
    grad = gT @ EW[..., None, :, :]
    rows = cf.hess.swapaxes(-1, -2) @ EW[..., None, None, :, :]
    Eg = ETA @ cf.grad  # [l, i, b]
    cross = gT[..., :, None, :, :] @ Eg[..., None, :, :, :]
    return MatrixJet(
        W.swapaxes(-1, -2) @ EW,
        grad + grad.swapaxes(-1, -2),
        rows + rows.swapaxes(-1, -2) + cross + cross.swapaxes(-4, -3),
    )


def reference_curvature(g: MatrixJet) -> dict:
    """Christoffel, Riemann, Ricci, scalar and Weyl by one einsum per index contraction."""
    dG, d2G = full_partials(g)
    n = g.value.shape[-1]
    G = 0.5 * (g.value + g.value.swapaxes(-1, -2))
    ginv = np.linalg.inv(G)
    Glow = 0.5 * (
        np.einsum("...bdc->...dbc", dG) + np.einsum("...cbd->...dbc", dG) - dG
    )
    Gam = np.einsum("...ad,...dbc->...abc", ginv, Glow)
    dginv = -(ginv[..., None, :, :] @ dG @ ginv[..., None, :, :])  # [e, a, d]
    dGlow = 0.5 * (
        np.einsum("...ebdc->...edbc", d2G) + np.einsum("...ecbd->...edbc", d2G) - d2G
    )
    dGam = np.einsum("...ead,...dbc->...eabc", dginv, Glow) + np.einsum(
        "...ad,...edbc->...eabc", ginv, dGlow
    )
    X = np.einsum("...cadb->...abcd", dGam) + np.einsum("...ace,...edb->...abcd", Gam, Gam)
    Rup = X - X.swapaxes(-1, -2)
    Rlow = np.einsum("...ae,...ebcd->...abcd", G, Rup)
    ricci = np.einsum("...abad->...bd", Rup)
    ricci = 0.5 * (ricci + ricci.swapaxes(-1, -2))
    scalar = np.einsum("...bd,...bd->...", ginv, ricci)
    gR = np.einsum("...ac,...db->...abcd", G, ricci)
    term1 = 0.5 * (
        gR - np.einsum("...ad,...cb->...abcd", G, ricci)
        - np.einsum("...bc,...da->...abcd", G, ricci) + np.einsum("...bd,...ca->...abcd", G, ricci)
    )
    gg = 0.5 * (
        np.einsum("...ac,...db->...abcd", G, G) - np.einsum("...ad,...cb->...abcd", G, G)
    )
    weyl = (Rlow - (2.0 / (n - 2)) * term1
            + (2.0 / ((n - 1) * (n - 2))) * np.asarray(scalar)[..., None, None, None, None] * gg)
    return {"christoffel": Gam, "riemann": Rlow, "ricci": ricci, "scalar": scalar, "weyl": weyl}


def assert_curvature_matches_reference(g: MatrixJet, ref: dict | None = None):
    """Each tensor within 1e-13 |G| |G^-1| times its own scale, point by point.

    ref defaults to reference_curvature(g); its Riemann and Weyl are whole
    tensors, compared on the pair-form slots that curvature gives.

    |.| is the max-abs of an array at one point. R_abcd and C_abcd scale as
    L = |d2g| + |G^-1| |dg|^2, so they are bounded by 1e-13 |G| |G^-1| L; each
    raised index adds a factor |G^-1|. A tensor's own largest entry is no
    scale: on a flat metric it is round-off.
    """
    rep = curvature(g)
    ref = reference_curvature(g) if ref is None else ref
    # curvature gives Riemann and Weyl on the pair-form slots
    ref = {**ref, "riemann": pair_form(ref["riemann"]), "weyl": pair_form(ref["weyl"])}

    def size(x, rank):
        return np.max(np.abs(x), axis=tuple(range(-rank, 0))) if rank else np.abs(x)

    G, ginv = size(g.value, 2), size(np.linalg.inv(g.value), 2)
    L = size(g.hess, 4) + ginv * size(g.grad, 3) ** 2
    scales = {"christoffel": (3, ginv * size(g.grad, 3)), "riemann": (1, L),
              "ricci": (2, ginv * L), "scalar": (0, ginv * ginv * L), "weyl": (1, L)}
    for name, (rank, scale) in scales.items():
        err = size(np.asarray(getattr(rep, name)) - ref[name], rank)
        assert np.all(err <= 1e-13 * G * ginv * scale), name


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_curvature_matches_einsum_reference(spec):
    pts = sample_points(spec, 10, seed=5)
    assert_curvature_matches_reference(metric_at(coframe_for_spec(spec, pts[0])))
    assert_curvature_matches_reference(metric_at(coframe_for_spec(spec, pts)))


@pytest.mark.parametrize("spec_id, x0", [("H-power-3", 1.2), ("H-two-pole", 0.3)])
def test_curvature_matches_einsum_reference_in_four_dimensions(spec_id, x0):
    d = PlebanskiData.from_spec(get_spec(spec_id), x0, point4=(0.2, x0, -0.4, 0.6))
    g = plebanski_metric(d)
    assert g.value.shape == (4, 4)
    assert_curvature_matches_reference(g)


# --- partials along (p, lam) only, against the five-partial build ----------


def full_coframe(cf: MatrixJet) -> MatrixJet:
    """cf with partials along all five coordinates, zero along the leading ones."""
    n, A = DIM, cf.grad.shape[-3]
    grad = np.zeros(cf.value.shape[:-2] + (n,) + cf.value.shape[-2:])
    hess = np.zeros(cf.value.shape[:-2] + (n, n) + cf.value.shape[-2:])
    grad[..., n - A:, :, :] = cf.grad
    hess[..., n - A:, n - A:, :, :] = cf.hess
    return MatrixJet(cf.value, grad, hess)


def full_combine(C: MatrixJet, om: MatrixJet) -> MatrixJet:
    """The rows C_ij omega^j by the product rule, carrying all five partials;
    C is a matrix of jets in lam alone, whose partials land in the lam slot."""
    Cv, C1, C2 = C.value, C.grad[..., -1, :, :], C.hess[..., -1, -1, :, :]
    grad = np.einsum("...ij,...kja->...kia", Cv, om.grad)
    grad[..., 4, :, :] += C1 @ om.value
    hess = np.einsum("...ij,...klja->...klia", Cv, om.hess)
    cross = np.einsum("...ij,...kja->...kia", C1, om.grad)
    hess[..., 4, :, :, :] += cross
    hess[..., :, 4, :, :] += cross
    hess[..., 4, 4, :, :] += C2 @ om.value
    return MatrixJet(Cv @ om.value, grad, hess)


def assert_zero_along_xyz(*partials):
    """Each (array, axes) pair is exactly zero wherever one of its partial axes is x, y or z."""
    for x, slots in partials:
        for axis in slots:
            assert not np.take(x, range(3), axis=axis).any()


def assert_metric_close(got: MatrixJet, want: MatrixJet, W):
    """Within 1e-13 cond(W) of each part's largest entry; want has five partials."""
    bound = 1e-13 * max(np.max(np.linalg.cond(W)), 10.0)
    for a, b in ((got.value, want.value), (got.grad, want.grad[..., 3:, :, :]),
                 (got.hess, want.hess[..., 3:, 3:, :, :])):
        assert np.max(np.abs(a - b)) <= bound * np.max(np.abs(b))


def assert_curvature_close(got: MatrixJet, want: MatrixJet):
    """curvature(got) against full_curvature(want), where want carries every partial: equal,
    or within 1e-13 |G| |G^-1| times each tensor's scale, as against the einsum reference."""
    ref = full_curvature(want)
    assert_curvature_matches_reference(
        got, {f: np.asarray(getattr(ref, f)) for f in ("christoffel", "riemann", "ricci",
                                                       "scalar", "weyl")})


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_partials_along_xyz_vanish_and_the_rest_match_the_full_build(spec):
    stack = np.array(sample_points(spec, 10, seed=5))
    for pts in (stack[0], stack):
        w, terms = frame_for_spec(spec, pts[..., 4])
        om = _omegas(w, pts[..., :4])
        cf = _product(_frame_rows(*terms), om)
        assert cf.grad.shape[-3] == 2 and cf.hess.shape[-4:-2] == (2, 2)
        full = full_combine(_frame_rows(*terms), full_coframe(om))
        assert_zero_along_xyz((full.grad, (-3,)), (full.hess, (-4, -3)))
        bound = 1e-13 * max(np.max(np.linalg.cond(cf.value)), 10.0)
        for got, want in ((cf.grad, full.grad[..., 3:, :, :]),
                          (cf.hess, full.hess[..., 3:, 3:, :, :])):
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), spec.id
        g_full = full_metric_at(full)
        assert_zero_along_xyz((g_full.grad, (-3,)), (g_full.hess, (-4, -3)))
        g = metric_at(cf)
        assert g.grad.shape[-3] == 2 and g.hess.shape[-4:-2] == (2, 2)
        assert_metric_close(g, g_full, cf.value)
        assert_curvature_close(g, g_full)


@pytest.mark.parametrize("picture", ["F", "dual"])
def test_reduced_and_conformal_paths_match_the_full_build(picture):
    if picture == "F":
        q_of, F_of = identity_q(1.25), power_F(1.25, 2.5)
    else:
        H = F_jet(get_spec("H-power-3"), 1.1)
        q_of, F_of = H.derivative(), jet_var(1.1, 8) * H.derivative() - H
    w, terms = _in_q_frame(_frame_coeffs(q_of, F_of))
    C, om = _frame_rows(*terms), _omegas(w, POINT4)
    th = _reduced_frame(q_of, F_of, POINT4)[0]
    for part in ("value", "grad", "hess"):
        assert np.array_equal(getattr(th, part), getattr(_product(C, om), part)), part
    inv_nu = ReferenceJet2.of_jet1(jet_abs_pow(q_of, 0.5), 0, 1).reciprocal()  # the conformal factor's rows
    for rows in (C, _product(_in_lam(inv_nu.along(0)[..., None, None] * np.eye(DIM)), C)):
        full = full_combine(rows, full_coframe(om))
        g_full = full_metric_at(full)
        assert_zero_along_xyz((full.grad, (-3,)), (full.hess, (-4, -3)),
                              (g_full.grad, (-3,)), (g_full.hess, (-4, -3)))
        cf = _product(rows, om)
        g = metric_at(cf)
        assert_metric_close(g, g_full, cf.value)
        assert_curvature_close(g, g_full)


def test_plebanski_metric_keeps_every_partial_and_a_trailing_slice_agrees():
    # H depends on x, the second of (w, x, y, z): plebanski_metric keeps all
    # four partials, and the slice along (x, y, z) gives the same curvature
    d = PlebanskiData.from_spec(get_spec("H-two-pole"), 0.3, point4=(0.2, 0.3, -0.4, 0.6))
    g = plebanski_metric(d)
    assert g.grad.shape == (4, 4, 4) and g.hess.shape == (4, 4, 4, 4)
    assert not g.grad[0].any() and not g.hess[0].any() and not g.hess[:, 0].any()
    g3 = MatrixJet(g.value, g.grad[1:], g.hess[1:, 1:])
    assert_curvature_close(g3, g)
    assert_curvature_matches_reference(g3)
    assert metric_compatibility_error(g3) == metric_compatibility_error(g)


# --- curvature identities -------------------------------------------------


def test_riemann_symmetries_and_weyl_trace():
    cf = build_coframe(identity_q(1.3), power_F(1.3, 3.0), POINT4)
    g = metric_at(cf)
    rep = full_curvature(g)
    assert riemann_symmetry_error(rep) < 1e-9
    assert weyl_trace_error(rep, g) < 1e-9


@pytest.mark.parametrize("spec_id", ["F-power-2", "F-power-3", "H-two-pole"])
def test_diagnostics_on_a_stack_match_a_per_point_loop(spec_id):
    spec = get_spec(spec_id)
    pts = sample_points(spec, 3, seed=0)
    g = metric_at(coframe_for_spec(spec, pts))
    rep = full_curvature(g)
    sig, sym, trace = metric_signature(g), riemann_symmetry_error(rep), weyl_trace_error(rep, g)
    assert sig.shape == (3, 2) and sym.shape == trace.shape == (3,)
    for i, pt in enumerate(pts):
        g1 = metric_at(coframe_for_spec(spec, pt))
        rep1 = full_curvature(g1)
        assert tuple(sig[i]) == metric_signature(g1) == (2, 3)
        assert sym[i] == riemann_symmetry_error(rep1) and sym[i] < 1e-9
        # the stack and the loop round alike, so the ratios agree bit for bit
        assert trace[i] == weyl_trace_error(rep1, g1)


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_weyl_trace_error_is_round_off_on_every_case(spec):
    # the Weyl tensor is trace-free whether or not the metric is flat
    g = metric_at(coframe_for_spec(spec, sample_points(spec, 3, 0)))
    assert np.all(weyl_trace_error(full_curvature(g), g) < 1e-12), spec.id


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_weyl_trace_error_is_scale_free(c):
    spec = get_spec("F-power-3")
    g = metric_at(coframe_for_spec(spec, sample_points(spec, 3, 0)))
    g = MatrixJet(c * g.value, c * g.grad, c * g.hess)
    assert np.all(weyl_trace_error(full_curvature(g), g) < 1e-12)


def test_riemann_symmetry_error_floors_its_scale_at_one_per_point():
    # a stack of one zero and one large Riemann tensor: the zero row divides
    # by 1, the large row by its own largest entry
    rep = full_curvature(metric_at(build_coframe(identity_q(1.3), power_F(1.3, 3.0), POINT4)))
    R = rep.riemann
    bad = R + 1e-3 * np.einsum("bacd->abcd", R)  # breaks antisymmetry in (a, b)
    stack = replace(rep, riemann=np.stack([1e-12 * bad, 1e6 * bad]))
    small, large = riemann_symmetry_error(stack)
    assert small == riemann_symmetry_error(replace(rep, riemann=1e-12 * bad))
    assert small < 1e-12
    assert large == pytest.approx(riemann_symmetry_error(replace(rep, riemann=bad)), rel=1e-12)


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


@pytest.mark.parametrize("constants", [(1, 0, 0, 1), (1, 1, 1, -1)])
def test_elementary_coordinate_ricci(constants):
    # Ricci of the metric in the r coordinate is 6/(r^2-1) on the
    # r-r slot and zero elsewhere, for any basis mixing.
    for r0 in (1.5, 2.0, 3.2):
        q_of, F_of = elementary_frame(r0, constants)
        g = metric_at(build_coframe(q_of, F_of, POINT4))
        rep = curvature(g)
        expected = 6.0 / (r0 * r0 - 1.0)
        assert rep.ricci[4, 4] == pytest.approx(expected, rel=1e-8)
        off = rep.ricci.copy()
        off[4, 4] = 0.0
        assert np.max(np.abs(off)) < 1e-8 * abs(expected)


def test_elementary_rescale_flattens_ricci():
    # nu = 1/Omega (sign-normalised) satisfies the second-order equation
    # 40 nu'' + (6I' - I^2) nu = 0 and kills the Ricci of nu^{-2} g.
    for r0 in (1.6, 2.3):
        q_of, F_of = elementary_frame(r0, (1, 0, 0, 1))
        nu = 1.0 / omega_factor(r0)
        if nu.value() < 0:
            nu = -nu
        out = conformal_rescale_check(q_of, F_of, nu, POINT4)
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


# random rational points per picture at which the identity is proved
WEYL_IDENTITY_POINTS = 3
PICTURE_TABLES = (("F_of_q", SIXTH_ORDER), ("H_of_t", DUAL_SIXTH_ORDER))


def test_weyl_tensor_is_the_ode_left_side_exactly():
    # geometry's own frame, coframe, metric and curvature on Fractions, at random points
    # of S^12 (oracles.WEYL_IDENTITY_DEGREE): the frame Weyl tensor is 0 but on the
    # orbit of (theta^2, theta^5, theta^2, theta^5), where it is -LHS/(100 F''^4) in the
    # F picture and +LHS_dual/(100 H''^8) in the H picture, with no tolerance
    n = WEYL_IDENTITY_POINTS
    for picture, table in PICTURE_TABLES:
        assert weyl_identity_misses(picture, table, n, seed=0) == [], picture
        p = WEYL_IDENTITY_DEGREE[picture] / SZ_DRAWS
        print(f"[weyl identity] {picture}: degree d <= {WEYL_IDENTITY_DEGREE[picture]}, "
              f"|S| - 1 = 2^32: a false identity passes one point with probability "
              f"<= d/(|S| - 1) = {p:.2e}, all {n} points <= {p ** n:.1e}")


def test_weyl_identity_sees_a_wrong_coefficient():
    # the (y'')^2 (y'''')^2 coefficient one more, -51 -> -50 and -49 -> -48: every point misses
    for picture, table in PICTURE_TABLES:
        old = next(c for c, factors in table if factors == ((2, 2), (4, 2)))
        wrong = tuple((c + 1 if c == old else c, factors) for c, factors in table)
        assert wrong != table
        misses = weyl_identity_misses(picture, wrong, WEYL_IDENTITY_POINTS, seed=0)
        assert misses == list(range(WEYL_IDENTITY_POINTS)), picture


def test_weyl_residual_both_vanish_for_flat_H():
    spec = get_spec("H-triple-(-1/4,5/12,1/2)")
    H = F_jet(spec, 0.35)
    assert residual_ds6(H) < 1e-9
    cf = dual_coframe(H, POINT4)
    rep = curvature(metric_at(cf))
    assert rep.maxAbsWeyl / rep.metricScale < 1e-9


# --- catalog sweep ----------------------------------------------------------


def test_flatness_suite_over_catalog():
    for spec in catalog():
        pts = sample_points(spec, 3, seed=11)
        assert list(flatness_suite(spec, pts)) == [f"ode_residual_{spec.picture[0]}"], spec.id
        out = both_certificates(spec, pts)
        for name, values in out.items():
            assert not any(isinstance(r, C235Error) for r in values), (spec.id, name, values)
            if spec.expect_fail:
                assert all(r > 1e-3 for r in values), (spec.id, name)
            else:
                assert all(r < 1e-7 for r in values), (spec.id, name, values)


def sweep_points(spec):
    """POINT4 with each lam of a dense grid over the domain: the 1998 interior points
    of a 2000-point linspace, and 100 points from 1e-6 to 1e-2 of its width from each end."""
    lo, hi = spec.domain
    ends = np.geomspace(1e-6, 1e-2, 100) * (hi - lo)
    lam = np.concatenate([np.linspace(lo, hi, 2000)[1:-1], lo + ends, hi - ends])
    return np.column_stack([np.broadcast_to(POINT4, (lam.size, 4)), lam])


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_dense_sweep_certifies_every_case(spec):
    # no conditioning test guards the certificate, so this is the evidence that
    # none is needed: no point of the grid fails, both checks of every flat case
    # read well below the tolerance, and each negative control's far above it
    pts = sweep_points(spec)
    tols = {"weyl_flatness": WEYL_TOL}
    for name, out in both_certificates(spec, pts).items():
        errors = [r for r in out if isinstance(r, C235Error)]
        assert not errors, (name, errors[0])
        values = np.array(out)
        if spec.expect_fail:
            assert values.min() > 1e-3, (name, pts[np.argmin(values), 4])
        else:
            assert values.max() < tols.get(name, DEFAULT_TOL) / 3, (name, pts[np.argmax(values), 4])


def test_sample_points_respect_domain_and_seed():
    spec = get_spec("F-power-1/3")
    pts1 = sample_points(spec, 5, seed=3)
    pts2 = sample_points(spec, 5, seed=3)
    assert pts1.shape == (5, 5) and np.array_equal(pts1, pts2)
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
                # the drawn (n, 5) array itself, bit for bit
                pts = sample_points(spec, n, seed)
                assert pts.dtype == float and pts.shape == (n, 5), (spec.id, seed, n)
                assert pts.tolist() == [list(p) for p in _sample_points_per_point(spec, n, seed)], \
                    (spec.id, seed, n)


# --- the Jet1 work along the point axis --------------------------------------


def frame_array(w, terms) -> np.ndarray:
    """(..., 7, 3): the rows q, F, q' of w and the frame terms u, s, B, coef4 of frame_for_spec."""
    return np.concatenate([w, np.stack([t.derivatives() for t in terms], axis=-2)], axis=-2)


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_batched_jets_match_single_point(spec):
    # row i of each stacked result against the call at point i alone, within
    # 1e-14 of the largest coefficient (the residuals are already relative)
    pts = np.array(sample_points(spec, 6, seed=7))
    jet = F_jet(spec, pts[:, 4])
    coeffs = frame_array(*frame_for_spec(spec, pts[:, 4], jet=jet))
    residual = residual_6th if spec.picture == "F_of_q" else residual_ds6
    res = residual(jet)
    legendre = legendre_transform(jet) if spec.picture == "F_of_q" else None
    for i, lam in enumerate(pts[:, 4]):
        jet1 = F_jet(spec, float(lam))
        assert np.max(np.abs(jet.coeffs[i] - jet1.coeffs)) <= 1e-14 * np.max(np.abs(jet1.coeffs))
        c1 = frame_array(*frame_for_spec(spec, float(lam), jet=jet1))
        assert np.max(np.abs(coeffs[i] - c1)) <= 1e-14 * np.max(np.abs(c1)), (spec.id, i)
        assert abs(res[i] - residual(jet1)) <= 1e-14, (spec.id, i)
        if legendre is not None:
            t0, H = legendre_transform(jet1)
            got = np.append(legendre[1].coeffs[i], legendre[0][i])
            want = np.append(H.coeffs, t0)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (spec.id, i)


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_one_point_residuals_are_their_rows_of_a_stack(spec):
    # row i of a stacked jet, fed back as a one-point jet, takes the scalar
    # branch of the residuals and must give row i of the stacked residual exactly
    pts = np.array(sample_points(spec, 6, seed=7))[:, 4]
    jet = F_jet(spec, pts)
    residuals = [residual_6th, residual_ds6, partial(dual_residual, spec)]
    if spec.picture == "F_of_q":  # F's reduction to the generalised Chazy equation, k = 2/3
        residuals.append(lambda F: residual_gen_chazy(reduce_F_to_I(F), Fraction(2, 3)))
    stacked = {f: f(jet) for f in residuals}
    for i in range(len(pts)):
        one = Jet1(jet.basepoint[i], jet.coeffs[i])
        for f, rows in stacked.items():
            got = f(one)
            assert type(got) is float and got == rows[i], (spec.id, i, f)


def test_the_reduction_refuses_the_rows_where_F2_vanishes():
    # F = q^3 has F'' = 6q, 0 at q = 0 only
    with pytest.raises(DegenerateError) as exc:
        reduce_F_to_I(jet_var(np.array([0.0, 1.0]), 8) ** 3)
    assert exc.value.rows.tolist() == [True, False]


def test_a_bad_row_gets_its_error_and_the_others_their_values(monkeypatch):
    spec = get_spec("F-schwarz-(3,3,3)")
    pts = np.array(sample_points(spec, 6, seed=3))
    alone = [both_certificates(spec, pts[i:i + 1]) for i in range(6)]
    # a residual is already relative: a stack's rounding moves it by a few 1e-16
    bounds = {"ode_residual_F": {"abs": 1e-14}, "weyl_flatness": {"rel": 1e-9, "abs": 1e-20}}

    def check(results, bad, error, text=None):
        for name, outcomes in results.items():
            for i, r in enumerate(outcomes):
                if i in bad:
                    assert isinstance(r, error) and text in (None, str(r)), (name, i)
                else:
                    assert r == pytest.approx(alone[i][name][0], **bounds[name]), (name, i)

    outside = pts.copy()
    outside[2, 4] = 0.99  # out of the declared domain
    with pytest.raises(DomainError) as exc:
        F_jet(spec, outside[:, 4])
    assert exc.value.rows.tolist() == [i == 2 for i in range(6)]
    check(both_certificates(spec, outside), {2}, DomainError)
    # a per-row BranchError deep inside F_jet, at points 0 and 4: the branch rule of
    # the Schwarz denominator's first power, s^e1, sees the s of each point as its base
    power = dist.real_branch_power

    def flaky(lead, e):
        BranchError.raise_where(np.isin(lead, pts[[0, 4], 4]), "made to fail here")
        return power(lead, e)

    monkeypatch.setattr(dist, "real_branch_power", flaky)
    found = [None] * 6
    _, live = on_regular_rows(lambda p: F_jet(spec, p), pts[:, 4], np.arange(6), found)
    assert live.tolist() == [1, 2, 3, 5]
    assert [type(e).__name__ for e in found] == [
        "BranchError", "NoneType", "NoneType", "NoneType", "BranchError", "NoneType"]
    check(both_certificates(spec, pts), {0, 4}, BranchError, "made to fail here")


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


def _divided_derivs(dq: Jet1, F_of: Jet1):
    """F' to F'''' in q, each step a derivative divided by dq."""
    out, f = [], F_of
    for _ in range(4):
        f = f.derivative() / dq
        out.append(f)
    return out


def test_derivs_in_q_divide_unless_dq_is_the_unit_jet():
    F = jet_abs_pow(jet_var(np.array([1.3, 0.7]), 8), 2.5)
    unit = jet_var(np.array([1.3, 0.7]), 8).derivative()
    # with lam = q, dividing by the unit jet leaves the plain derivatives, bit for bit
    f = F
    for got in _derivs_in_q(unit, F):
        f = f.derivative()
        assert np.array_equal(got.coeffs, f.coeffs)
    # value 1 and a slope, in one row of a stack: every row divides
    dq = Jet1(unit.basepoint, unit.coeffs + [[0.0] * 8, [0.0, 0.5] + [0.0] * 6])
    for got, want in zip(_derivs_in_q(dq, F), _divided_derivs(dq, F)):
        assert np.array_equal(got.coeffs, want.coeffs)
    assert not np.array_equal(_derivs_in_q(dq, F)[0].coeffs[1], F.derivative().coeffs[1])
