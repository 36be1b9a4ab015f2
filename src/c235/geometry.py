"""Metric assembly from coframes and curvature certification.

The five coordinates are (x, y, z, p, lam) where lam is the jet variable
of the supplied data: q itself in the F-picture, t in the dual picture, r
or s for the parametrised families. Coframe rows and metric components
are exact order-2 jets held as dense arrays (value, first and second
partials), so the curvature arrays need no finite differences. The same
functions serve one point or, along a leading axis of every array, many.

Conventions: Gamma^a_bc = (1/2) g^{ad}(d_b g_dc + d_c g_bd - d_d g_bc);
R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma Gamma terms;
Ricci_bd = R^a_bad.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence, Tuple

import numpy as np

from .errors import C235Error, DegenerateError, SingularCoframeError, SingularMetricError
from .chazy import ds6_monomials
from .jets import Jet1, MJet2, jet_var
from .dist import SolutionSpec, F_jet, get_spec
from .specialfn import ClosedFormId, closed_form_solution

DIM = 5

# eta for g = 2 th1 th5 - 2 th2 th4 + (4/3) th3 th3
ETA = np.zeros((5, 5))
ETA[0, 4] = ETA[4, 0] = 1.0
ETA[1, 3] = ETA[3, 1] = -1.0
ETA[2, 2] = 4.0 / 3.0


@dataclass(frozen=True)
class Coframe:
    """Rows i give theta^i = value[i, a] dx^a over coords.

    grad[i, a, k] and hess[i, a, k, l] are the first and second partials
    of value[i, a] along coordinates k and l.
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    coords: Tuple[str, ...]


@dataclass(frozen=True)
class MetricJet:
    """Metric components g_ab with partials grad[k, a, b] and hess[k, l, a, b]."""

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    christoffel: np.ndarray
    riemann: np.ndarray  # fully lowered R_abcd
    ricci: np.ndarray
    scalar: float | np.ndarray
    weyl: np.ndarray  # fully lowered C_abcd
    maxAbsWeyl: float | np.ndarray
    maxAbsRicci: float | np.ndarray
    metricScale: float | np.ndarray


def _of_lam(jet) -> MJet2:
    """A jet in lam, or its coefficients, as an MJet2 of dimension 1: d/dlam and d2/dlam2."""
    return MJet2.from_jet1(jet, 0, 1)


def _taylor(*jets: Jet1) -> np.ndarray:
    """The first three Taylor coefficients of each jet, one row per jet: (..., len(jets), 3)."""
    return np.stack([j.coeffs[..., :3] for j in jets], axis=-2)


def _chain(f: Jet1, dq: Jet1) -> Jet1:
    """d f / d q for f a jet in lam and dq = dq/dlam, via df/dq = f'(lam)/q'(lam)."""
    return f.derivative() / dq


def _derivs_in_q(dq: Jet1, F_of: Jet1):
    """F', F'', F''', F'''' (derivatives in q) as jets in lam, from dq = dq/dlam."""
    DegenerateError.raise_where(dq.value() == 0, "dq/dlam = 0")
    Fp = _chain(F_of, dq)
    Fpp = _chain(Fp, dq)
    DegenerateError.raise_where(Fpp.value() == 0, "F'' = 0 at the basepoint")
    F3 = _chain(Fpp, dq)
    return Fp, Fpp, F3, _chain(F3, dq)


def _frame_coeffs(q_of: Jet1, F_of: Jet1) -> np.ndarray:
    """_taylor of q, F, q' and of F' to F'''' (derivatives in q), all in lam."""
    dq = q_of.derivative()
    return _taylor(q_of, F_of, dq, *_derivs_in_q(dq, F_of))


def _omegas(c, point4, coords) -> Coframe:
    """The base 1-forms dy - p dx, dp - q dx, dz - F dx, q' dlam, dx; c is the _taylor of q, F, q'."""
    p = np.asarray(point4, dtype=float)[..., 3]
    value = np.zeros(p.shape + (DIM, DIM))
    grad = np.zeros(p.shape + (DIM, DIM, DIM))
    hess = np.zeros(p.shape + (DIM, DIM, DIM, DIM))
    value[..., 0, 0] = -p
    value[..., 0, 1] = value[..., 1, 3] = value[..., 2, 2] = value[..., 4, 0] = 1.0
    grad[..., 0, 0, 3] = -1.0
    for i, a, k, sign in ((1, 0, 0, -1.0), (2, 0, 1, -1.0), (3, 4, 2, 1.0)):
        value[..., i, a] = sign * c[..., k, 0]
        grad[..., i, a, 4] = sign * c[..., k, 1]
        hess[..., i, a, 4, 4] = 2.0 * sign * c[..., k, 2]
    return Coframe(value, grad, hess, tuple(coords))


def _combine(C, om: Coframe) -> Coframe:
    """The rows theta^i = C_ij omega^j, by the product rule.

    C is five rows of five entries, each an MJet2 in lam (_of_lam) or a
    plain number, so only the lam slot of each partial gets the terms of
    C's derivatives.
    """
    batch = om.value.shape[:-2]
    Cs = np.zeros(batch + (3, DIM, DIM))  # value, d/dlam, d2/dlam2
    for i, row in enumerate(C):
        for j, c in enumerate(row):
            if isinstance(c, MJet2):
                Cs[..., 0, i, j], Cs[..., 1, i, j], Cs[..., 2, i, j] = (
                    c.value, c.gradient[..., 0], c.hessian[..., 0, 0])
            else:
                Cs[..., 0, i, j] = c
    Cv, C1 = Cs[..., 0, :, :], Cs[..., 1, :, :]
    CW = Cs @ om.value[..., None, :, :]  # [m, i, a]: C^(m) omega
    grad = (Cv @ om.grad.reshape(batch + (DIM, DIM**2))).reshape(batch + (DIM,) * 3)
    grad[..., 4] += CW[..., 1, :, :]
    hess = (Cv @ om.hess.reshape(batch + (DIM, DIM**3))).reshape(batch + (DIM,) * 4)
    cross = (C1 @ om.grad.reshape(batch + (DIM, DIM**2))).reshape(batch + (DIM,) * 3)  # [i, a, l]
    hess[..., 4, :] += cross
    hess[..., :, 4] += cross
    hess[..., 4, 4] += CW[..., 2, :, :]
    return Coframe(CW[..., 0, :, :], grad, hess, om.coords)


def _coframe(c, point4, coords) -> Coframe:
    """The theta rows from the _frame_coeffs c.

    With u = F', s = 1/F'' and comb = u w2 - w3: th1 = w1 - s comb,
    th2 = s comb, th3 = (1 - u B) w2 + B w3, th4 = coef4 comb + w4 - w5,
    th5 = -w4.
    """
    u, Fpp, F3, F4 = (_of_lam(c[..., k, :]) for k in range(3, 7))
    s = Fpp.reciprocal()
    B = F3 * s * s * 0.25
    coef4 = (F3 * F3 * 7.0 - Fpp * F4 * 4.0) * s * s * s * 0.025
    su = s * u
    return _combine(
        (
            (1.0, -su, s, 0.0, 0.0),
            (0.0, su, -s, 0.0, 0.0),
            (0.0, 1.0 - u * B, B, 0.0, 0.0),
            (0.0, coef4 * u, -coef4, 1.0, -1.0),
            (0.0, 0.0, 0.0, -1.0, 0.0),
        ),
        _omegas(c, point4, coords),
    )


def build_coframe(q_of: Jet1, F_of: Jet1, point4, coords=("x", "y", "z", "p", "q")) -> Coframe:
    """The five theta rows of the full coframe from F-in-q data.

    q_of and F_of are jets in the fifth coordinate lam; in the plain
    F-picture q_of is the identity jet. The dual picture uses
    q_of = H', F_of = t H' - H, which reproduces the displayed dual
    coframe exactly.
    """
    return _coframe(_frame_coeffs(q_of, F_of), point4, coords)


def coframe_H(H: Jet1, point4, coords=("x", "y", "z", "p", "t")) -> Coframe:
    """The dual-picture coframe: build_coframe of the Legendre data q = H', F = t H' - H."""
    if H.deriv(2) == 0:
        raise DegenerateError("H'' = 0")
    Hp = H.derivative()
    return build_coframe(Hp, jet_var(H.basepoint, H.order) * Hp - H, point4, coords)


def _reduced(q_of: Jet1, F_of: Jet1, point4):
    """The reduced form 2 wt2 wt5 - 2 wt1 wt4 + (4/3) wt3^2 - (I/3) wt2 wt3
    + ((I' - I^2/6)/10) wt2^2, with wt = (w1, th2, w2, w4, w5).

    Returns (C, omegas, W, I, I'). Completing the square in wt3 makes g
    eta-diagonal in the rows (wt2, wt1, wt3 - (I/8) wt2, wt4, wt5 + e wt2),
    e = I'/20 - (3/160) I^2, whose coefficients against the omegas are the
    rows of C. W holds the values of wt1..wt5; I = 2F'''/F'' and I' are
    jets in lam.
    """
    dq = q_of.derivative()
    Fp, Fpp, F3, _ = _derivs_in_q(dq, F_of)
    I = 2.0 * F3 / Fpp
    Ip = _chain(I, dq)
    s = _of_lam(Fpp).reciprocal()
    su = s * _of_lam(Fp)
    h = _of_lam(I) * 0.125
    e = _of_lam(Ip) * 0.05 - _of_lam(I) * _of_lam(I) * (3.0 / 160.0)
    om = _omegas(_taylor(q_of, F_of, dq), point4, ("x", "y", "z", "p", "q"))
    C = (
        (0.0, su, -s, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0, 0.0),
        (0.0, 1.0 - h * su, h * s, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0, 0.0),
        (0.0, e * su, -e * s, 0.0, 1.0),
    )
    wt = np.array([
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, su.value, -s.value, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ])
    return C, om, wt @ om.value, I, Ip


def reduced_metric(q_of: Jet1, F_of: Jet1, point4) -> MetricJet:
    """g from the reduced form: 2 wt2 wt5 - 2 wt1 wt4 + (4/3) wt3^2 + I-terms."""
    C, om, _, _, _ = _reduced(q_of, F_of, point4)
    return metric_at(_combine(C, om))


def _require_regular(M, error: type, what: str) -> None:
    """Raise error where a matrix of M (one, or a stack) has cond (inf at 0) > 1e13."""
    error.raise_where(np.linalg.cond(M) > 1e13, f"{what} is singular at this point")


def metric_at(cf: Coframe) -> MetricJet:
    """g_ab = eta_ij theta^i_a theta^j_b and its first two partials."""
    W = cf.value
    _require_regular(W, SingularCoframeError, "coframe")
    EW = ETA @ W
    gT = cf.grad.swapaxes(-3, -1)  # [k, a, i]
    grad = gT @ EW[..., None, :, :]
    rows = np.moveaxis(cf.hess, (-4, -3), (-1, -2)) @ EW[..., None, None, :, :]
    Eg = np.moveaxis((ETA @ cf.grad.reshape(W.shape[:-1] + (DIM**2,))).reshape(cf.grad.shape),
                     -1, -3)  # [l, i, b]
    cross = gT[..., :, None, :, :] @ Eg[..., None, :, :, :]
    return MetricJet(
        W.swapaxes(-1, -2) @ EW,
        grad + grad.swapaxes(-1, -2),
        rows + rows.swapaxes(-1, -2) + cross + cross.swapaxes(-4, -3),
    )


def _lower_christoffel(dG):
    """Gamma_dbc = (d_b g_dc + d_c g_bd - d_d g_bc) / 2 from dG[..., k, a, b] = d_k g_ab."""
    return 0.5 * (dG.swapaxes(-3, -2) + dG.swapaxes(-3, -1) - dG)


def curvature(g: MetricJet) -> CurvatureReport:
    """Full curvature data of a metric given as an order-2 jet.

    Every index contraction is a matmul over reshaped stacks, so one point
    and a stack of points take the same path.
    """
    dG, d2G = g.grad, g.hess
    n = g.value.shape[-1]
    batch = g.value.shape[:-2]
    G = 0.5 * (g.value + g.value.swapaxes(-1, -2))
    _require_regular(G, SingularMetricError, "metric")
    ginv = np.linalg.inv(G)
    Glow = _lower_christoffel(dG).reshape(batch + (n, n * n))
    Gam = ginv @ Glow  # Gamma^a_(bc)
    # d_e Gamma^a_bc = g^ad (d_e Gamma_dbc - d_e g_df Gamma^f_bc)
    dGam = ginv[..., None, :, :] @ (
        _lower_christoffel(d2G).reshape(batch + (n, n, n * n)) - dG @ Gam[..., None, :, :])
    # X[a, c, d, b] = d_c Gamma^a_db + Gamma^a_ce Gamma^e_db, and R^a_bcd = X_acdb - X_adcb
    X = dGam.reshape(batch + (n,) * 4).swapaxes(-4, -3) + (
        Gam.reshape(batch + (n * n, n)) @ Gam).reshape(batch + (n,) * 4)
    Racdb = X - X.swapaxes(-3, -2)
    ricci = np.trace(Racdb, axis1=-4, axis2=-3)
    ricci = 0.5 * (ricci + ricci.swapaxes(-1, -2))
    scalar = np.sum(ginv * ricci, axis=(-2, -1))
    Rlow = np.moveaxis((G @ Racdb.reshape(batch + (n, n**3))).reshape(batch + (n,) * 4), -1, -3)
    # Weyl = R - G (Kulkarni-Nomizu) A, with A the Schouten tensor
    A = ricci / (n - 2) - (np.asarray(scalar) / (2 * (n - 1) * (n - 2)))[..., None, None] * G
    T = G[..., :, None, :, None] * A[..., None, :, None, :]  # G_ac A_bd
    T = T + T.swapaxes(-4, -3).swapaxes(-2, -1)
    weyl = Rlow - (T - T.swapaxes(-2, -1))
    return CurvatureReport(
        christoffel=Gam.reshape(batch + (n,) * 3),
        riemann=Rlow,
        ricci=ricci,
        scalar=scalar,
        weyl=weyl,
        maxAbsWeyl=np.max(np.abs(weyl), axis=(-4, -3, -2, -1)),
        maxAbsRicci=np.max(np.abs(ricci), axis=(-2, -1)),
        metricScale=np.max(np.abs(G), axis=(-2, -1)),
    )


def riemann_symmetry_error(rep: CurvatureReport) -> float:
    """Max relative violation of the algebraic Riemann identities."""
    R = rep.riemann
    scale = max(float(np.max(np.abs(R))), 1.0)
    e1 = np.max(np.abs(R + np.einsum("bacd->abcd", R)))
    e2 = np.max(np.abs(R + np.einsum("abdc->abcd", R)))
    e3 = np.max(np.abs(R - np.einsum("cdab->abcd", R)))
    bianchi = R + np.einsum("acdb->abcd", R) + np.einsum("adbc->abcd", R)
    e4 = np.max(np.abs(bianchi))
    return float(max(e1, e2, e3, e4) / scale)


def weyl_trace_error(rep: CurvatureReport, g: MetricJet) -> float:
    """Max contraction of the Weyl tensor with the inverse metric, relative."""
    ginv = np.linalg.inv(0.5 * (g.value + g.value.T))
    scale = max(rep.maxAbsWeyl, rep.metricScale * 1e-30, 1e-30)
    t1 = np.einsum("ac,abcd->bd", ginv, rep.weyl)
    t2 = np.einsum("bd,abcd->ac", ginv, rep.weyl)
    t3 = np.einsum("ad,abcd->bc", ginv, rep.weyl)
    err = max(np.max(np.abs(t1)), np.max(np.abs(t2)), np.max(np.abs(t3)))
    return float(err / max(scale, 1e-30))


def metric_signature(g: MetricJet) -> Tuple[int, int]:
    ev = np.linalg.eigvalsh(0.5 * (g.value + g.value.T))
    neg = int(np.sum(ev < 0))
    pos = int(np.sum(ev > 0))
    return tuple(sorted((neg, pos)))


# --- catalog plumbing ---------------------------------------------------


def frame_jets_for_spec(spec: SolutionSpec, param_point, order: int = 8, jet: Jet1 | None = None):
    """(q_of, F_of) jets in the fifth coordinate for a catalog entry.

    F-picture entries use lam = q directly except elementary_r, which
    keeps lam = r so the displayed Ricci statement can be checked in the
    r coordinate. H-picture entries use lam = t with the Legendre data
    q = H'(t), F = t H'(t) - H(t). `param_point` is one parameter or an
    array of them. `jet` is F_jet(spec, param_point, order) when the
    caller already holds it; elementary_r builds its frame from the
    closed-form pair in r and does not use it.
    """
    if spec.family == "elementary_r":
        cid = ClosedFormId("elementary_r", tuple(spec.params["constants"]))
        z1, z2 = closed_form_solution(cid, param_point, order)
        q_of = z2 / z1
        Fpp_of_r = z1 ** 3
        Fp_of_r = (Fpp_of_r * q_of.derivative()).antiderivative(0.0)
        F_of_r = (Fp_of_r * q_of.derivative()).antiderivative(0.0)
        return q_of, F_of_r
    if jet is None:
        jet = F_jet(spec, param_point, order)
    lam = jet_var(jet.basepoint, jet.order)
    if spec.picture == "H_of_t":
        return jet.derivative(), lam * jet.derivative() - jet
    return lam, jet


def _coords(spec: SolutionSpec) -> Tuple[str, ...]:
    """The coordinate names of a catalog entry's coframe."""
    lam_name = {"H_of_t": "t"}.get(spec.picture, "q")
    if spec.family == "elementary_r":
        lam_name = "r"
    if spec.family == "two_pole" and spec.picture == "H_of_t":
        lam_name = "x"
    return ("x", "y", "z", "p", lam_name)


def coframe_for_spec(spec: SolutionSpec, point5, order: int = 8, jet: Jet1 | None = None) -> Coframe:
    """Full coframe for a catalog entry at (x, y, z, p, param), or at each row of a stack.

    `jet` is passed on to frame_jets_for_spec.
    """
    point5 = np.asarray(point5, dtype=float)
    q_of, F_of = frame_jets_for_spec(spec, point5[..., 4], order, jet)
    return build_coframe(q_of, F_of, point5[..., :4], _coords(spec))


def sample_points(spec: SolutionSpec, n: int, seed: int):
    """n points (x,y,z,p in [-1,1], param in the admissible domain)."""
    u = np.random.default_rng(seed).random((n, 5))
    lo, hi = spec.domain
    # the same doubles, in the same order, as rng.uniform(-1, 1, 4) then
    # rng.uniform(lo, hi) point by point: uniform is low + (high - low) * u
    u[:, :4] = -1.0 + 2.0 * u[:, :4]
    u[:, 4] = lo + (hi - lo) * u[:, 4]
    return list(map(tuple, u.tolist()))


def _rows(x, keep):
    """The rows `keep` of a stack: an array, or a dataclass of arrays such as a Jet1 or Coframe."""
    if isinstance(x, np.ndarray):
        return x[keep]
    arrays = {f.name: getattr(x, f.name) for f in fields(x)}
    return replace(x, **{k: v[keep] for k, v in arrays.items() if isinstance(v, np.ndarray)})


def on_regular_rows(fn, x, live, found):
    """(fn(x), live) for a stack x whose rows belong to the points `live`.

    Where fn raises a C235Error, each point its `rows` mask (every point
    when it has none) gets the error in found[point], and fn runs again on
    the other rows; (None, an empty live) once no point is left.
    """
    while live.size:
        try:
            return fn(x), live
        except C235Error as exc:
            bad = np.ones(live.size, dtype=bool) if exc.rows is None else exc.rows
            for i in live[bad]:
                found[i] = exc
            x, live = _rows(x, ~bad), live[~bad]
    return None, live


def flatness_suite(spec: SolutionSpec, points, tol: float = 1e-7, jet: Jet1 | None = None):
    """Per-point Weyl-flatness ratios for a catalog entry.

    One coframe, metric and curvature report covers all the points. `jet`,
    when given, is F_jet of the entry at the points' parameters, so it is
    not built again. A point whose jet, coframe or metric fails gets its
    error, and the other points are still evaluated.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    pts = np.reshape(np.asarray(points, dtype=float), (-1, 5))
    found = [None] * len(pts)  # each point's ratio, or the C235Error that stopped it

    def coframes(rows):
        q_of, F_of = frame_jets_for_spec(spec, pts[rows, 4], jet=None if jet is None else _rows(jet, rows))
        return build_coframe(q_of, F_of, pts[rows, :4], _coords(spec))

    live = np.arange(len(pts))
    cf, live = on_regular_rows(coframes, live, live, found)
    g, live = on_regular_rows(metric_at, cf, live, found)
    rep, live = on_regular_rows(curvature, g, live, found)
    if live.size:
        for i, ratio in zip(live, (rep.maxAbsWeyl / rep.metricScale).tolist()):
            found[i] = ratio
    results = []
    for pt, r in zip(pts.tolist(), found):
        ok = not isinstance(r, C235Error)
        entry = {"point": tuple(pt), "weylRatio": r if ok else None, "pass": ok and r < tol}
        results.append(entry if ok else dict(entry, error=f"{type(r).__name__}: {r}"))
    return {
        "id": spec.id,
        "tol": tol,
        "results": results,
        "pass": all(r["pass"] for r in results),
    }


def _frame_components_rank2(T: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Components of a (0,2) tensor against the frame rows of W."""
    Winv = np.linalg.inv(W)
    return Winv.T @ T @ Winv


def _frame_components_rank4(T: np.ndarray, W: np.ndarray) -> np.ndarray:
    Winv = np.linalg.inv(W)
    return np.einsum("ai,bj,ck,dl,abcd->ijkl", Winv, Winv, Winv, Winv, T)


def ricci_identity_check(q_of: Jet1, F_of: Jet1, point4) -> float:
    """Relative error of Ricci against (9/120)(6I' - I^2) on wt4 x wt4."""
    C, om, W, I, Ip = _reduced(q_of, F_of, point4)
    rep = curvature(metric_at(_combine(C, om)))
    Rf = _frame_components_rank2(rep.ricci, W)
    I0, Ip0 = I.value(), Ip.value()
    expected = (9.0 / 120.0) * (6.0 * Ip0 - I0 * I0)
    scale = max(abs(expected), rep.metricScale * 1e-8, 1e-12)
    off = Rf.copy()
    off[3, 3] = 0.0
    err_off = np.max(np.abs(off)) / max(abs(expected), 1.0)
    err_44 = abs(Rf[3, 3] - expected) / scale
    return float(max(err_44, err_off))


def conformal_rescale_check(q_of: Jet1, F_of: Jet1, nu: Jet1, point4, nu_in_lambda: bool = False):
    """Ricci of nu^{-2} g against (3/(40 nu))(40 nu'' + (6I'-I^2) nu).

    nu is a jet in q unless nu_in_lambda is set, in which case it is a
    jet in the fifth coordinate. nu'' in the prediction always means the
    second q-derivative. Returns a dict with the computed frame Ricci
    component, the displayed prediction, and their relative mismatch.
    """
    C, om, W, I, Ip = _reduced(q_of, F_of, point4)
    from .jets import jet_compose

    if nu_in_lambda:
        nu_lam = nu
    elif q_of.coeffs[1] == 1.0 and not any(q_of.coeffs[2:]):
        nu_lam = nu
    else:
        nu_lam = jet_compose(nu, q_of)
    if nu_lam.value() <= 0:
        raise DegenerateError("nu must be positive")
    # nu^{-2} g is eta-diagonal in the reduced rows divided by nu
    inv_nu = _of_lam(nu_lam).reciprocal()
    ghat = metric_at(_combine([[inv_nu * c for c in row] for row in C], om))
    rep = curvature(ghat)
    Rf = _frame_components_rank2(rep.ricci, W)
    dq = q_of.derivative()
    nupp = _chain(_chain(nu_lam, dq), dq).value()
    nu0 = nu_lam.value()
    I0, Ip0 = I.value(), Ip.value()
    ode = 40.0 * nupp + (6.0 * Ip0 - I0 * I0) * nu0
    predicted = 3.0 / (40.0 * nu0) * ode
    # the rescaled-frame component: wt4 is unscaled, so compare directly
    computed = Rf[3, 3]
    off = Rf.copy()
    off[3, 3] = 0.0
    denom = max(abs(predicted), rep.metricScale * 1e-6, 1e-10)
    return {
        "computed": float(computed),
        "predicted": float(predicted),
        "odeValue": float(ode),
        "mismatch": float(abs(computed - predicted) / denom),
        "offComponentMax": float(np.max(np.abs(off))),
        "ricciMax": float(rep.maxAbsRicci),
    }


def weyl_equals_residual_check(H_jets: Sequence[Jet1], point4=(0.1, -0.2, 0.3, 0.4)):
    """The single frame Weyl component against the sixth-order ODE LHS.

    The Weyl tensor of the dual-picture metric has one independent frame
    component in the (theta^2, theta^5) slot; empirically it satisfies
    C * (H'')^8 = LHS / 100 at every point for every H. Returns the
    per-basepoint data and the relative spread of the normalised ratio.
    """
    rows = []
    for H in H_jets:
        cf = coframe_H(H, point4)
        rep = curvature(metric_at(cf))
        Cf = _frame_components_rank4(rep.weyl, cf.value)
        comp = Cf[1, 4, 1, 4]  # the single independent slot (theta^2, theta^5)
        d = [H.deriv(i) for i in range(7)]
        lhs = sum(ds6_monomials(d))
        ratio = comp * d[2] ** 8 / lhs if lhs != 0.0 else None
        rows.append(
            {"t0": float(H.basepoint), "weyl": float(comp), "ode": float(lhs),
             "ratio": None if ratio is None else float(ratio)}
        )
    ratios = np.array([r["ratio"] for r in rows if r["ratio"] is not None])
    if ratios.size == 0:
        spread = 0.0
        mean = 0.0
    else:
        mean = float(np.mean(ratios))
        spread = float(np.max(np.abs(ratios - mean)) / abs(mean)) if mean != 0 else float("inf")
    return {"rows": rows, "ratioMean": mean, "ratioSpread": spread}
