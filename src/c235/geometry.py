"""Metric assembly from coframes and curvature certification.

The five coordinates are (x, y, z, p, lam) where lam is the jet variable
of the supplied data: q itself in the F-picture, t in the dual picture, r
or s for the parametrised families. Coframe rows, their coefficients and
metric components are exact order-2 jets in one layout, MatrixJet, with
one product rule, so the curvature arrays need no finite differences. The
same functions serve one point or, along a leading axis of every array, many.

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
from .jets import Jet1, MJet2, _unit, jet_var
from .dist import SolutionSpec, F_jet
from .specialfn import ClosedFormId, closed_form_solution

DIM = 5

# eta for g = 2 th1 th5 - 2 th2 th4 + (4/3) th3 th3
ETA = np.zeros((5, 5))
ETA[0, 4] = ETA[4, 0] = 1.0
ETA[1, 3] = ETA[3, 1] = -1.0
ETA[2, 2] = 4.0 / 3.0


@dataclass(frozen=True)
class MatrixJet:
    """An (m, n) matrix of order-2 jets: value[..., i, a], grad[..., k, i, a], hess[..., k, l, i, a].

    k and l run over the last A = grad.shape[-3] coordinates only, and every
    partial along the others is zero. Catalog coframes (theta^i = value[i, a]
    dx^a) and metrics have A = 2, for (p, lam): the distribution is
    invariant under translations in x, y, z.
    """

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
    """A jet in lam, or its coefficients, as an MJet2 of dimension 1."""
    return MJet2.from_jet1(jet, 0, 1)


def _in_lam(D: np.ndarray) -> MatrixJet:
    """The (..., 3, m, n) stack of D, dD/dlam and d2D/dlam2 as a MatrixJet over (p, lam)."""
    batch, mn = D.shape[:-3], D.shape[-2:]
    grad = np.zeros(batch + (2,) + mn)
    hess = np.zeros(batch + (2, 2) + mn)
    grad[..., 1, :, :] = D[..., 1, :, :]
    hess[..., 1, 1, :, :] = D[..., 2, :, :]
    return MatrixJet(D[..., 0, :, :], grad, hess)


def _product(a: MatrixJet, b: MatrixJet) -> MatrixJet:
    """The matrix product a b by the product rule, partial by partial."""
    av, bv = a.value[..., None, :, :], b.value[..., None, :, :]
    cross = a.grad[..., :, None, :, :] @ b.grad[..., None, :, :, :]  # [k, l]: da/dk db/dl
    return MatrixJet(
        a.value @ b.value,
        a.grad @ bv + av @ b.grad,
        a.hess @ bv[..., None, :, :] + av[..., None, :, :] @ b.hess + cross + cross.swapaxes(-4, -3),
    )


def _d_dq(dq: Jet1):
    """The map f -> df/dq = f'(lam)/q'(lam) on jets f in lam, for dq = dq/dlam.

    Where dq is exactly the unit jet at every row, lam is q (the F-picture)
    and the map is the plain derivative: dividing by the unit jet would
    return its operand unchanged.
    """
    if (dq.coeffs == _unit(dq.order + 1)).all():
        return Jet1.derivative
    DegenerateError.raise_where(dq.value() == 0, "dq/dlam = 0")
    return lambda f: f.derivative() / dq


def _derivs_in_q(dq: Jet1, F_of: Jet1):
    """F', F'', F''', F'''' (derivatives in q) as jets in lam, from dq = dq/dlam."""
    step = _d_dq(dq)
    Fp = step(F_of)
    Fpp = step(Fp)
    DegenerateError.raise_where(Fpp.value() == 0, "F'' = 0 at the basepoint")
    F3 = step(Fpp)
    return Fp, Fpp, F3, step(F3)


def _frame_coeffs(q_of: Jet1, F_of: Jet1) -> np.ndarray:
    """The first three Taylor coefficients in lam of q, F, q' and of F' to F'''' (in q).

    One row per jet: (..., 7, 3).
    """
    dq = q_of.derivative()
    jets = (q_of, F_of, dq, *_derivs_in_q(dq, F_of))
    return np.stack([j.coeffs[..., :3] for j in jets], axis=-2)


def _omegas(c, point4) -> MatrixJet:
    """The base 1-forms dy - p dx, dp - q dx, dz - F dx, q' dlam, dx; c is the _frame_coeffs.

    Their partials are along (p, lam) alone, the last two coordinates.
    """
    p = np.asarray(point4, dtype=float)[..., 3]
    D = np.zeros(p.shape + (3, DIM, DIM))
    D[..., 0, 0, 0] = -p
    D[..., 0, 0, 1] = D[..., 0, 1, 3] = D[..., 0, 2, 2] = D[..., 0, 4, 0] = 1.0
    for i, a, k, sign in ((1, 0, 0, -1.0), (2, 0, 1, -1.0), (3, 4, 2, 1.0)):
        D[..., :, i, a] = sign * c[..., k, :] * (1.0, 1.0, 2.0)  # Taylor coefficients to derivatives
    om = _in_lam(D)
    om.grad[..., 0, 0, 0] = -1.0  # d(-p)/dp
    return om


def _signed_slots(*placements) -> np.ndarray:
    """The 5x5 table with `sign` at (i, j) for each (i, j, sign) placement, zero elsewhere."""
    table = np.zeros((DIM, DIM))
    for i, j, sign in placements:
        table[i, j] = sign
    return table


# C of _frame_rows is _C_ONES plus each lam-term times its row of _C_SLOTS
_C_ONES = _signed_slots((0, 0, 1), (2, 1, 1), (3, 3, 1), (3, 4, -1), (4, 3, -1))
_C_SLOTS = np.stack([
    _signed_slots((0, 1, -1), (1, 1, 1)),  # s u
    _signed_slots((0, 2, 1), (1, 2, -1)),  # s
    _signed_slots((2, 1, -1)),  # u B
    _signed_slots((2, 2, 1)),  # B
    _signed_slots((3, 1, 1)),  # coef4 u
    _signed_slots((3, 2, -1)),  # coef4
]).reshape(6, DIM * DIM)


def _frame_rows(c) -> MatrixJet:
    """The coefficients C of the theta rows against the omegas, from the _frame_coeffs c.

    With u = F', s = 1/F'' and comb = u w2 - w3: th1 = w1 - s comb,
    th2 = s comb, th3 = (1 - u B) w2 + B w3, th4 = coef4 comb + w4 - w5,
    th5 = -w4. The entries are jets in lam alone: C's partials along p are zero.
    """
    u, Fpp, F3, F4 = (_of_lam(c[..., k, :]) for k in range(3, 7))
    s = Fpp.reciprocal()
    s2 = s * s
    B = F3 * s2 * 0.25
    coef4 = (F3 * F3 * 7.0 - Fpp * F4 * 4.0) * s2 * s * 0.025
    terms = np.stack([t.derivatives() for t in (s * u, s, u * B, B, coef4 * u, coef4)], axis=-1)
    C = (terms @ _C_SLOTS).reshape(terms.shape[:-1] + (DIM, DIM))
    C[..., 0, :, :] += _C_ONES
    return _in_lam(C)


def build_coframe(q_of: Jet1, F_of: Jet1, point4) -> MatrixJet:
    """The five theta rows of the full coframe from F-in-q data.

    q_of and F_of are jets in the fifth coordinate lam; in the plain
    F-picture q_of is the identity jet. The dual picture of H(t) is
    build_coframe(*_legendre_data(H), point4), which reproduces the
    displayed dual coframe exactly; where H'' = 0 it raises the
    DegenerateError of dq/dlam = 0.
    """
    c = _frame_coeffs(q_of, F_of)
    return _product(_frame_rows(c), _omegas(c, point4))


def _legendre_data(H: Jet1):
    """The F-in-q data of a dual-picture H(t), as jets in t: q = H', F = t H' - H."""
    Hp = H.derivative()
    return Hp, jet_var(H.basepoint, H.order) * Hp - H


def _reduced(q_of: Jet1, F_of: Jet1, point4):
    """The reduced form 2 wt2 wt5 - 2 wt1 wt4 + (4/3) wt3^2 - (I/3) wt2 wt3
    + ((I' - I^2/6)/10) wt2^2, with wt = (w1, th2, w2, w4, w5).

    Returns (C, omegas, W, I, I'). Completing the square in wt3 makes g
    eta-diagonal in the rows (wt2, wt1, wt3 - (I/8) wt2, wt4, wt5 + e wt2),
    e = I'/20 - (3/160) I^2. As (I/8)/F'' = F'''/(4 F''^2) = B, these are
    the catalog rows (th2, w1, th3, w4, w5 + e th2), whose coefficients
    against the omegas are the rows of the MatrixJet C. W holds the values of wt1..wt5;
    I = 2F'''/F'' and its q-derivative I' are values at the point.
    """
    c = _frame_coeffs(q_of, F_of)
    th, om = _frame_rows(c), _omegas(c, point4)
    Fpp, F3, F4 = (_of_lam(c[..., k, :]) for k in (4, 5, 6))
    s = Fpp.reciprocal()
    I = F3 * s * 2.0
    Ip = (F4 - F3 * F3 * s) * s * 2.0
    e = Ip * 0.05 - I * I * (3.0 / 160.0)
    M = np.zeros(c.shape[:-2] + (3, DIM, DIM))  # picks th2, th3 and e th2 out of th
    M[..., 0, 0, 1] = M[..., 0, 2, 2] = 1.0
    M[..., :, 4, 1] = e.derivatives()
    C = _product(_in_lam(M), th)
    C.value[..., (1, 3, 4), (0, 3, 4)] += 1.0  # w1, w4 and w5
    wt = np.zeros(c.shape[:-2] + (DIM, DIM))  # the values of (w1, th2, w2, w4, w5)
    wt[..., 1, :] = th.value[..., 1, :]
    wt[..., (0, 2, 3, 4), (0, 1, 3, 4)] = 1.0
    return C, om, wt @ om.value, I.value, Ip.value


def reduced_metric(q_of: Jet1, F_of: Jet1, point4) -> MatrixJet:
    """g from the reduced form: 2 wt2 wt5 - 2 wt1 wt4 + (4/3) wt3^2 + I-terms."""
    C, om, _, _, _ = _reduced(q_of, F_of, point4)
    return metric_at(_product(C, om))


def _require_finite(x, error: type, what: str) -> None:
    """Raise error at the points where the MatrixJet x has a non-finite value or partial.

    No conditioning test is made: det theta = q'/F'' exactly, and
    _derivs_in_q already raises where q' or F'' vanishes, while a cond
    bound would depend on the units of the coordinates.
    """
    batch = x.value.shape[:-2]
    parts = np.concatenate([a.reshape(batch + (-1,)) for a in (x.value, x.grad, x.hess)], axis=-1)
    error.raise_where(~np.isfinite(parts).all(axis=-1), f"{what} is not finite at this point")


def _inverse(G: np.ndarray) -> np.ndarray:
    """np.linalg.inv of G, one matrix or a stack.

    Where it fails, SingularMetricError marks the exactly singular
    matrices, where LinAlgError would stop the whole stack.
    """
    try:
        return np.linalg.inv(G)
    except np.linalg.LinAlgError:
        singular = np.zeros(G.shape[:-2], dtype=bool)
        for i in np.ndindex(singular.shape):
            try:
                np.linalg.inv(G[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        SingularMetricError.raise_where(singular, "metric is singular at this point")
        raise


def metric_at(cf: MatrixJet) -> MatrixJet:
    """g_ab = eta_ij theta^i_a theta^j_b and its first two partials.

    Not the generic _product of theta^T and eta theta: each partial is
    written as a term plus its transpose, so dg is exactly symmetric.
    """
    _require_finite(cf, SingularCoframeError, "coframe")
    EW = ETA @ cf.value
    gT = cf.grad.swapaxes(-1, -2)  # [k, a, i]
    Y = gT @ EW[..., None, :, :]  # [k, a, b]
    Z = cf.hess.swapaxes(-1, -2) @ EW[..., None, None, :, :]  # [k, l, a, b]
    X = gT[..., :, None, :, :] @ (ETA @ cf.grad)[..., None, :, :, :]  # [k, l, a, b]
    return MatrixJet(
        cf.value.swapaxes(-1, -2) @ EW,
        Y + Y.swapaxes(-1, -2),
        Z + Z.swapaxes(-1, -2) + X + X.swapaxes(-4, -3),
    )


def _lower_christoffel(dG):
    """Gamma_dbc = (d_b g_dc + d_c g_bd - d_d g_bc) / 2 from dG[..., k, a, b] = d_k g_ab."""
    return 0.5 * (dG.swapaxes(-3, -2) + dG.swapaxes(-3, -1) - dG)


def padded_grad(g: MatrixJet) -> np.ndarray:
    """d_k g_ab along every coordinate k: g.grad in the last slots, zero in the others."""
    n = g.value.shape[-1]
    dG = np.zeros(g.value.shape[:-2] + (n, n, n))
    dG[..., n - g.grad.shape[-3]:, :, :] = g.grad
    return dG


def curvature(g: MatrixJet) -> CurvatureReport:
    """Full curvature data of a metric given as an order-2 jet.

    Every index contraction is a matmul over reshaped stacks, so one point
    and a stack of points take the same path. The Christoffel symbols are
    differentiated only along the coordinates that g has partials in.
    """
    n, A = g.value.shape[-1], g.grad.shape[-3]
    batch = g.value.shape[:-2]
    G = 0.5 * (g.value + g.value.swapaxes(-1, -2))
    _require_finite(g, SingularMetricError, "metric")
    ginv = _inverse(G)
    Glow = _lower_christoffel(padded_grad(g)).reshape(batch + (n, n * n))
    Gam = ginv @ Glow  # Gamma^a_(bc)
    # d_e Gamma^a_bc = g^ad (d_e Gamma_dbc - d_e g_df Gamma^f_bc), for the last A coordinates e
    d2G = np.zeros(batch + (A, n, n, n))  # [e, l, a, b]: d_e d_l g_ab
    d2G[..., n - A:, :, :] = g.hess
    dGam = ginv[..., None, :, :] @ (
        _lower_christoffel(d2G).reshape(batch + (A, n, n * n)) - g.grad @ Gam[..., None, :, :])
    # X[a, c, d, b] = d_c Gamma^a_db + Gamma^a_ce Gamma^e_db, and R^a_bcd = X_acdb - X_adcb
    X = (Gam.reshape(batch + (n * n, n)) @ Gam).reshape(batch + (n,) * 4)
    X[..., n - A:, :, :] += dGam.reshape(batch + (A,) + (n,) * 3).swapaxes(-4, -3)
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


def _per_point(x: np.ndarray):
    """A float at one point, else the array of one value per point."""
    return x if x.ndim else float(x)


def _max_abs(*tensors: np.ndarray, rank: int) -> np.ndarray:
    """The largest |entry| over the last `rank` axes of all the tensors, per point."""
    return np.max([np.max(np.abs(t), axis=tuple(range(-rank, 0))) for t in tensors], axis=0)


def riemann_symmetry_error(rep: CurvatureReport):
    """Max relative violation of the algebraic Riemann identities, per point.

    Relative to max(max |R|, 1) at the point.
    """
    R = rep.riemann
    e = _max_abs(
        R + np.einsum("...bacd->...abcd", R),
        R + np.einsum("...abdc->...abcd", R),
        R - np.einsum("...cdab->...abcd", R),
        R + np.einsum("...acdb->...abcd", R) + np.einsum("...adbc->...abcd", R),  # Bianchi
        rank=4)
    return _per_point(e / np.maximum(_max_abs(R, rank=4), 1.0))


def weyl_trace_error(rep: CurvatureReport, g: MatrixJet):
    """Max contraction of the Weyl tensor with the inverse metric, relative, per point.

    Relative to |G^-1| (|d2g| + |G^-1| |dg|^2), with |.| the max-abs at
    the point: the size of the terms that R^a_bcd is built from, so the
    ratio does not change under g -> c g (0 where g has no partials). The
    Weyl tensor itself is no scale: on a flat metric it is round-off.
    """
    ginv = np.linalg.inv(0.5 * (g.value + g.value.swapaxes(-1, -2)))
    ginv_size = _max_abs(ginv, rank=2)
    scale = ginv_size * (_max_abs(g.hess, rank=4) + ginv_size * _max_abs(g.grad, rank=3) ** 2)
    err = _max_abs(
        np.einsum("...ac,...abcd->...bd", ginv, rep.weyl),
        np.einsum("...bd,...abcd->...ac", ginv, rep.weyl),
        np.einsum("...ad,...abcd->...bc", ginv, rep.weyl),
        rank=2)
    return _per_point(np.divide(err, scale, out=np.zeros_like(err), where=scale > 0))


def metric_signature(g: MatrixJet):
    """The sorted (negative, positive) eigenvalue counts: a tuple at one point, else (..., 2)."""
    ev = np.linalg.eigvalsh(0.5 * (g.value + g.value.swapaxes(-1, -2)))
    neg, pos = np.sum(ev < 0, axis=-1), np.sum(ev > 0, axis=-1)
    if neg.ndim == 0:
        return tuple(sorted((int(neg), int(pos))))
    return np.stack([np.minimum(neg, pos), np.maximum(neg, pos)], axis=-1)


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
    if spec.picture == "H_of_t":
        return _legendre_data(jet)
    return jet_var(jet.basepoint, jet.order), jet


def coframe_coords(spec: SolutionSpec) -> Tuple[str, ...]:
    """The names of the coordinates (x, y, z, p, lam) of a catalog entry's coframe."""
    lam_name = {"H_of_t": "t"}.get(spec.picture, "q")
    if spec.family == "elementary_r":
        lam_name = "r"
    return ("x", "y", "z", "p", lam_name)


def coframe_for_spec(spec: SolutionSpec, point5, order: int = 8, jet: Jet1 | None = None) -> MatrixJet:
    """Full coframe for a catalog entry at (x, y, z, p, param), or at each row of a stack.

    `jet` is passed on to frame_jets_for_spec.
    """
    point5 = np.asarray(point5, dtype=float)
    q_of, F_of = frame_jets_for_spec(spec, point5[..., 4], order, jet)
    return build_coframe(q_of, F_of, point5[..., :4])


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
    """The rows `keep` of a stack: an array, or a dataclass of arrays such as a Jet1 or MatrixJet."""
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


def per_point(stages, x, live, found) -> list:
    """Each point's outcome after the stages: its value, or the C235Error that stopped it.

    The stages run in turn through on_regular_rows, the first on the stack
    x, whose rows belong to the points `live`, and each later one on what
    the one before returned. found holds every point's outcome so far,
    None at the points `live`; it is copied, not changed.
    """
    found = list(found)
    for stage in stages:
        x, live = on_regular_rows(stage, x, live, found)
    for i, value in zip(live, x.tolist() if live.size else ()):
        found[i] = value
    return found


def weyl_ratio(g: MatrixJet) -> np.ndarray:
    """maxAbsWeyl / metricScale of g at each point: the flatness certificate.

    SingularMetricError marks the points where it is not finite.
    """
    rep = curvature(g)
    ratio = rep.maxAbsWeyl / rep.metricScale
    SingularMetricError.raise_where(~np.isfinite(ratio), "Weyl ratio is not finite at this point")
    return ratio


def flatness_suite(spec: SolutionSpec, points, jet: Jet1 | None = None) -> list:
    """Each point's Weyl ratio for a catalog entry, or the C235Error that stopped it.

    One coframe, metric and curvature report covers all the points. `jet`,
    when given, is F_jet of the entry at the points' parameters, row for
    row, so that it is not built again.
    """
    pts = np.reshape(np.asarray(points, dtype=float), (-1, 5))
    at = np.arange(len(pts))

    def coframes(at):
        return coframe_for_spec(spec, pts[at], jet=None if jet is None else _rows(jet, at))

    return per_point((coframes, metric_at, weyl_ratio), at, at, [None] * len(pts))


def _frame_ricci(C: MatrixJet, om: MatrixJet, W):
    """The Ricci tensor of the metric of the rows C against the omegas, in the frame of W.

    Returns its wt4 x wt4 component, its largest other component and the
    curvature report.
    """
    rep = curvature(metric_at(_product(C, om)))
    Winv = np.linalg.inv(W)
    Rf = Winv.T @ rep.ricci @ Winv
    off = Rf.copy()
    off[3, 3] = 0.0
    return Rf[3, 3], np.max(np.abs(off)), rep


def ricci_identity_check(q_of: Jet1, F_of: Jet1, point4) -> float:
    """Relative error of Ricci against (9/120)(6I' - I^2) on wt4 x wt4."""
    C, om, W, I, Ip = _reduced(q_of, F_of, point4)
    R44, off, rep = _frame_ricci(C, om, W)
    expected = (9.0 / 120.0) * (6.0 * Ip - I * I)
    scale = max(abs(expected), rep.metricScale * 1e-8, 1e-12)
    err_off = off / max(abs(expected), 1.0)
    err_44 = abs(R44 - expected) / scale
    return float(max(err_44, err_off))


def conformal_rescale_check(q_of: Jet1, F_of: Jet1, nu: Jet1, point4):
    """Ricci of nu^{-2} g against (3/(40 nu))(40 nu'' + (6I'-I^2) nu).

    nu is a jet in the fifth coordinate, as q_of and F_of are (in the
    F-picture that is q itself); nu'' in the prediction means the second
    q-derivative. Returns a dict with the computed frame Ricci component,
    the displayed prediction, and their relative mismatch.
    """
    C, om, W, I, Ip = _reduced(q_of, F_of, point4)
    if nu.value() <= 0:
        raise DegenerateError("nu must be positive")
    # nu^{-2} g is eta-diagonal in the reduced rows divided by nu; wt4 is
    # unscaled in W, so its component compares with the prediction directly
    inv_nu = _in_lam(_of_lam(nu).reciprocal().derivatives()[..., None, None] * np.eye(DIM))
    computed, off, rep = _frame_ricci(_product(inv_nu, C), om, W)
    d_dq = _d_dq(q_of.derivative())
    nupp = d_dq(d_dq(nu)).value()
    nu0 = nu.value()
    ode = 40.0 * nupp + (6.0 * Ip - I * I) * nu0
    predicted = 3.0 / (40.0 * nu0) * ode
    denom = max(abs(predicted), rep.metricScale * 1e-6, 1e-10)
    return {
        "computed": float(computed),
        "predicted": float(predicted),
        "odeValue": float(ode),
        "mismatch": float(abs(computed - predicted) / denom),
        "offComponentMax": float(off),
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
        cf = build_coframe(*_legendre_data(H), point4)
        rep = curvature(metric_at(cf))
        Winv = np.linalg.inv(cf.value)  # the Weyl tensor's components against the frame
        Cf = np.einsum("ai,bj,ck,dl,abcd->ijkl", Winv, Winv, Winv, Winv, rep.weyl)
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
