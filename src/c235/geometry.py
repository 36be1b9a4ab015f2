"""Metric assembly from coframes and curvature certification.

The five coordinates are (x, y, z, p, lam) where lam is the jet variable
of the supplied data: q itself in the F-picture, t in the dual picture, r
for the elementary pair. A catalog coframe reads F, F', ..., F^(6) (or H's)
of one order-6 jet; the dual picture takes its frame terms from the exact
Legendre forms, and only the elementary pair goes through the chain rule
in q. Coframe rows, their coefficients and metric components are exact
order-2 jets in one layout, MatrixJet, with one product rule, so the
curvature arrays need no finite differences; Riemann and Weyl are computed
on their pair-form slots alone. The same functions serve one point or,
along a leading axis of every array, many.

The frame builders _F_coeffs and _legendre_frame, _coframe, metric_at and
curvature run on float64 arrays and on object arrays of Fractions alike:
arrays are allocated in the input's dtype, every constant is written once
in exact numbers and multiplies an object array as such (a float copy
serves the float path, with the same bits as ever), an object metric is
inverted by exact elimination, and the finiteness guards apply to floating
dtypes only. On Fractions the pipeline is exact, which is how the tests
prove that the Weyl tensor is the sixth-order equation's left side.

Conventions: Gamma^a_bc = (1/2) g^{ad}(d_b g_dc + d_c g_bd - d_d g_bc);
R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb + Gamma Gamma terms;
Ricci_bd = R^a_bad.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import C235Error, DegenerateError, SingularCoframeError, SingularMetricError
from .jets import Jet1, MJet2, _factorials, _float_copy, _to_derivatives
from .chazy import residual_6th, residual_ds6
from .dist import SolutionSpec, F_jet, admissible
from .specialfn import closed_form_solution

DIM = 5

# eta for g = 2 th1 th5 - 2 th2 th4 + (4/3) th3 th3, exactly; ETA is its float copy
ETA_EXACT = np.zeros((DIM, DIM), dtype=object)
ETA_EXACT[0, 4] = ETA_EXACT[4, 0] = 1
ETA_EXACT[1, 3] = ETA_EXACT[3, 1] = -1
ETA_EXACT[2, 2] = Fraction(4, 3)
ETA = _float_copy(ETA_EXACT)
# the rational constants of the frame terms and of the Christoffel symbols, each as
# (exact, double): float(Fraction(1, 40)) is the double 0.025. A Python int on a
# float array costs more than a float under numpy, so the integers have doubles too
_QUARTER, _FORTIETH, _HALF = ((f, float(f)) for f in (Fraction(1, 4), Fraction(1, 40), Fraction(1, 2)))
_FOUR, _FIVE, _SEVEN = ((k, float(k)) for k in (4, 5, 7))


def _constant(x: np.ndarray, constant: tuple):
    """One of the rational constants in the number type of the array x: exact when x holds objects."""
    return constant[0] if x.dtype == object else constant[1]


# MatrixJet and CurvatureReport hold arrays, so they compare and hash by identity
@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class CurvatureReport:
    christoffel: np.ndarray
    riemann: np.ndarray  # fully lowered R_abcd on the pair-form slots
    ricci: np.ndarray
    scalar: float | np.ndarray
    weyl: np.ndarray  # fully lowered C_abcd on the pair-form slots
    maxAbsWeyl: float | np.ndarray
    maxAbsRicci: float | np.ndarray
    metricScale: float | np.ndarray


# the independent components of a report's tensors, each slot list as np.triu_indices
# gives it, a list of first and a list of second indices: Christoffel Gamma^a_(bc) and
# Ricci on the PAIRS b <= c; Riemann and Weyl as their 10 x 10 forms on the BIVECTORS
# a < b, on the upper triangle PAIR_FORM of (bivector i, bivector j), i <= j
PAIRS = tuple(k.tolist() for k in np.triu_indices(DIM))
BIVECTORS = tuple(k.tolist() for k in np.triu_indices(DIM, 1))
PAIR_FORM = tuple(k.tolist() for k in np.triu_indices(len(BIVECTORS[0])))


def _in_lam(D: np.ndarray) -> MatrixJet:
    """The (..., 3, m, n) stack of D, dD/dlam and d2D/dlam2 as a MatrixJet over (p, lam)."""
    batch, mn = D.shape[:-3], D.shape[-2:]
    grad = np.zeros(batch + (2,) + mn, D.dtype)
    hess = np.zeros(batch + (2, 2) + mn, D.dtype)
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
    """The map f -> df/dq = f'(lam)/q'(lam) on jets f in lam, for dq = dq/dlam."""
    DegenerateError.raise_where(dq.value() == 0, "dq/dlam = 0")
    return lambda f: f.derivative() / dq


def _derivs_in_q(dq: Jet1, F_of: Jet1):
    """F', F'', F''', F'''' (derivatives in q) as jets in lam, from dq = dq/dlam."""
    step = _d_dq(dq)
    Fp = step(F_of)
    Fpp = step(Fp)
    F3 = step(Fpp)
    return Fp, Fpp, F3, step(F3)


def _frame_coeffs(q_of: Jet1, F_of: Jet1) -> np.ndarray:
    """q, F, q' and F' to F'''' (in q), each as its value, d/dlam and d2/dlam2: (..., 7, 3).

    The general chain, for any frame variable lam: the elementary pair's r,
    and the reduced frame of F-in-q data.
    """
    dq = q_of.derivative()
    jets = (q_of, F_of, dq, *_derivs_in_q(dq, F_of))
    return _to_derivatives(np.stack([j.coeffs[..., :3] for j in jets], axis=-2))


# the rows F' to F'''' of _frame_coeffs in the F picture: F^(k), F^(k+1), F^(k+2) for k = 1..4
_IN_Q_ROWS = np.arange(1, 5)[:, None] + np.arange(3)


def _F_coeffs(q0, d: np.ndarray) -> np.ndarray:
    """_frame_coeffs of F(q) itself, lam = q, read from d = F, F', ..., F^(6) at q0."""
    c = np.zeros(d.shape[:-1] + (7, 3), d.dtype)
    c[..., 0, 0] = q0
    c[..., 0, 1] = c[..., 2, 0] = 1
    c[..., 1, :] = d[..., :3]
    c[..., 3:, :] = d[..., _IN_Q_ROWS]
    return c


def _in_q_frame(c: np.ndarray):
    """(w, (u, s, B, coef4)) from the _frame_coeffs c.

    w holds the rows q, F and q' of _omegas. The terms of _frame_rows are
    jets in lam: u = F', s = 1/F'', B = F''' s^2/4 and
    coef4 = (7 F'''^2 - 4 F'' F'''') s^3/40.
    """
    DegenerateError.raise_where(c[..., 4, 0] == 0, "F'' = 0 at the basepoint")
    u, Fpp, F3, F4 = (MJet2.from_packed(c[..., k, :]) for k in range(3, 7))
    s = Fpp.reciprocal()
    s2 = s * s
    four, seven, quarter, fortieth = (_constant(c, k) for k in (_FOUR, _SEVEN, _QUARTER, _FORTIETH))
    return c[..., :3, :], (u, s, F3 * s2 * quarter, (F3 * F3 * seven - Fpp * F4 * four) * s2 * s * fortieth)


def _legendre_frame(t, d: np.ndarray):
    """_in_q_frame's (w, terms) for H(t), lam = t, from d = H, H', ..., H^(6) at t.

    By the Legendre duality q = H', F = t H' - H and q' = H'', while in q
    F' = t and F'' = 1/H'' exactly. So u = t, s = H'', B = -H'''/(4 H'')
    and coef4 = (4 H'' H'''' - 5 H'''^2)/(40 H''^3): one reciprocal, and
    no division of jets.
    """
    DegenerateError.raise_where(d[..., 2] == 0, "H'' = 0 at the basepoint")
    w = np.empty(d.shape[:-1] + (3, 3), d.dtype)
    w[..., 0, :] = d[..., 1:4]
    w[..., 1, 0] = t * d[..., 1] - d[..., 0]
    w[..., 1, 1] = t * d[..., 2]
    w[..., 1, 2] = d[..., 2] + t * d[..., 3]
    w[..., 2, :] = d[..., 2:5]
    u = np.zeros(d.shape[:-1] + (3,), d.dtype)
    u[..., 0], u[..., 1] = t, 1
    h2, h3, h4 = (MJet2.from_packed(d[..., k:k + 3]) for k in (2, 3, 4))
    r = h2.reciprocal()
    four, five, quarter, fortieth = (_constant(d, k) for k in (_FOUR, _FIVE, _QUARTER, _FORTIETH))
    return w, (MJet2.from_packed(u), h2, h3 * r * -quarter, (h2 * h4 * four - h3 * h3 * five) * r * r * r * fortieth)


def _omegas(w, point4) -> MatrixJet:
    """The base 1-forms dy - p dx, dp - q dx, dz - F dx, q' dlam, dx; w holds q, F and q'.

    Their partials are along (p, lam) alone, the last two coordinates. They
    are in the number type of w, which point4 shares.
    """
    p = np.asarray(point4)[..., 3]
    D = np.zeros(p.shape + (3, DIM, DIM), w.dtype)
    D[..., 0, 0, 0] = -p
    D[..., 0, 0, 1] = D[..., 0, 1, 3] = D[..., 0, 2, 2] = D[..., 0, 4, 0] = 1
    D[..., :, 1, 0] = -w[..., 0, :]
    D[..., :, 2, 0] = -w[..., 1, :]
    D[..., :, 3, 4] = w[..., 2, :]
    om = _in_lam(D)
    om.grad[..., 0, 0, 0] = -1  # d(-p)/dp
    return om


def _signed_slots(*placements) -> np.ndarray:
    """The 5x5 table of ints with `sign` at (i, j) for each (i, j, sign) placement, 0 elsewhere."""
    table = np.zeros((DIM, DIM), dtype=object)
    for i, j, sign in placements:
        table[i, j] = sign
    return table


# C of _frame_rows is _C_ONES plus each lam-term times its row of _C_SLOTS: exact
# tables of ints, and their float copies
_C_ONES_EXACT = _signed_slots((0, 0, 1), (2, 1, 1), (3, 3, 1), (3, 4, -1), (4, 3, -1))
_C_SLOTS_EXACT = np.stack([
    _signed_slots((0, 1, -1), (1, 1, 1)),  # s u
    _signed_slots((0, 2, 1), (1, 2, -1)),  # s
    _signed_slots((2, 1, -1)),  # u B
    _signed_slots((2, 2, 1)),  # B
    _signed_slots((3, 1, 1)),  # coef4 u
    _signed_slots((3, 2, -1)),  # coef4
]).reshape(6, DIM * DIM)
_C_ONES, _C_SLOTS = _float_copy(_C_ONES_EXACT), _float_copy(_C_SLOTS_EXACT)


def _frame_rows(u: MJet2, s: MJet2, B: MJet2, coef4: MJet2) -> MatrixJet:
    """The coefficients C of the theta rows against the omegas, from the terms of _in_q_frame.

    With comb = u w2 - w3: th1 = w1 - s comb, th2 = s comb,
    th3 = (1 - u B) w2 + B w3, th4 = coef4 comb + w4 - w5, th5 = -w4.
    The entries are jets in lam alone: C's partials along p are zero.
    """
    terms = np.stack([t.derivatives() for t in (s * u, s, u * B, B, coef4 * u, coef4)], axis=-1)
    exact = terms.dtype == object
    C = (terms @ (_C_SLOTS_EXACT if exact else _C_SLOTS)).reshape(terms.shape[:-1] + (DIM, DIM))
    C[..., 0, :, :] += _C_ONES_EXACT if exact else _C_ONES
    return _in_lam(C)


def _coframe(w, terms, point4) -> MatrixJet:
    """The five theta rows C omega, from the (w, terms) of _in_q_frame or _legendre_frame."""
    return _product(_frame_rows(*terms), _omegas(w, point4))


def build_coframe(q_of: Jet1, F_of: Jet1, point4) -> MatrixJet:
    """The five theta rows of the full coframe from F-in-q data, by the general chain.

    q_of and F_of are jets in the fifth coordinate lam; in the plain
    F-picture q_of is the identity jet. Where dq/dlam = 0 it raises the
    DegenerateError of _d_dq. Catalog entries other than the elementary
    pair in r build their coframe from F_jet alone (coframe_for_spec).
    """
    return _coframe(*_in_q_frame(_frame_coeffs(q_of, F_of)), point4)


def _reduced_frame(q_of: Jet1, F_of: Jet1, point4):
    """(theta, W, I, I'): the catalog coframe, and the rows wt = (w1, th2, w2, w4, w5) in which
    its g is 2 wt2 wt5 - 2 wt1 wt4 + (4/3) wt3^2 - (I/3) wt2 wt3 + ((I' - I^2/6)/10) wt2^2.

    As th3 = wt3 - (I/8) wt2, completing the square in wt3 turns that form into
    eta in the rows (th2, w1, th3, w4, w5 + e th2), e = I'/20 - (3/160) I^2.
    W holds the values of wt1..wt5; I = 2F'''/F'' and I' = dI/dq are values.
    """
    c = _frame_coeffs(q_of, F_of)
    w, terms = _in_q_frame(c)
    om = _omegas(w, point4)
    th = _product(_frame_rows(*terms), om)
    W = om.value[..., (0, 1, 1, 3, 4), :]
    W[..., 1, :] = th.value[..., 1, :]
    Fpp, F3, F4 = (c[..., k, 0] for k in (4, 5, 6))
    return th, W, 2.0 * F3 / Fpp, 2.0 * (F4 - F3 * F3 / Fpp) / Fpp


def _require_finite(x, error: type, what: str) -> None:
    """Raise error at the points where the MatrixJet x has a non-finite value or partial.

    No conditioning test is made: det theta = q'/F'' exactly, and the frame
    builders already raise where q' or F'' vanishes (H'' in the dual
    picture), while a cond bound would depend on the units of the coordinates.
    Exact numbers (an object array) are always finite.
    """
    if x.value.dtype.kind != "f":
        return
    batch = x.value.shape[:-2]
    parts = np.concatenate([a.reshape(batch + (-1,)) for a in (x.value, x.grad, x.hess)], axis=-1)
    error.raise_where(~np.isfinite(parts).all(axis=-1), f"{what} is not finite at this point")


def _exact_inverse(G: np.ndarray) -> np.ndarray:
    """G^-1 of an object array of exact numbers, one matrix or a stack, by Gauss-Jordan
    elimination with the first non-zero pivot: exact where the number type's / is, as a
    Fraction's is. SingularMetricError marks the singular matrices."""
    n = G.shape[-1]
    out = np.empty_like(G)
    singular = np.zeros(G.shape[:-2], dtype=bool)
    for i in np.ndindex(singular.shape):
        rows = [row + [int(j == k) for k in range(n)] for j, row in enumerate(G[i].tolist())]
        for col in range(n):
            pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
            if pivot is None:
                singular[i] = True
                break
            rows[col], rows[pivot] = rows[pivot], rows[col]
            head = [x / rows[col][col] for x in rows[col]]
            rows = [head if r == col else [x - row[col] * y for x, y in zip(row, head)]
                    for r, row in enumerate(rows)]
        else:
            out[i] = np.array([row[n:] for row in rows], dtype=object)
    SingularMetricError.raise_where(singular, "metric is singular at this point")
    return out


def _inverse(G: np.ndarray) -> np.ndarray:
    """G^-1, one matrix or a stack: np.linalg.inv on floats, _exact_inverse on objects.

    Where np.linalg.inv fails, SingularMetricError marks the exactly singular
    matrices, where LinAlgError would stop the whole stack.
    """
    if G.dtype == object:
        return _exact_inverse(G)
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


# metric_at and curvature compute under np.errstate(all="ignore"): at a point far
# out (p = 1e308) an overflow or 0 * inf ends in a value that is not finite, and
# curvature refuses it at that point, where a RuntimeWarning would stop the stack
@np.errstate(all="ignore")
def metric_at(cf: MatrixJet) -> MatrixJet:
    """g_ab = eta_ij theta^i_a theta^j_b and its first two partials.

    Not the generic _product of theta^T and eta theta: each partial is
    written as a term plus its transpose, so dg is exactly symmetric.
    """
    _require_finite(cf, SingularCoframeError, "coframe")
    eta = ETA_EXACT if cf.value.dtype == object else ETA
    EW = eta @ cf.value
    gT = cf.grad.swapaxes(-1, -2)  # [k, a, i]
    Y = gT @ EW[..., None, :, :]  # [k, a, b]
    Z = cf.hess.swapaxes(-1, -2) @ EW[..., None, None, :, :]  # [k, l, a, b]
    X = gT[..., :, None, :, :] @ (eta @ cf.grad)[..., None, :, :, :]  # [k, l, a, b]
    return MatrixJet(
        cf.value.swapaxes(-1, -2) @ EW,
        Y + Y.swapaxes(-1, -2),
        Z + Z.swapaxes(-1, -2) + X + X.swapaxes(-4, -3),
    )


def _lower_christoffel(dG):
    """Gamma_dbc = (d_b g_dc + d_c g_bd - d_d g_bc) / 2 from dG[..., k, a, b] = d_k g_ab."""
    return _constant(dG, _HALF) * (dG.swapaxes(-3, -2) + dG.swapaxes(-3, -1) - dG)


def padded_grad(g: MatrixJet) -> np.ndarray:
    """d_k g_ab along every coordinate k: g.grad in the last slots, zero in the others."""
    n = g.value.shape[-1]
    dG = np.zeros(g.value.shape[:-2] + (n, n, n), g.value.dtype)
    dG[..., n - g.grad.shape[-3]:, :, :] = g.grad
    return dG


@functools.cache
def _pair_form_slots(n: int):
    """The flat indices of Riemann's (a, b, c, d) slots on the upper triangle of its pair
    form in dimension n: into the (..., n, n^3) rows [a, (c, d, b)] of curvature's
    G @ Racdb, and the pairs (ac, bd, ad, bc) and (bd, ac, bc, ad) into a flattened
    (n, n) matrix for the Kulkarni-Nomizu product."""
    a, b = np.triu_indices(n, 1)
    i, j = np.triu_indices(a.size)
    a, b, c, d = a[i], b[i], a[j], b[j]
    ac, bd, ad, bc = a * n + c, b * n + d, a * n + d, b * n + c
    return a, (c * n + d) * n + b, np.stack([ac, bd, ad, bc]), np.stack([bd, ac, bc, ad])


@np.errstate(all="ignore")
def curvature(g: MatrixJet) -> CurvatureReport:
    """Curvature data of a metric given as an order-2 jet.

    Christoffel symbols and Ricci are whole; Riemann and Weyl are their
    components on the upper triangle of the pair form, the slots that
    PAIR_FORM lists in five dimensions: (..., 55) there. Every index
    contraction is a matmul over reshaped stacks, so one point and a stack
    of points take the same path. The Christoffel symbols are
    differentiated only along the coordinates that g has partials in.
    SingularMetricError, with `rows` on a stack, marks the points where g
    is not finite, is singular, or has a curvature that is not finite:
    every report it returns is finite. On an object array of Fractions
    every tensor of the report is exact.
    """
    n, A = g.value.shape[-1], g.grad.shape[-3]
    batch = g.value.shape[:-2]
    half = _constant(g.value, _HALF)
    G = half * (g.value + g.value.swapaxes(-1, -2))
    _require_finite(g, SingularMetricError, "metric")
    ginv = _inverse(G)
    Glow = _lower_christoffel(padded_grad(g)).reshape(batch + (n, n * n))
    Gam = ginv @ Glow  # Gamma^a_(bc)
    # d_e Gamma^a_bc = g^ad (d_e Gamma_dbc - d_e g_df Gamma^f_bc), for the last A coordinates e
    d2G = np.zeros(batch + (A, n, n, n), g.hess.dtype)  # [e, l, a, b]: d_e d_l g_ab
    d2G[..., n - A:, :, :] = g.hess
    dGam = ginv[..., None, :, :] @ (
        _lower_christoffel(d2G).reshape(batch + (A, n, n * n)) - g.grad @ Gam[..., None, :, :])
    # X[a, c, d, b] = d_c Gamma^a_db + Gamma^a_ce Gamma^e_db, and R^a_bcd = X_acdb - X_adcb
    X = (Gam.reshape(batch + (n * n, n)) @ Gam).reshape(batch + (n,) * 4)
    X[..., n - A:, :, :] += dGam.reshape(batch + (A,) + (n,) * 3).swapaxes(-4, -3)
    Racdb = X - X.swapaxes(-3, -2)
    ricci = np.trace(Racdb, axis1=-4, axis2=-3)
    ricci = half * (ricci + ricci.swapaxes(-1, -2))
    scalar = np.sum(ginv * ricci, axis=(-2, -1))
    # R_abcd = G_ae R^e_bcd on the pair-form slots
    rows, cols, first, second = _pair_form_slots(n)
    riemann = (G @ Racdb.reshape(batch + (n, n**3)))[..., rows, cols]
    # Weyl = R - G (Kulkarni-Nomizu) A, with A the Schouten tensor: slot by slot,
    # (G_ac A_bd + G_bd A_ac) - (G_ad A_bc + G_bc A_ad)
    A = ricci / (n - 2) - np.asarray(scalar)[..., None, None] / (2 * (n - 1) * (n - 2)) * G
    T = G.reshape(batch + (n * n,))[..., first] * A.reshape(batch + (n * n,))[..., second]
    weyl = riemann - ((T[..., 0, :] + T[..., 1, :]) - (T[..., 2, :] + T[..., 3, :]))
    summary = {
        "maxAbsWeyl": np.max(np.abs(weyl), axis=-1),
        "maxAbsRicci": np.max(np.abs(ricci), axis=(-2, -1)),
        "metricScale": np.max(np.abs(G), axis=(-2, -1)),
        "scalar": scalar,
    }
    # a NaN or an inf in any tensor of the report reaches one of these four numbers
    if G.dtype.kind == "f":
        SingularMetricError.raise_where(~np.isfinite(list(summary.values())).all(axis=0),
                                        "the metric's curvature is not finite at this point")
    return CurvatureReport(christoffel=Gam.reshape(batch + (n,) * 3), riemann=riemann,
                           ricci=ricci, weyl=weyl, **summary)


def metric_signature(g: MatrixJet):
    """The sorted (negative, positive) eigenvalue counts: a tuple at one point, else (..., 2).

    Read from D G D, D = diag(max_j |G_ij|)^(-1/2) (1 on a zero row): it has the
    inertia of G (Sylvester) and entries of at most 1, where eigvalsh of a badly
    scaled G can round a small eigenvalue to 0.
    """
    G = 0.5 * (g.value + g.value.swapaxes(-1, -2))
    row_max = np.max(np.abs(G), axis=-1)
    d = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
    ev = np.linalg.eigvalsh(d[..., :, None] * G * d[..., None, :])
    neg, pos = np.sum(ev < 0, axis=-1), np.sum(ev > 0, axis=-1)
    if neg.ndim == 0:
        return tuple(sorted((int(neg), int(pos))))
    return np.stack([np.minimum(neg, pos), np.maximum(neg, pos)], axis=-1)


# --- catalog plumbing ---------------------------------------------------

# the order of the F_jet a coframe is built from: the sixth-order equation and
# the frame's F' to F'''' (to second order in lam) read F, F', ..., F^(6)
FRAME_ORDER = 6


def elementary_frame_jets(spec: SolutionSpec, r):
    """(q_of, F_of), jets in r, of the elementary pair at r (one value or an array).

    Its frame keeps lam = r, so that the displayed Ricci statement can be
    checked in the r coordinate: the one catalog frame built by the general
    chain. The basepoints pass dist.admissible, F_jet's domain test, first.
    """
    z1, z2 = closed_form_solution(spec.params["constants"], admissible(spec, r))
    q_of = z2 / z1
    Fpp_of_r = z1 ** 3
    Fp_of_r = (Fpp_of_r * q_of.derivative()).antiderivative(0.0)
    F_of_r = (Fp_of_r * q_of.derivative()).antiderivative(0.0)
    return q_of, F_of_r


def frame_for_spec(spec: SolutionSpec, lam, jet: Jet1 | None = None):
    """The (w, terms) of _in_q_frame for a catalog entry at lam, one value or an array.

    F-picture entries use lam = q and H-picture entries lam = t, each
    reading F, F', ..., F^(6) (H, ..., H^(6)) of one jet as one array:
    `jet`, of order FRAME_ORDER or more, when the caller already holds
    F_jet(spec, lam), else F_jet(spec, lam, FRAME_ORDER). elementary_r
    keeps lam = r and does not use it.
    """
    if spec.family == "elementary_r":
        return _in_q_frame(_frame_coeffs(*elementary_frame_jets(spec, lam)))
    return jet_frame(spec.picture, F_jet(spec, lam, FRAME_ORDER) if jet is None else jet)


def jet_frame(picture: str, jet: Jet1):
    """The (w, terms) of _in_q_frame from a jet of F(q), lam = q, or in the
    H picture of H(t), lam = t, of order FRAME_ORDER or more."""
    d = jet.coeffs[..., :FRAME_ORDER + 1] * _factorials(FRAME_ORDER + 1)
    if picture == "H_of_t":
        return _legendre_frame(jet.basepoint, d)
    return _in_q_frame(_F_coeffs(jet.basepoint, d))


def coframe_coords(spec: SolutionSpec) -> Tuple[str, ...]:
    """The names of the coordinates (x, y, z, p, lam) of a catalog entry's coframe."""
    lam_name = {"H_of_t": "t"}.get(spec.picture, "q")
    if spec.family == "elementary_r":
        lam_name = "r"
    return ("x", "y", "z", "p", lam_name)


def coframe_for_spec(spec: SolutionSpec, point5, jet: Jet1 | None = None) -> MatrixJet:
    """Full coframe for a catalog entry at (x, y, z, p, param), or at each row of a stack.

    `jet` is passed on to frame_for_spec.
    """
    point5 = np.asarray(point5, dtype=float)
    return _coframe(*frame_for_spec(spec, point5[..., 4], jet), point5[..., :4])


def sample_points(spec: SolutionSpec, n: int, seed: int) -> np.ndarray:
    """n points (x,y,z,p in [-1,1], param in the admissible domain), as an (n, 5) array."""
    u = np.random.default_rng(seed).random((n, 5))
    lo, hi = spec.domain
    # the same doubles, in the same order, as rng.uniform(-1, 1, 4) then
    # rng.uniform(lo, hi) point by point: uniform is low + (high - low) * u
    u[:, :4] = -1.0 + 2.0 * u[:, :4]
    u[:, 4] = lo + (hi - lo) * u[:, 4]
    return u


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

    curvature refuses, as a SingularMetricError, the points where either is not finite.
    """
    rep = curvature(g)
    return rep.maxAbsWeyl / rep.metricScale


def _on_frame(picture: str):
    """A per_point stage that passes a jet stack on where its jet_frame is built and finite.

    A jet that is itself not finite is passed on, for the residual to refuse.
    The terms compute under np.errstate(all="ignore"), as in metric_at, so
    that an overflow is refused at its point.
    """
    @np.errstate(all="ignore")
    def stage(jet: Jet1) -> Jet1:
        _, terms = jet_frame(picture, jet)
        packed = np.concatenate([t.packed for t in terms], axis=-1)
        overflow = np.isfinite(jet.coeffs).all(axis=-1) & ~np.isfinite(packed).all(axis=-1)
        SingularCoframeError.raise_where(overflow, "frame is not finite at this point")
        return jet
    return stage


def flatness_suite(spec: SolutionSpec, points) -> dict:
    """Each point's flatness certificate for a catalog entry: its value, or the C235Error
    that stopped it, as {"ode_residual_F" or "ode_residual_H": [...]}.

    One F_jet(spec, lam, FRAME_ORDER) stack feeds the relative residual of
    the entry's own sixth-order equation. By the Legendre duality the dual
    residual of an F-picture jet is the same polynomial. No Weyl ratio is
    computed: the metric's one frame Weyl component is exactly that
    equation's left side over -100 F''^4 (+100 H''^8 in the dual picture),
    an identity the tests prove in exact arithmetic, so the residual is the
    scale-free form of the conformal-flatness certificate too. The identity
    holds where that frame is defined, so a point whose jet_frame raises
    (F'' or H'' is 0) or is not finite gets that error, not a residual.
    """
    pts = np.reshape(np.asarray(points, dtype=float), (-1, 5))
    name, residual = (("ode_residual_F", residual_6th) if spec.picture == "F_of_q"
                      else ("ode_residual_H", residual_ds6))
    stages = (lambda lam: F_jet(spec, lam, FRAME_ORDER), _on_frame(spec.picture), residual)
    return {name: per_point(stages, pts[:, 4], np.arange(len(pts)), [None] * len(pts))}


def _frame_ricci(cf: MatrixJet, W):
    """The Ricci tensor of the metric of the coframe cf, in the frame of W.

    Returns its wt4 x wt4 component, its largest other component and the
    curvature report.
    """
    rep = curvature(metric_at(cf))
    Winv = np.linalg.inv(W)
    Rf = Winv.T @ rep.ricci @ Winv
    off = Rf.copy()
    off[3, 3] = 0.0
    return Rf[3, 3], np.max(np.abs(off)), rep


def conformal_rescale_check(q_of: Jet1, F_of: Jet1, nu: Jet1, point4):
    """Ricci of nu^{-2} g against (3/(40 nu))(40 nu'' + (6I'-I^2) nu).

    nu is a jet in the fifth coordinate, as q_of and F_of are (in the
    F-picture that is q itself); nu'' in the prediction means the second
    q-derivative. Returns a dict with the computed frame Ricci component,
    the displayed prediction, and their relative mismatch.
    """
    th, W, I, Ip = _reduced_frame(q_of, F_of, point4)
    if nu.value() <= 0:
        raise DegenerateError("nu must be positive")
    # nu^{-2} g is the metric of the rows theta / nu; wt4 is unscaled in W,
    # so its component compares with the prediction directly
    inv_nu = _in_lam(MJet2.from_jet1(nu).reciprocal().derivatives()[..., None, None] * np.eye(DIM))
    computed, off, rep = _frame_ricci(_product(inv_nu, th), W)
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
