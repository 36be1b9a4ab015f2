"""Oracles and identity checks that only the tests call.

Each one checks the package by an independent route, or against one of the
paper's displays, and no command, demo or benchmark calls it: the
finite-difference derivative oracle, the multivariate order-2 reference
jet, the |.| powers of a negative base that the closed-form tables take,
the exp kernel and the lift of I = 2(log|F''|)' back to F (the reference
F-two-pole is checked against), the paper's closed-form pairs
(`CLOSED_FORMS`, each row's basis and the equation it solves), the
hypergeometric, Chazy, Schwarzian, Omega-system and closed-form residuals,
the mapped transformation identities by composition with the inverse series
of t(s) (`compose_invert_monomials`), the dual frame by the chain rule in q
and the curvature kernel on all n^4 slots, the curve branch y of H-ds-curve and its u,
the Legendre map of solution pairs, the exact polynomial identities (the
Legendre duality of the two sixth-order tables,
and the twistor coordinate change), the exact identity between the frame
Weyl tensor and the sixth-order left side at random rational points, the
Weyl chain per catalog point (`weyl_flatness`), the Riemann, Weyl and Ricci
identity checks, and the 4-metric potential data with its connection checks;
also the frame inputs the geometry tests share (`identity_q`,
`elementary_frame` and the elementary pair's flattening factor
`omega_factor`). The package keeps the certificate path they check.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Tuple

import numpy as np

from c235 import geometry
from c235.chazy import SchwarzTriple
from c235.dist import F_jet, SolutionSpec, get_spec
from c235.errors import (
    BranchError,
    C235Error,
    DegenerateError,
    DivisionByZeroJet,
    InvalidParam,
    SingularPointError,
    ZeroWronskianError,
)
from c235.geometry import (
    CurvatureReport,
    MatrixJet,
    _frame_ricci,
    _reduced_frame,
    metric_at,
)
from c235.jets import (
    Jet1,
    _factorials,
    _jet,
    _power_series,
    _toeplitz,
    _unit,
    jet_compose,
    jet_const,
    jet_invert,
    jet_pow,
    jet_var,
    solve_lower,
)
from c235.specialfn import (
    _IDENTITIES,
    HyperTriple,
    hyp2f1_jet,
    hypergeom_pair,
    relative_residual,
    schwarz_potential,
)

Frac = Fraction


# --- errors raised only here ------------------------------------------


class StencilEvaluationError(C235Error):
    pass


class ZeroDenominatorError(C235Error):
    pass


# --- finite-difference derivative oracle ------------------------------


def _fd_weights(m: int, order: int) -> list:
    """Exact central-difference weights: sum w_j j^k = k! delta_{k,order}."""
    from fractions import Fraction

    n = 2 * m + 1
    js = list(range(-m, m + 1))
    M = [
        [Fraction(j) ** k for j in js]
        + [Fraction(math.factorial(order)) if k == order else Fraction(0)]
        for k in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        pivot = M[col][col]
        M[col] = [x / pivot for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [a - factor * b for a, b in zip(M[r], M[col])]
    return [float(M[i][n]) for i in range(n)]


def _fd_apply(f, x0: float, order: int, m: int, h: float) -> float:
    w = _fd_weights(m, order)
    try:
        vals = [f(x0 + j * h) for j in range(-m, m + 1)]
    except Exception as exc:
        raise StencilEvaluationError(str(exc)) from exc
    if not np.all(np.isfinite(vals)):
        raise StencilEvaluationError("stencil hit a non-finite function value")
    return float(np.dot(w, vals)) / h**order


def derivative_oracle(f: Callable[[float], float], x0: float, order: int) -> float:
    """Central finite-difference estimate of f^(order)(x0).

    Independent of the jet arithmetic; used as the brute-force oracle.
    The stencil spans at most 0.75 * max(|x0|, 1) on each side, and three
    step sizes are combined by Richardson extrapolation.
    """
    if order == 0:
        return f(x0)
    if order > 6:
        raise ValueError("oracle supports derivative orders <= 6")
    m = order // 2 + 2  # stencil half-width; extra points raise the FD order
    h0 = 0.01 * 1.3 ** (order - 1) * max(abs(x0), 1.0)
    estimates = [_fd_apply(f, x0, order, m, h0 * 2**i) for i in range(3)]
    # symmetric stencils have an even error series starting at h^p
    p = 2 * ((2 * m + 2 - order) // 2)
    level = 0
    while len(estimates) > 1:
        q = 2.0 ** (p + 2 * level)
        estimates = [
            (q * estimates[i] - estimates[i + 1]) / (q - 1)
            for i in range(len(estimates) - 1)
        ]
        level += 1
    return estimates[0]


# --- |.| powers ---------------------------------------------------------


def jet_abs_pow(f: Jet1, e) -> Jet1:
    """|f|**e, real: equals f**e up to a constant factor for f < 0.

    Legitimate only where a constant rescaling is harmless (solutions of
    linear homogeneous ODEs, arguments of degree-homogeneous residuals).
    """
    if f.is_complex:
        raise BranchError("abs-power is a real-jet operation")
    DivisionByZeroJet.raise_where(f.coeffs.T[0] == 0, "fractional power of a jet with zero value")
    # the power ufunc at one point too, as jets.jet_pow takes it
    return _power_series(f, float(e), np.power(np.abs(f.coeffs[..., 0]), float(e)))


def _rp(jet: Jet1, e: Fraction) -> Jet1:
    """Real power with odd-denominator branch rule, |.|-branch otherwise.

    The |.| fallback rescales the function by a constant, which the
    linear equations the closed-form pairs solve ignore.
    """
    if e.denominator % 2 == 1:
        return jet_pow(jet, e)
    return jet_abs_pow(jet, float(e))


# --- exp, and the lift of I back to F ------------------------------------


@functools.cache
def _exp_tables(n: int):
    """(k, D), read-only: k = 0, 1, ..., n - 1 and D = diag(max(k, 1))."""
    k = np.arange(float(n))
    D = np.diag(np.maximum(k, 1.0))
    k.flags.writeable = D.flags.writeable = False
    return k, D


def jet_exp(f: Jet1) -> Jet1:
    k, D = _exp_tables(f.order + 1)
    # g = exp(f - f_0) solves g' = f' g: k g_k = sum_{m<k} (k - m) f_{k-m} g_m, g_0 = 1
    g = solve_lower(D - _toeplitz(f.coeffs * k), _unit(f.order + 1))
    return _jet(f.basepoint, np.exp(f.coeffs[..., :1]) * g)


def build_F_from_I(
    I: Jet1,
    constants: Tuple[float, float, float] = (0.0, 0.0, 0.0),
    negative: bool = False,
) -> Jet1:
    """Rebuild F from I at I's basepoint: F'' = (+-) exp(logE0 + int I/2), integrated twice.

    constants = (F0, F1, logE0); negative selects the E < 0 branch.
    """
    F0, F1, logE0 = constants
    half = 0.5 * I
    G = half.antiderivative(constant=logE0)
    E = jet_exp(G)
    if negative:
        E = -E
    Fp = E.antiderivative(constant=F1)
    return Fp.antiderivative(constant=F0)


# --- closed-form ODE residuals ----------------------------------------


def hypergeom_monomials(z: Jet1, p: HyperTriple) -> list:
    """The three monomials of the hypergeometric equation of p on the jet z, at each of its basepoints."""
    s0 = z.basepoint
    a, b, c = float(p.a), float(p.b), float(p.c)
    z0, z1, z2 = z.derivs(3)
    return [s0 * (1 - s0) * z2, (c - (a + b + 1) * s0) * z1, -a * b * z0]


def hypergeom_residual(z: Jet1, p: HyperTriple):
    """Relative residual of the hypergeometric equation on the jet z, at each of its basepoints."""
    return relative_residual(hypergeom_monomials(z, p))


def u_ode_residual(u: Jet1, tr: Tuple[float, float, float]):
    """Relative residual of u'' + V(s) u / 4 = 0, at each of u's basepoints."""
    V = schwarz_potential(*tr, u.basepoint, 0).value()
    return relative_residual([u.deriv(2), 0.25 * V * u.value()])


def elementary_residual(z: Jet1):
    """Relative residual of (1 - r^2) z'' / 4 - r z' / 3 + 5 z / 9 = 0, at each of z's basepoints."""
    r = z.basepoint
    return relative_residual(
        [0.25 * (1 - r * r) * z.deriv(2), -(r / 3.0) * z.deriv(1), (5.0 / 9.0) * z.value()]
    )


# --- the paper's closed-form pairs ------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """One of the paper's closed-form solution pairs: its basis and the equation it solves.

    basis(s) is the displayed pair (e1, e2) as jets in s, a jet_var (r
    for the elementary pair). A row with a Schwarz triple (alpha, beta,
    gamma) solves u'' + V(s) u / 4 = 0; one without solves the
    hypergeometric equation of its triple (a, b, c), and the elementary
    pair, with neither, the equation of `elementary_residual`.
    """

    basis: Callable[[Jet1], Tuple[Jet1, Jet1]]
    hyper: HyperTriple | None = None
    schwarz: tuple | None = None

    def residual(self, z: Jet1):
        """Relative residual of the row's equation on z, at each of its basepoints."""
        if self.schwarz is not None:
            return u_ode_residual(z, tuple(float(x) for x in self.schwarz))
        if self.hyper is not None:
            return hypergeom_residual(z, self.hyper)
        return elementary_residual(z)


def _f(s: Jet1, a, b, c) -> Jet1:
    """2F1(a, b; c; s) as a jet at s's basepoint."""
    return hyp2f1_jet(HyperTriple(a, b, c), s.basepoint, s.order)


def _table2_row1(s: Jet1):
    # 2F1 form of the displayed associated-Legendre pair
    w = _rp(s - 1.0, Frac(1, 4))
    return (_rp(s, Frac(1, 3)) * w * _f(s, Frac(5, 6), Frac(-2, 3), Frac(2, 3)),
            _rp(s, Frac(2, 3)) * w * _f(s, Frac(7, 6), Frac(-1, 3), Frac(4, 3)))


def _table2_row3(s: Jet1):
    w = _rp(s - 1.0, Frac(11, 4))
    return (_rp(s, Frac(2, 3)) * w * _f(s, Frac(13, 6), Frac(11, 3), Frac(4, 3)),
            _rp(s, Frac(1, 3)) * w * _f(s, Frac(11, 6), Frac(10, 3), Frac(2, 3)))


def _table3_row1(s: Jet1):
    w = s * (s - 1.0)
    poly = ((128.0 * s - 256.0) * s + 144.0) * s * s - 16.0 * s - 1.0
    return (2.0 * s - 1.0) * _rp(w, Frac(5, 4)), poly / _rp(w, Frac(1, 4))


def _elementary(r: Jet1):
    return (jet_pow(r - 1.0, Frac(1, 3)) * (3.0 * r + 1.0),
            jet_pow(r + 1.0, Frac(1, 3)) * (3.0 * r - 1.0))


def _dual(p: HyperTriple) -> ClosedForm:
    return ClosedForm(lambda s: hypergeom_pair(p, s.basepoint, s.order), p)


CLOSED_FORMS: dict[str, ClosedForm] = {
    "table1_row1": ClosedForm(
        lambda s: ((2.0 * s - 1.0) / (s * (s - 1.0)), s * s * (s - 2.0) / (s - 1.0)),
        HyperTriple(-4, -1, -2), (3, 3, 3)),
    "table1_row2": ClosedForm(
        lambda s: ((3.0 * s - 2.0) * _rp(s, Frac(2, 3)) * _rp(s - 1.0, Frac(1, 3)),
                   (3.0 * s - 1.0) * _rp(s, Frac(1, 3)) * _rp(s - 1.0, Frac(2, 3))),
        HyperTriple(Frac(-4, 3), Frac(5, 3), Frac(2, 3)), (3, Frac(1, 3), Frac(1, 3))),
    "table1_row3": ClosedForm(
        lambda s: ((2.0 * s - 3.0) / s * _rp(s - 1.0, Frac(1, 3)),
                   (s - 3.0) / s * _rp(s - 1.0, Frac(2, 3))),
        HyperTriple(Frac(-4, 3), -1, -2), (Frac(1, 3), 3, Frac(1, 3))),
    "table1_row4": ClosedForm(
        lambda s: ((2.0 * s + 1.0) / (s - 1.0) * _rp(s, Frac(1, 3)),
                   (s + 2.0) / (s - 1.0) * _rp(s, Frac(2, 3))),
        HyperTriple(Frac(-4, 3), -1, Frac(2, 3)), (Frac(1, 3), Frac(1, 3), 3)),
    "table2_row1": ClosedForm(
        _table2_row1,
        HyperTriple(Frac(5, 6), Frac(-2, 3), Frac(2, 3)), (Frac(3, 2), Frac(1, 3), Frac(1, 2))),
    "table2_row2": ClosedForm(
        lambda s: (_rp(s - 1.0, Frac(3, 4)) / s,
                   _rp(s - 1.0, Frac(1, 4)) * (s * s + 4.0 * s - 8.0) / s),
        HyperTriple(Frac(-1, 2), -2, -2), (Frac(3, 2), 3, Frac(1, 2))),
    "table2_row3": ClosedForm(
        _table2_row3,
        HyperTriple(Frac(-7, 6), Frac(-8, 3), Frac(2, 3)), (Frac(3, 2), Frac(1, 3), Frac(9, 2))),
    "table3_row1": ClosedForm(
        _table3_row1, HyperTriple(-4, 2, Frac(-1, 2)), (6, Frac(3, 2), Frac(3, 2))),
    "table3_row2": ClosedForm(
        lambda s: (_rp(s * (s - 1.0), Frac(5, 4)) * _f(s, Frac(5, 3), Frac(7, 3), Frac(5, 2)),
                   _rp(s - 1.0, Frac(5, 4)) / _rp(s, Frac(1, 4))
                   * _f(s, Frac(1, 6), Frac(5, 6), Frac(-1, 2))),
        HyperTriple(Frac(-4, 3), Frac(-2, 3), Frac(-1, 2)), (Frac(2, 3), Frac(3, 2), Frac(3, 2))),
    "table3_row3": ClosedForm(
        lambda s: (_rp(s * (s - 1.0), Frac(7, 12)) * _f(s, Frac(1, 3), 1, Frac(7, 6)),
                   _rp(s, Frac(5, 12)) * _rp(1.0 - s, Frac(5, 12))),
        HyperTriple(0, Frac(2, 3), Frac(5, 6)), (Frac(2, 3), Frac(1, 6), Frac(1, 6))),
    "dual_k32_row1": _dual(HyperTriple(Frac(-1, 4), Frac(5, 12), Frac(1, 2))),
    "dual_k32_row2": _dual(HyperTriple(Frac(-1, 4), Frac(5, 12), Frac(2, 3))),
    "dual_k32_row3": _dual(HyperTriple(Frac(-1, 2), Frac(5, 6), Frac(2, 3))),
    "elementary_r": ClosedForm(_elementary),
}


def closed_form_pair(family: str, s0, order: int = 8, constants=(1.0, 0.0, 0.0, 1.0)):
    """(c1 e1 + c2 e2, c3 e1 + c4 e2) over the row's basis at s0 (one point, or a stack)."""
    if family not in CLOSED_FORMS:
        raise ValueError(f"unknown closed-form family {family!r}")
    if family != "elementary_r":
        SingularPointError.raise_where((s0 == 0) | (s0 == 1), "s in {0,1}")
    c1, c2, c3, c4 = constants
    e1, e2 = CLOSED_FORMS[family].basis(jet_var(s0, order))
    return c1 * e1 + c2 * e2, c3 * e1 + c4 * e2


def closed_form_ode_residual(family: str, s0: float) -> float:
    """Residual of the row's own equation on both jets of its pair, of order 6."""
    row = CLOSED_FORMS[family]
    return max(row.residual(z) for z in closed_form_pair(family, s0, 6))


# --- Chazy, Schwarzian and Omega-system residuals ---------------------


def residual_chazy(y: Jet1) -> float:
    """Relative residual of y''' - 2 y y'' + 3 (y')^2."""
    y0, y1, y2, y3 = y.derivs(4)
    return relative_residual([y3, -2.0 * y0 * y2, 3.0 * y1 * y1])


def _schwarzian_derivative(s: Jet1) -> Tuple[complex, complex]:
    """({s, q}, s_dot) at the basepoint."""
    s1, s2, s3 = s.deriv(1), s.deriv(2), s.deriv(3)
    if s1 == 0:
        raise DegenerateError("s_dot = 0: the Schwarzian derivative is undefined")
    return s3 / s1 - 1.5 * (s2 / s1) ** 2, s1


def residual_schwarzian(s: Jet1, tr: SchwarzTriple) -> float:
    """Relative residual of {s, q} + (s_dot^2 / 2) V(s)."""
    sch, s1 = _schwarzian_derivative(s)
    V = schwarz_potential(*tr.as_floats(), s.value(), 0).value()
    return relative_residual([sch, 0.5 * s1 * s1 * V])


def omegas_from_s(s: Jet1) -> Tuple[Jet1, Jet1, Jet1]:
    """The three log-derivative combinations built from an s-jet in q.

    Omega_1 = -1/2 d/dq log(s_dot/(s(s-1))), Omega_2 uses s-1, Omega_3 uses s.
    """
    if s.deriv(1) == 0:
        raise DegenerateError("s_dot = 0")
    if s.value() in (0.0, 1.0):
        raise DegenerateError("s in {0,1}: the log arguments vanish")
    sdot = s.derivative()
    # d/dq log g = g'/g, insensitive to the sign of g
    def dlog(g: Jet1) -> Jet1:
        return g.derivative() / g
    o1 = (-0.5) * dlog(sdot / (s * (s - 1.0)))
    o2 = (-0.5) * dlog(sdot / (s - 1.0))
    o3 = (-0.5) * dlog(sdot / s)
    return o1, o2, o3


def omega_residuals(s: Jet1, tr: SchwarzTriple) -> Tuple[Jet1, Jet1, Jet1, float]:
    """(Omega_1, Omega_2, Omega_3, max relative residual of the system)."""
    o1, o2, o3 = omegas_from_s(s)
    a2, b2, g2 = (float(x) ** 2 for x in tr.as_floats())
    v1, v2, v3 = o1.value(), o2.value(), o3.value()
    tau2 = a2 * (v1 - v2) * (v3 - v1) + b2 * (v2 - v3) * (v1 - v2) + g2 * (v3 - v1) * (v2 - v3)
    res = []
    for oa, ob, oc in ((o1, o2, o3), (o2, o3, o1), (o3, o1, o2)):
        va, vb, vc = oa.value(), ob.value(), oc.value()
        res.append(relative_residual([oa.deriv(1), -(vb * vc), va * (vb + vc), -tau2]))
    return o1, o2, o3, float(max(res))


PARAM_WEIGHTS = {
    "sum222": (2.0, 2.0, 2.0),
    "w123": (1.0, 2.0, 3.0),
    "w132": (1.0, 3.0, 2.0),
    "w411": (4.0, 1.0, 1.0),
}


def parametrized_y(s: Jet1, weights: str) -> Jet1:
    """y = -(a Omega_1 + b Omega_2 + c Omega_3) for the named weighting."""
    if weights not in PARAM_WEIGHTS:
        raise ValueError(f"unknown weighting {weights!r}")
    a, b, c = PARAM_WEIGHTS[weights]
    o1, o2, o3 = omegas_from_s(s)
    return (-a) * o1 + (-b) * o2 + (-c) * o3


def chazy_log_solution(z1: Jet1, z2: Jet1) -> Tuple[float, Jet1]:
    """(q0, y) with q = z2/z1 and y = 6 d/dq log z1, both as data in q; y to order 6.

    z1, z2 are jets in s at a common basepoint; y comes back as a jet in q
    at q0 via ds/dq = z1^2 / W(z1, z2) and composition.
    """
    if z1.value() == 0:
        raise ZeroDenominatorError("z1 vanishes at the basepoint")
    q_of_s = z2 / z1
    W0 = z1.value() * z2.deriv(1) - z2.value() * z1.deriv(1)
    # <=, not <: a pair whose two products are both 0 is dependent too
    scale = max(abs(z1.value() * z2.deriv(1)), abs(z2.value() * z1.deriv(1)))
    if abs(W0) <= 1e-12 * scale:
        raise ZeroWronskianError("z1, z2 are linearly dependent")
    if np.allclose(z1.coeffs[1:], 0.0):
        q0 = q_of_s.value()
        return float(np.real(q0)), jet_const(0.0, float(np.real(q0)), 6)
    # y = 6 d/dq log z1 = 6 z1 (dz1/ds) / W via ds/dq = z1^2 / W
    W = z1 * z2.derivative() - z2 * z1.derivative()
    y_of_s = 6.0 * z1.derivative() * z1 / W
    s_of_q = jet_invert(q_of_s)
    y = jet_compose(y_of_s, s_of_q)
    return y.basepoint, y.truncate(6)


# --- the mapped identities by composition with the inverse series ------------

_W = complex(-0.5, 0.5 * math.sqrt(3.0))  # a cube root of unity
# each mapped identity kind's t(s) and prefactor b(s)**e as functions of a jet x = s,
# written out as the package wrote them before its factor table: (t, b, e)
COMPOSE_INVERT_MAPS = {
    "cubic": (lambda x: 3.0 * (2.0 * _W + 1.0) * x * (x - 1.0) / ((x + _W) * (x + _W) * (x + _W)),
              lambda x: x + _W, -4),
    "degree4": (lambda x: -x * (x + 8.0) ** 3 / (64.0 * (1.0 - x) ** 3), lambda x: 1.0 - x, 2.5),
    "degree6": (lambda x: 27.0 * (x * (x - 1.0)) ** 2 / (4.0 * (x * x - x + 1.0) ** 3),
                lambda x: 1.0 - x + x * x, -2),
    "frac_linear_1ms": (lambda x: 1.0 - x, lambda x: 1.0 - x, Frac(0)),
    "frac_linear_s_over_sm1": (lambda x: x / (x - 1.0), lambda x: 1.0 - x, Frac(-4, 3)),
}


# the kinds that check the target equation by the order-2 chain rule, not by values
MAPPED_KINDS = tuple(kind for kind, row in _IDENTITIES.items() if not row.values)


def compose_invert_monomials(kind: str, s) -> list:
    """The target equation's monomials on b(s)**e 2F1(p; s) mapped into t, at s (one point or a stack).

    The solution's order-2 jet in s is composed with the inverse series of
    the jet of t(s), and the target hypergeometric equation is read off the
    result: the reference for the package's order-2 chain rule.
    """
    t_of, base, e = COMPOSE_INVERT_MAPS[kind]
    ident = _IDENTITIES[kind]
    z, x = hyp2f1_jet(ident.p, s, 2), jet_var(s, 2)
    t = t_of(x)
    zt = jet_compose(jet_pow(base(x), e) * z, jet_invert(t))
    return hypergeom_monomials(zt, ident.target)


# --- the curve branch, its u and the Legendre map of solution pairs ------


def ds_curve_solution(
    a: float, b: float, f: Tuple[float, float, float], t0, order: int = 8
) -> Jet1:
    """Jet of the curve branch y = +sqrt((t-a)(t-b)^3) - f(t) at t0 (one point, or a stack)."""
    if a == b:
        raise DegenerateError("a = b collapses the curve")
    t = jet_var(t0, order)
    radicand = (t - a) * (t - b) ** 3
    BranchError.raise_where(radicand.value() <= 0, "(t0-a)(t0-b)^3 <= 0: no real branch here")
    f0, f1, f2 = f
    return jet_pow(radicand, Frac(1, 2)) - (f0 + f1 * t + f2 * t * t)


def ds_curve_u(a: float, b: float, t0: float, order: int = 6) -> Jet1:
    """u(t) = (3/2) d/dt log y''' for the curve branch with f = 0."""
    y = ds_curve_solution(a, b, (0.0, 0.0, 0.0), t0, order + 4)
    y3 = y.derivative().derivative().derivative()
    return (1.5 * y3.derivative() / y3).truncate(order)


def legendre_pair_map(z1: Jet1, z2: Jet1, direction: str) -> Tuple[Jet1, Jet1]:
    """Map a solution pair between the two pictures, in the s variable.

    F_to_H: w1 = z1^(-3/4), w2 = w1 * int z1 (z2' z1 - z1' z2) ds.
    H_to_F: z1 = w1^(-4/3), z2 = z1 * int w1^2 (w2' w1 - w1' w2) ds.
    Antiderivative constants vanish at the basepoint (the catalog gauge).
    """
    if direction not in ("F_to_H", "H_to_F"):
        raise ValueError(f"unknown direction {direction!r}")
    BranchError.raise_where(np.real(z1.value()) <= 0, "leading solution must be positive at the basepoint")
    wronsk = z2.derivative() * z1 - z1.derivative() * z2
    if direction == "F_to_H":
        w1 = jet_pow(z1, Fraction(-3, 4))
        K = (z1 * wronsk).antiderivative(0.0)
    else:
        w1 = jet_pow(z1, Fraction(-4, 3))
        K = (z1 * z1 * wronsk).antiderivative(0.0)
    return w1, w1 * K


# --- exact polynomial identities ----------------------------------------


class Poly:
    """A polynomial in n variables with Fraction coefficients, {exponents: coefficient}.

    Numbers mix in as constants, so 2 * p - 1 is a Poly; == compares exactly.
    """

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {e: Fraction(c) for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def var(cls, n: int, i: int) -> "Poly":
        return cls(n, {tuple(int(j == i) for j in range(n)): 1})

    def _lift(self, other) -> "Poly":
        return other if isinstance(other, Poly) else Poly(self.n, {(0,) * self.n: other})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.n, terms)

    def __mul__(self, other):
        other, terms = self._lift(other), {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.n, terms)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -self._lift(other)

    def __pow__(self, k: int):
        out = self._lift(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == self._lift(other).terms

    __hash__ = None

    def partial(self, i: int) -> "Poly":
        return Poly(self.n, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                             for e, c in self.terms.items() if e[i]})


# y, y', ..., y^(7): the derivatives a sixth-order table and its total derivative reach
JET_VARS = [Poly.var(8, i) for i in range(8)]


def total_derivative(p: Poly) -> Poly:
    """D p = sum_i (dp/dy^(i)) y^(i+1), for p free of y^(7)."""
    assert p.partial(7) == 0, "y^(7) has no derivative here"
    return sum((p.partial(i) * JET_VARS[i + 1] for i in range(7)), Poly(8))


def table_poly(table, subs=JET_VARS) -> Poly:
    """A table's left-hand side, the sum of coefficient * prod subs[i]**e, exactly."""
    return sum((Fraction(c) * math.prod((subs[i] ** e for i, e in factors), start=1)
                for c, factors in table), Poly(8))


def legendre_image(table) -> Tuple[int, Poly]:
    """(W, P): a sixth-order table in F'', ..., F^(6), rewritten in the derivatives of H.

    Along the Legendre transform t = F'(q), H(t) = q t - F, one has
    F'' = 1/H'' and d/dq = (1/H'') d/dt, so F^(k) = N_k / (H'')^(2k-3) with
    N_2 = 1 and N_(k+1) = H'' D(N_k) - (2k-3) H''' N_k. P is the left-hand
    side times (H'')^W, W the largest weight sum e (2i-3) of a monomial: a
    polynomial in H'', ..., H^(6).
    """
    h = JET_VARS
    N = {2: h[2] ** 0}
    for k in range(2, 6):
        N[k + 1] = h[2] * total_derivative(N[k]) - (2 * k - 3) * h[3] * N[k]
    weights = [sum(e * (2 * i - 3) for i, e in factors) for _, factors in table]
    W = max(weights)
    P = sum((h[2] ** (W - w) * table_poly([row], N) for row, w in zip(table, weights)), Poly(8))
    return W, P


# --- the multivariate order-2 reference jet ------------------------------


@dataclass(frozen=True)
class ReferenceJet2:
    """An order-2 jet in `dim` variables, unpacked: value (...,), gradient
    (..., dim) and symmetric hessian (..., dim, dim), with a leading point axis
    or none. Products and reciprocals follow the product and quotient rules
    term by term, with no packed layout and no table: the reference that
    geometry's MJet2 and MatrixJet arithmetic is checked against.
    """

    value: np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray

    @classmethod
    def constant(cls, value, dim: int) -> "ReferenceJet2":
        return cls(np.asarray(value, dtype=float), np.zeros(dim), np.zeros((dim, dim)))

    @classmethod
    def coordinate(cls, value, axis: int, dim: int) -> "ReferenceJet2":
        jet = cls.constant(value, dim)
        jet.gradient[axis] = 1.0
        return jet

    @classmethod
    def of_jet1(cls, jet, axis: int, dim: int) -> "ReferenceJet2":
        """A univariate jet, or its Taylor coefficients (..., order + 1), in coordinate `axis`."""
        c = jet.coeffs if isinstance(jet, Jet1) else np.asarray(jet)
        gradient, hessian = np.zeros(c.shape[:-1] + (dim,)), np.zeros(c.shape[:-1] + (dim, dim))
        gradient[..., axis] = c[..., 1]
        hessian[..., axis, axis] = 2.0 * c[..., 2]
        return cls(c[..., 0], gradient, hessian)

    def along(self, axis: int) -> np.ndarray:
        """(..., 3): the value, and the first and second partial along `axis`."""
        return np.stack([self.value, self.gradient[..., axis], self.hessian[..., axis, axis]], axis=-1)

    def __add__(self, other) -> "ReferenceJet2":
        if not isinstance(other, ReferenceJet2):
            return type(self)(self.value + other, self.gradient, self.hessian)
        return type(self)(self.value + other.value, self.gradient + other.gradient,
                          self.hessian + other.hessian)

    def __neg__(self) -> "ReferenceJet2":
        return type(self)(-self.value, -self.gradient, -self.hessian)

    def __sub__(self, other) -> "ReferenceJet2":
        return self + (-other)

    def __rsub__(self, other) -> "ReferenceJet2":
        return (-self) + other

    def __mul__(self, other) -> "ReferenceJet2":
        """The product with a jet, a number, or one number per point."""
        if not isinstance(other, ReferenceJet2):
            x = np.asarray(other, dtype=float)
            return type(self)(self.value * x, self.gradient * x[..., None], self.hessian * x[..., None, None])
        va, vb = np.asarray(self.value)[..., None], np.asarray(other.value)[..., None]
        outer = self.gradient[..., :, None] * other.gradient[..., None, :]
        return type(self)(self.value * other.value, va * other.gradient + vb * self.gradient,
                          va[..., None] * other.hessian + vb[..., None] * self.hessian
                          + outer + np.swapaxes(outer, -1, -2))

    __rmul__ = __mul__

    def reciprocal(self) -> "ReferenceJet2":
        """1/v, -g/v**2 and -h/v**2 + 2 g g^T/v**3."""
        v, g = np.asarray(self.value)[..., None], self.gradient
        return type(self)(1.0 / self.value, -g / v ** 2,
                          -self.hessian / v[..., None] ** 2
                          + 2.0 * g[..., :, None] * g[..., None, :] / v[..., None] ** 3)

    def __truediv__(self, other: "ReferenceJet2") -> "ReferenceJet2":
        return self * other.reciprocal()


class RoundoffScale(ReferenceJet2):
    """ReferenceJet2's arithmetic with every term taken in absolute value.

    An expression evaluated on RoundoffScale jets of the absolute values of
    its inputs (of_jet1 takes them) bounds each part of its ReferenceJet2
    result term by term, so the round-off of any evaluation order is a few
    units in the last place of it per operation, however much the terms
    cancel.
    """

    @classmethod
    def of_jet1(cls, jet, axis: int, dim: int) -> "RoundoffScale":
        return super().of_jet1(np.abs(jet.coeffs if isinstance(jet, Jet1) else jet), axis, dim)

    def __add__(self, other) -> "RoundoffScale":  # a sum or a difference
        return super().__add__(other if isinstance(other, ReferenceJet2) else abs(other))

    def __neg__(self) -> "RoundoffScale":
        return self

    def __mul__(self, other) -> "RoundoffScale":
        return super().__mul__(other if isinstance(other, ReferenceJet2) else np.abs(other))

    __rmul__ = __mul__

    def reciprocal(self) -> "RoundoffScale":
        v, g = np.asarray(self.value)[..., None], self.gradient
        return RoundoffScale(1.0 / self.value, g / v ** 2,
                             self.hessian / v[..., None] ** 2
                             + 2.0 * g[..., :, None] * g[..., None, :] / v[..., None] ** 3)


# --- the frame by the chain rule in q, and the whole curvature tensors ---------


def legendre_data(H: Jet1):
    """The F-in-q data of a dual-picture H(t), as jets in t: q = H', F = t H' - H."""
    Hp = H.derivative()
    return Hp, jet_var(H.basepoint, H.order) * Hp - H


def identity_q(q0, order: int = 8) -> Jet1:
    """q as a jet in itself: the q_of of an F-picture frame, lam = q."""
    return jet_var(q0, order)


def elementary_frame(r0, constants=(1, 0, 0, 1)):
    """(q_of, F_of), jets in r, of the elementary pair with these constants, at r0."""
    spec = replace(get_spec("F-elementary-r"), params={"constants": constants})
    return geometry.elementary_frame_jets(spec, r0)


def omega_factor(r0, order: int = 8) -> Jet1:
    """Omega = (4/3)(3r + 1)|r - 1|^(1/3) / (|r - 1|^(1/3) - |r + 1|^(1/3)), a jet in r:
    the metric of the unmixed elementary pair times Omega^2 is Ricci-flat."""
    r = jet_var(r0, order)
    num = (r * 3.0 + 1.0) * jet_abs_pow(r - 1.0, 1.0 / 3.0) * (4.0 / 3.0)
    den = jet_abs_pow(r - 1.0, 1.0 / 3.0) - jet_abs_pow(r + 1.0, 1.0 / 3.0)
    return num / den


def frame_jets(spec: SolutionSpec, lam, jet: Jet1 | None = None):
    """(q_of, F_of), jets in the frame variable, for any catalog entry: the inputs of
    geometry's general chain. F-picture entries take q itself, H-picture entries
    the Legendre data of H, from `jet` or the order-8 F_jet; the elementary pair
    its jets in r."""
    if spec.family == "elementary_r":
        return geometry.elementary_frame_jets(spec, lam)
    if jet is None:
        jet = F_jet(spec, lam)
    if spec.picture == "H_of_t":
        return legendre_data(jet)
    return jet_var(jet.basepoint, jet.order), jet


def _exact_legendre_chain(h: list, t: Fraction) -> list:
    """The rows q, F, q', F', F'', F''', F'''' of the Legendre data of the Taylor
    coefficients h of H at t, each as its value, d/dt and d2/dt2, by the chain rule in
    q: four truncated divisions by dq/dt = H'', in exact rational arithmetic."""
    def derivative(a):
        return [a[k + 1] * (k + 1) for k in range(len(a) - 1)]

    def divide(a, b):
        out = []
        for k in range(min(len(a), len(b))):
            out.append((a[k] - sum(b[j] * out[k - j] for j in range(1, k + 1))) / b[0])
        return out

    hp = derivative(h)
    F = [t * hp[k] + (hp[k - 1] if k else 0) - h[k] for k in range(len(hp))]
    dq = derivative(hp)
    rows, f = [hp, F, dq], F
    for _ in range(4):
        f = divide(derivative(f), dq)
        rows.append(f)
    return [[float(r[0]), float(r[1]), float(2 * r[2])] for r in rows]


def legendre_chain_coeffs(H: Jet1) -> np.ndarray:
    """geometry._frame_coeffs of the Legendre data of an order-8 H by the chain rule in
    q, four divisions by H'', in exact arithmetic: (..., 7, 3).

    In floating point this chain loses up to about 2e-12 of F'' ... F'''' on
    H-two-pole and 5e-12 on H-ds-curve (against mpmath, at 12 basepoints across
    each domain), more than the round-off of the frame rows built from them:
    F's Taylor terms t H'_k + H'_(k-1) - H_k cancel, and the divisions carry
    that on. On the jet's coefficients, as rationals, the chain is exact, and it
    is the same function of them as the exact Legendre forms, so only one
    rounding, at the end, is left; there it is within 5e-15 of mpmath.
    """
    coeffs = np.reshape(H.coeffs, (-1, H.order + 1))
    t0 = np.reshape(H.basepoint, -1)
    rows = [_exact_legendre_chain([Fraction(float(x)) for x in c], Fraction(float(t)))
            for c, t in zip(coeffs, t0)]
    return np.reshape(rows, H.coeffs.shape[:-1] + (7, 3))


def dual_coframe(H: Jet1, point4) -> MatrixJet:
    """The catalog's dual-picture coframe of any H(t) jet of order 6 or more."""
    d = H.coeffs[..., :geometry.FRAME_ORDER + 1] * _factorials(geometry.FRAME_ORDER + 1)
    return geometry._coframe(*geometry._legendre_frame(H.basepoint, d), point4)


def pair_form(T: np.ndarray) -> np.ndarray:
    """A (..., n, n, n, n) tensor on the slots (a, b, c, d) of its pair form's upper
    triangle, as curvature gives Riemann and Weyl: a < b, c < d, (a, b) <= (c, d)."""
    a, b = np.triu_indices(T.shape[-1], 1)
    i, j = np.triu_indices(a.size)
    return T[..., a[i], b[i], a[j], b[j]]


@np.errstate(all="ignore")
def full_curvature(g: MatrixJet) -> CurvatureReport:
    """geometry.curvature with Riemann and Weyl on all n^4 slots, by the same matmuls.

    The Kulkarni-Nomizu product is one outer product with two transposes;
    the summary reads the whole Weyl tensor. No slot is gathered.
    """
    n, A = g.value.shape[-1], g.grad.shape[-3]
    batch = g.value.shape[:-2]
    G = 0.5 * (g.value + g.value.swapaxes(-1, -2))
    ginv = np.linalg.inv(G)
    Glow = geometry._lower_christoffel(geometry.padded_grad(g)).reshape(batch + (n, n * n))
    Gam = ginv @ Glow
    d2G = np.zeros(batch + (A, n, n, n))
    d2G[..., n - A:, :, :] = g.hess
    dGam = ginv[..., None, :, :] @ (
        geometry._lower_christoffel(d2G).reshape(batch + (A, n, n * n)) - g.grad @ Gam[..., None, :, :])
    X = (Gam.reshape(batch + (n * n, n)) @ Gam).reshape(batch + (n,) * 4)
    X[..., n - A:, :, :] += dGam.reshape(batch + (A,) + (n,) * 3).swapaxes(-4, -3)
    Racdb = X - X.swapaxes(-3, -2)
    ricci = np.trace(Racdb, axis1=-4, axis2=-3)
    ricci = 0.5 * (ricci + ricci.swapaxes(-1, -2))
    scalar = np.sum(ginv * ricci, axis=(-2, -1))
    Rlow = np.moveaxis((G @ Racdb.reshape(batch + (n, n**3))).reshape(batch + (n,) * 4), -1, -3)
    A = ricci / (n - 2) - (np.asarray(scalar) / (2 * (n - 1) * (n - 2)))[..., None, None] * G
    T = G[..., :, None, :, None] * A[..., None, :, None, :]  # G_ac A_bd
    T = T + T.swapaxes(-4, -3).swapaxes(-2, -1)
    weyl = Rlow - (T - T.swapaxes(-2, -1))
    return CurvatureReport(
        christoffel=Gam.reshape(batch + (n,) * 3), riemann=Rlow, ricci=ricci, scalar=scalar,
        weyl=weyl, maxAbsWeyl=np.max(np.abs(weyl), axis=(-4, -3, -2, -1)),
        maxAbsRicci=np.max(np.abs(ricci), axis=(-2, -1)), metricScale=np.max(np.abs(G), axis=(-2, -1)))


# --- Riemann, Weyl and Ricci identity checks --------------------------


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


def expand_report(report: dict) -> dict:
    """The full tensors of a `c235 curvature` report, from its components and its index lists.

    Christoffel (5, 5, 5) and Ricci (5, 5) are symmetric in their last two
    indices; Riemann and Weyl (5, 5, 5, 5) are their pair forms P_ij = P_ji on
    bivectors (a, b), a < b, with R_bacd = -R_abcd and R_abdc = -R_abcd.
    """
    layout = report["layout"]
    b, c = layout["pairs"]
    out = {"christoffel": np.zeros((5, 5, 5)), "ricci": np.zeros((5, 5))}
    out["christoffel"][:, b, c] = out["christoffel"][:, c, b] = report["christoffel"]
    out["ricci"][b, c] = out["ricci"][c, b] = report["ricci"]
    lo, hi = (np.array(k) for k in layout["bivectors"])
    i, j = layout["pairForm"]
    for name in ("riemann", "weyl"):
        P = np.zeros((lo.size, lo.size))
        P[i, j] = P[j, i] = report[name]
        R = np.zeros((5,) * 4)
        for first, second, sign in ((lo, hi, 1.0), (hi, lo, -1.0)):
            R[first[:, None], second[:, None], lo, hi] = sign * P
            R[first[:, None], second[:, None], hi, lo] = -sign * P
        out[name] = R
    return out


def ricci_identity_check(q_of: Jet1, F_of: Jet1, point4) -> float:
    """Relative error of Ricci against (9/120)(6I' - I^2) on wt4 x wt4."""
    th, W, I, Ip = _reduced_frame(q_of, F_of, point4)
    R44, off, rep = _frame_ricci(th, W)
    expected = (9.0 / 120.0) * (6.0 * Ip - I * I)
    scale = max(abs(expected), rep.metricScale * 1e-8, 1e-12)
    err_off = off / max(abs(expected), 1.0)
    err_44 = abs(R44 - expected) / scale
    return float(max(err_44, err_off))


def weyl_flatness(spec: SolutionSpec, points) -> list:
    """Each point's weyl_ratio(metric_at(coframe_for_spec(spec, point))), or the C235Error
    that stopped it: the Weyl chain on catalog points, one stack through per_point."""
    pts = np.reshape(np.asarray(points, dtype=float), (-1, 5))
    stages = (lambda p: geometry.coframe_for_spec(spec, p), metric_at, geometry.weyl_ratio)
    return geometry.per_point(stages, pts, np.arange(len(pts)), [None] * len(pts))


# --- the frame Weyl tensor is the sixth-order left side, exactly ---------------

# The Schwartz-Zippel sample set S = {k / 2^16 : k an integer, |k| <= 2^31}, from which
# each of the 12 inputs (the frame variable, the jet d[0..6] and point4) is drawn, E = d[2]
# (F'' or H'') from S less 0: |S| - 1 = 2^32
SZ_SCALE = 2 ** 16
SZ_HALF_WIDTH = 2 ** 31
SZ_DRAWS = 2 * SZ_HALF_WIDTH
# d, the total degree of the polynomial each identity reduces to, per picture.
#
# Each quantity X of the exact pipeline is P / E^k with P a polynomial in the 12 inputs
# of total degree <= n; write X ~ (n, k). A product adds both; a sum takes the larger k
# and raises the other n by the difference; constants are (0, 0). The divisions are 1/E
# (MJet2.reciprocal) and the two inverses, adj / det: C of _frame_rows is block
# triangular with det -s, and the omegas have det +-q', so det theta = -+q'/F'', which
# is -+1/E in the F picture (s = 1/F'', q' = 1) and -+E^2 in the H picture (s = q' = H''),
# and det g = (4/3) det theta^2. Stage by stage, F picture | H picture:
#   frame terms   s (2, 3), B (5, 6), coef4 (8, 9) | 1/H'' (2, 3), B (3, 3), coef4 (8, 9)
#   C, omegas     (9, 9), (1, 0) | (11, 9), (2, 0)
#   theta, g      (10, 9), (20, 18) | (13, 9), (26, 18)
#   g^-1          (80, 70) | (104, 76)
#   Gamma         (100, 88) | (130, 94)
#   dGamma, R^a_bcd, Ricci   (200, 176) | (260, 188)
#   scalar, Weyl  (280, 246), (320, 282) | (364, 264), (416, 300)
#   theta^-1, M   (40, 35), (80, 70) | (52, 38), (104, 76)
#   M P M^T       (480, 422) | (624, 452)
# and the claimed values -LHS / (100 E^4) ~ (4, 4), LHS_dual / (100 E^8) ~ (4, 8), the
# tables being homogeneous of degree 4. So each frame entry minus its claimed value, times
# E^422 (E^452), is a polynomial of degree <= 480 (624). If it is not the zero polynomial,
# a point drawn from S^12 is a zero of it with probability <= d / (|S| - 1) (Schwartz,
# J. ACM 27 (1980); Zippel, EUROSAM 1979), and n independent points all are with
# probability <= (d / (|S| - 1))^n.
WEYL_IDENTITY_DEGREE = {"F_of_q": 480, "H_of_t": 624}
# the slot of (theta^2, theta^5) among the bivectors, 0-based (1, 4)
THETA25 = list(zip(*geometry.BIVECTORS)).index((1, 4))


def sz_draw(rng: random.Random, nonzero: bool = False) -> Fraction:
    """A uniform draw from the sample set S, or from S less 0."""
    while True:
        k = rng.randint(-SZ_HALF_WIDTH, SZ_HALF_WIDTH)
        if k or not nonzero:
            return Fraction(k, SZ_SCALE)


def exact_table_value(table, d) -> Fraction:
    """A sixth-order table's left side at the exact derivatives d[i] = y^(i)."""
    return sum(Fraction(c) * math.prod(d[i] ** e for i, e in factors) for c, factors in table)


def frame_pair_form(theta: np.ndarray, weyl: np.ndarray) -> np.ndarray:
    """The 10 x 10 pair form of a Weyl tensor against the frame theta^i = theta[i, a] dx^a.

    `weyl` holds C_abcd on curvature's PAIR_FORM slots. With e_i^a = (theta^-1)[a, i] the
    frame vectors, C(e_i, e_j, e_k, e_l) on the bivectors is M P M^T, P the coordinate pair
    form and M[(ij), (ab)] = e_i^a e_j^b - e_i^b e_j^a the Lambda^2 change of basis: three
    10 x 10 products, not a sum over 5^8 terms. Exact on object arrays of Fractions.
    """
    E = geometry._inverse(theta).T
    a, b = (np.array(k) for k in geometry.BIVECTORS)
    M = E[np.ix_(a, a)] * E[np.ix_(b, b)] - E[np.ix_(a, b)] * E[np.ix_(b, a)]
    P = np.empty((a.size, a.size), dtype=weyl.dtype)
    i, j = geometry.PAIR_FORM
    P[i, j] = P[j, i] = weyl
    return M @ P @ M.T


def exact_frame_weyl(picture: str, rng: random.Random):
    """(pair form, d): the frame Weyl pair form of the catalog coframe at a random point of
    S^12, built in exact arithmetic by geometry's own frame, coframe, metric and curvature,
    and the jet d = F, ..., F^(6) (H, ..., H^(6)) it was built from."""
    d = np.array([sz_draw(rng, nonzero=k == 2) for k in range(7)], dtype=object)
    lam0 = sz_draw(rng)
    point4 = np.array([sz_draw(rng) for _ in range(4)], dtype=object)
    frame = (geometry._in_q_frame(geometry._F_coeffs(lam0, d)) if picture == "F_of_q"
             else geometry._legendre_frame(lam0, d))
    cf = geometry._coframe(*frame, point4)
    rep = geometry.curvature(metric_at(cf))
    assert all(type(x) is Fraction for x in rep.weyl), "the exact pipeline met a float"
    return frame_pair_form(cf.value, rep.weyl), d


def claimed_weyl(picture: str, table, d) -> Fraction:
    """C(theta^2, theta^5, theta^2, theta^5) as the table's left side gives it:
    -LHS / (100 F''^4) in the F picture, +LHS_dual / (100 H''^8) in the H picture."""
    lhs = exact_table_value(table, d)
    return -lhs / (100 * d[2] ** 4) if picture == "F_of_q" else lhs / (100 * d[2] ** 8)


def weyl_identity_misses(picture: str, table, points: int, seed: int) -> list:
    """The points, of `points` random ones, where the frame Weyl tensor is not exactly the
    claimed value on the (theta^2, theta^5) slot and 0 on every other slot: [] proves the
    identity for `table` but with probability <= (d / (|S| - 1))^points (see
    WEYL_IDENTITY_DEGREE)."""
    rng = random.Random(seed)
    misses = []
    for k in range(points):
        C, d = exact_frame_weyl(picture, rng)
        want = np.zeros_like(C)
        want[THETA25, THETA25] = claimed_weyl(picture, table, d)
        if not (C == want).all():
            misses.append(k)
    return misses


# --- the 4-metric potential, its connection forms and the twistor coordinate change ---


# holds a Jet1, so it compares and hashes by identity
@dataclass(frozen=True, eq=False)
class PlebanskiData:
    """Data for the 4-metric and its circle bundle.

    H: H(x) = -Theta_xx as a jet in x (every other partial of the potential
    vanishes). point4 = (w, x, y, z), by default (0, x0, 0, 0), with x equal
    to the basepoint x0 of H; xi is the fibre coordinate.
    """

    H: Jet1
    point4: tuple | None = None
    xi: float = 0.0

    def __post_init__(self):
        x0 = float(self.H.basepoint)
        point4 = (0.0, x0, 0.0, 0.0) if self.point4 is None else tuple(float(v) for v in self.point4)
        if abs(point4[1] - x0) > 1e-12:
            raise InvalidParam("point4 x-coordinate must equal the basepoint of H")
        object.__setattr__(self, "point4", point4)
        object.__setattr__(self, "xi", float(self.xi))

    @staticmethod
    def from_spec(spec: SolutionSpec, param_point: float, point4=None, xi: float = 0.0) -> "PlebanskiData":
        if spec.picture != "H_of_t":
            raise InvalidParam("the 4-metric potential needs a dual-picture entry")
        return PlebanskiData(F_jet(spec, param_point), point4, xi)


def twistor_annihilators() -> list:
    """The three annihilator 1-forms over (w, x, y, z, xi), as rows of polynomials in (A, B, xi, t).

    They are dxi - A dz, xi dz + dw and dy - xi dx - B dz, with A and B
    polynomials in xi: A = Theta_xxx + 3 Theta_yxx xi + 3 Theta_yyx xi^2 +
    Theta_yyy xi^3 and B = Theta_xx + 2 Theta_xy xi + Theta_yy xi^2. An
    x-only potential leaves their constant terms, A = -H'(x) and B = -H(x),
    which stand here as the free variables A and B.
    """
    A, B, xi, _ = (Poly.var(4, i) for i in range(4))
    return [[0, 0, 0, -A, 1], [1, 0, 0, xi, 0], [0, -xi, 1, -B, 0]]


def coordinate_change_mismatch(forms) -> list:
    """The (row, column) entries where the changed forms differ from the dual-picture ones.

    Substitutes x -> t, w -> y', z -> x', xi -> -p' and y -> z' - p' t into
    `forms`, rows over d(w, x, y, z, xi), giving rows over
    d(x', y', z', p', t); reduces the third form modulo the first; and
    compares against -dp' - A dx', -p' dx' + dy' and dz' + (t A - B) dx'.
    Every entry is a polynomial in (A, B, xi, t), so [] proves the change
    for every H at once.
    """
    A, B, xi, t = (Poly.var(4, i) for i in range(4))
    p = -xi
    jac = [[0, 1, 0, 0, 0],  # dw = dy'
           [0, 0, 0, 0, 1],  # dx = dt
           [0, 0, 1, -t, -p],  # dy = dz' - t dp' - p' dt
           [1, 0, 0, 0, 0],  # dz = dx'
           [0, 0, 0, -1, 0]]  # dxi = -dp'
    f = [[sum((row[a] * jac[a][b] for a in range(5)), Poly(4)) for b in range(5)] for row in forms]
    f[2] = [u - t * v for u, v in zip(f[2], f[0])]  # eliminate the dp' term using the first form
    target = [[-A, 0, 0, -1, 0], [-p, 1, 0, 0, 0], [t * A - B, 0, 1, 0, 0]]
    return [(r, c) for r in range(3) for c in range(5) if f[r][c] != target[r][c]]


def plebanski_metric(d: PlebanskiData) -> geometry.MatrixJet:
    """g = dw dx + dz dy + H(x) dz^2 as an order-2 jet in (w, x, y, z)."""
    dim = 4
    value = np.zeros((dim, dim))
    grad = np.zeros((dim, dim, dim))
    hess = np.zeros((dim, dim, dim, dim))
    value[0, 1] = value[1, 0] = value[2, 3] = value[3, 2] = 0.5
    c = d.H.coeffs  # H depends on x alone, the coordinate of index 1
    value[3, 3], grad[1, 3, 3], hess[1, 1, 3, 3] = c[0], c[1], 2.0 * c[2]
    return geometry.MatrixJet(value, grad, hess)


def connection_forms(d: PlebanskiData) -> dict:
    """The four displayed connection 1-forms as coefficient rows.

    Rows are coefficients against (dw, dx, dy, dz), each a jet in x.
    With an x-only potential all y-partials vanish, so only the dz
    coefficient of Gamma^3_1 survives: -Theta_xxx = H'.
    """
    H1 = d.H.derivative()
    zero = Jet1(H1.basepoint, np.zeros_like(H1.coeffs))
    return {
        "Gamma^1_1": (zero, zero, zero, zero),
        "Gamma^1_3": (zero, zero, zero, zero),
        "Gamma^3_1": (zero, zero, zero, H1),
        "Gamma^3_3": (zero, zero, zero, zero),
    }


def frame_connection_check(d: PlebanskiData) -> float:
    """Levi-Civita oracle for the displayed connection forms.

    Builds the null frame e_1 = dx-dual, ..., computes
    Gamma^i_j(e_c) = theta^i(nabla_{e_c} e_j) from coordinate
    Christoffel symbols, and returns the max mismatch against
    `connection_forms` evaluated on the same frame.
    """
    Gam = geometry.curvature(plebanski_metric(d)).christoffel
    H0 = d.H.value()
    # frame vectors in coordinates (w, x, y, z)
    e = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],  # e_1, dual to theta^1 = dx
            [1.0, 0.0, 0.0, 0.0],  # e_2, dual to theta^2 = dw
            [0.0, 0.0, 1.0, 0.0],  # e_3, dual to theta^3 = dy + H dz
            [0.0, 0.0, -H0, 1.0],  # e_4, dual to theta^4 = dz
        ]
    )
    # coframe rows theta^i_a
    th = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, H0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    # d_b e_j^a: only e_4^y = -H(x) varies, in x (coordinate index 1)
    de = np.zeros((4, 4, 4))  # [b, j, a]
    de[1, 3, 2] = -d.H.deriv(1)
    # Gamma^i_j(e_c) = theta^i_a e_c^b (d_b e_j^a + Gam[a,b,d] e_j^d)
    nabla = np.einsum("cb,bja->cja", e, de) + np.einsum(
        "cb,abd,jd->cja", e, Gam, e
    )
    conn = np.einsum("ia,cja->ijc", th, nabla)  # Gamma^i_j on e_c
    forms = connection_forms(d)
    slots = {"Gamma^1_1": (0, 0), "Gamma^1_3": (0, 2), "Gamma^3_1": (2, 0), "Gamma^3_3": (2, 2)}
    return max(
        float(np.max(np.abs(conn[i, j] - e @ [c.value() for c in forms[name]])))
        for name, (i, j) in slots.items()
    )


def metric_compatibility_error(g: geometry.MatrixJet) -> float:
    """Max |nabla g| for the Levi-Civita connection computed from g."""
    Gam = geometry.curvature(g).christoffel
    G = g.value
    nabla = (geometry.padded_grad(g) - np.einsum("dca,db->cab", Gam, G)
             - np.einsum("dcb,ad->cab", Gam, G))
    return float(np.max(np.abs(nabla)))
