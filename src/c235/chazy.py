"""Third- through sixth-order ODE residuals and solution builders.

Every residual is relative: |LHS| divided by the largest absolute monomial
appearing in the LHS, and 0 where every monomial vanishes, so a tolerance
check is scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import (
    DegenerateError,
    InvalidParam,
    PoleError,
    ZeroDenominatorError,
    ZeroWronskianError,
)
from .jets import (
    Jet1,
    _jet,
    _shape,
    _toeplitz,
    jet_compose,
    jet_const,
    jet_exp,
    jet_invert,
    jet_log,
    jet_var,
    solve_lower,
)
from .specialfn import relative_residual, schwarz_potential


def _pow(x, e: int):
    """x**e as numpy's power of a stack rounds it, also for a Python float.

    On an array, ** squares for e = 2 and calls the power ufunc otherwise,
    whose vectorised pow can differ from the C library's in the last bit;
    a float gets the same two operations, so a residual at one point is
    the one its row of a stack gets.
    """
    if type(x) is not float:
        return x**e
    return x * x if e == 2 else float(np.power(x, e))


@dataclass(frozen=True)
class ChazyParam:
    """The parameter k of the generalised Chazy equation, k != +-6."""

    k: Fraction

    def __post_init__(self):
        k = Fraction(self.k)
        if k in (6, -6):
            raise InvalidParam("k = +-6 makes the coefficient 4/(36 - k^2) blow up")
        object.__setattr__(self, "k", k)

    @property
    def coeff(self) -> float:
        return float(Fraction(4, 1) / (36 - self.k * self.k))


@dataclass(frozen=True)
class SchwarzTriple:
    """Exponent parameters (alpha, beta, gamma) of the Schwarzian potential."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        # once per triple: schwarz_solution reads them on every call
        object.__setattr__(self, "_floats", (float(self.alpha), float(self.beta), float(self.gamma)))

    def __iter__(self):
        return iter((self.alpha, self.beta, self.gamma))

    def as_floats(self) -> Tuple[float, float, float]:
        return self._floats


def residual_chazy(y: Jet1) -> float:
    """Relative residual of y''' - 2 y y'' + 3 (y')^2."""
    y0, y1, y2, y3 = y.derivs(4)
    return relative_residual([y3, -2.0 * y0 * y2, 3.0 * y1 * y1])


def residual_gen_chazy(y: Jet1, k: ChazyParam | Fraction | float) -> float:
    """Relative residual of y''' - 2 y'' y + 3 (y')^2 - c (6y' - y^2)^2."""
    if not isinstance(k, ChazyParam):
        k = ChazyParam(Fraction(k).limit_denominator(10**6))
    y0, y1, y2, y3 = y.derivs(4)
    return relative_residual(
        [y3, -2.0 * y2 * y0, 3.0 * y1 * y1, -k.coeff * _pow(6.0 * y1 - y0 * y0, 2)]
    )


def residual_6th(F: Jet1) -> float:
    """Relative residual of the 6th-order equation satisfied by F(q)."""
    d = F.derivs(7)
    return relative_residual(
        [
            10.0 * d[6] * _pow(d[2], 3),
            -80.0 * _pow(d[2], 2) * d[3] * d[5],
            -51.0 * _pow(d[2], 2) * _pow(d[4], 2),
            336.0 * d[2] * _pow(d[3], 2) * d[4],
            -224.0 * _pow(d[3], 4),
        ]
    )


def ds6_monomials(d) -> list:
    """The monomials of the dual 6th-order LHS, from d[i] = H^(i) at a point."""
    return [
        10.0 * _pow(d[2], 3) * d[6],
        -70.0 * _pow(d[2], 2) * d[3] * d[5],
        -49.0 * _pow(d[2], 2) * _pow(d[4], 2),
        280.0 * d[2] * _pow(d[3], 2) * d[4],
        -175.0 * _pow(d[3], 4),
    ]


def residual_ds6(H: Jet1) -> float:
    """Relative residual of the dual 6th-order equation satisfied by H(t)."""
    return relative_residual(ds6_monomials(H.derivs(7)))


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


def schwarz_solution(tr: SchwarzTriple, s0, order: int = 8) -> Jet1:
    """An s(q) jet solving the Schwarzian equation for the triple tr.

    Solves u'' + V(s) u / 4 = 0 twice, as jets in s with the initial data
    (u1, u1', u2, u2') = (1, 0, 0.3, 1) at s0 (one point, or a stack), a
    pair of Wronskian 1, forms q(s) = u2/u1 and inverts. Works uniformly
    in the triple, including (0, 0, 0).
    """
    DegenerateError.raise_where((s0 == 0) | (s0 == 1), "s0 in {0,1}")
    n = order + 2
    V = schwarz_potential(*tr.as_floats(), s0, n).coeffs
    # L u = (u_0, u_1, 0, ...), row k + 2 the coefficient of s^k in u'' + V u / 4:
    # (k+2)(k+1) u_{k+2} + sum_{m <= k} V_m u_{k-m} / 4 = 0
    k = np.arange(n + 1)
    L = np.zeros(_shape(s0) + (n + 1, n + 1))
    L[..., 2:, :-2] = 0.25 * _toeplitz(V[..., :-2])
    L[..., k, k] = np.maximum(k * (k - 1), 1)
    # both solutions in one solve, along an axis before the coefficients
    r = np.zeros((2, n + 1))
    r[:, :2] = ((1.0, 0.0), (0.3, 1.0))
    u = solve_lower(L[..., None, :, :], r)
    ua, ub = _jet(s0, u[..., 0, :]), _jet(s0, u[..., 1, :])
    return jet_invert((ub / ua).truncate(order))


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


def two_pole_solution(k: Fraction | float, B: float, C: float, x0, order: int = 6) -> Jet1:
    """Jet of (k-6)/(2(x+C)) - (k+6)/(2(x+B)) at x0 (one point, or a stack)."""
    kf = float(k)
    PoleError.raise_where((x0 == -B) | (x0 == -C), "basepoint sits on a pole")
    x = jet_var(x0, order)
    one = jet_const(1.0, x0, order)
    return 0.5 * (kf - 6.0) * one / (x + C) - 0.5 * (kf + 6.0) * one / (x + B)


def reduce_F_to_I(F: Jet1) -> Jet1:
    """I = 2 d/dq log|F''| as a jet (one order lower than F'')."""
    Fpp = F.derivative().derivative()
    if Fpp.value() == 0:
        raise DegenerateError("F'' = 0 at the basepoint")
    sign = 1.0 if np.real(Fpp.value()) > 0 else -1.0
    return 2.0 * jet_log(sign * Fpp).derivative()


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
