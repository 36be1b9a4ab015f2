"""Third- through sixth-order ODE residuals and solution builders.

Every residual is relative: |LHS| divided by the largest absolute monomial
appearing in the LHS, and 0 where every monomial vanishes, so a tolerance
check is scale-free.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import DegenerateError, InvalidParam, PoleError
from .jets import (
    Jet1,
    _doubling,
    _factorials,
    _jet,
    _matvec,
    _naturals,
    _shape,
    _toeplitz,
    _unit,
    jet_const,
    jet_log,
    jet_var,
    solve_lower,
)
from .specialfn import relative_residual, schwarz_potential


# Each ODE's left-hand side, rows (coefficient, ((i, e), ...)) for coefficient * (y^(i))**e * ...
SIXTH_ORDER = (
    (10.0, ((6, 1), (2, 3))),
    (-80.0, ((2, 2), (3, 1), (5, 1))),
    (-51.0, ((2, 2), (4, 2))),
    (336.0, ((2, 1), (3, 2), (4, 1))),
    (-224.0, ((3, 4),)),
)
DUAL_SIXTH_ORDER = (
    (10.0, ((2, 3), (6, 1))),
    (-70.0, ((2, 2), (3, 1), (5, 1))),
    (-49.0, ((2, 2), (4, 2))),
    (280.0, ((2, 1), (3, 2), (4, 1))),
    (-175.0, ((3, 4),)),
)


@functools.cache
def _chazy_table(k: Fraction | float) -> tuple:
    """y''' - 2 y'' y + 3 (y')^2 - c (6y' - y^2)^2 with c = 4/(36 - k^2), its last term expanded."""
    k = Fraction(k).limit_denominator(10**6)
    InvalidParam.raise_where(k in (6, -6), "k = +-6 makes the coefficient 4/(36 - k^2) blow up")
    c = Fraction(4) / (36 - k * k)
    return (
        (1.0, ((3, 1),)),
        (-2.0, ((2, 1), (0, 1))),
        (3.0, ((1, 2),)),
        (float(-36 * c), ((1, 2),)),
        (float(12 * c), ((1, 1), (0, 2))),
        (float(-c), ((0, 4),)),
    )


def _monomials(table, d) -> list:
    """Each row's coefficient times its factors d[i]**e, left to right; d[i] = y^(i) at a point or a stack.

    A power of a Python float (one point) rounds as numpy's power of a stack
    does: ** squares an array for e = 2 and calls the power ufunc otherwise,
    whose vectorised pow can differ from the C library's in the last bit. So
    a residual at one point is the one its row of a stack gets.
    """
    out = []
    for m, factors in table:
        for i, e in factors:
            x = d[i]
            if e > 1:
                x = x**e if type(x) is not float else (x * x if e == 2 else float(np.power(x, e)))
            m = m * x
        out.append(m)
    return out


def residual_gen_chazy(y: Jet1, k: Fraction | float) -> float:
    """Relative residual of the generalised Chazy equation with parameter k (see _chazy_table)."""
    return relative_residual(_monomials(_chazy_table(k), y.derivs(4)))


def residual_6th(F: Jet1) -> float:
    """Relative residual of the 6th-order equation satisfied by F(q)."""
    return relative_residual(_monomials(SIXTH_ORDER, F.derivs(7)))


def residual_ds6(H: Jet1) -> float:
    """Relative residual of the dual 6th-order equation satisfied by H(t)."""
    return relative_residual(_monomials(DUAL_SIXTH_ORDER, H.derivs(7)))


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


def schwarz_solution(tr: SchwarzTriple, s0, order: int = 8) -> Jet1:
    """An s(q) jet solving the Schwarzian equation for the triple tr.

    Solves u'' + V(s) u / 4 = 0 once, as a jet in s with (u1, u1') = (1, 0)
    at s0 (one point, or a stack). The solution u2 with data (0.3, 1) has
    Wronskian 1 against u1, so q = u2/u1 sits at q0 = 0.3 and dq/ds = 1/u1^2:
    s(q) solves ds/dq = w(s) with w = u1^2, and by the chain rule
    s^(k+1)(q0) = (w d/ds)^k w at s0: A^k w for the fixed matrix
    A = T(w) diag(1..n) (after a shift), whose powers come by squaring in
    jets._doubling, the loop under jet_compose and jet_invert too.
    Works uniformly in the triple, including (0, 0, 0).
    """
    DegenerateError.raise_where((s0 == 0) | (s0 == 1), "s0 in {0,1}")
    n = max(order, 3)  # w to order n - 1 needs u1 to order n - 1 and V to order n - 3
    V = schwarz_potential(*tr.as_floats(), s0, n - 3).coeffs
    # L u = (1, 0, 0, ...), row k + 2 the coefficient of s^k in u'' + V u / 4:
    # (k+2)(k+1) u_{k+2} + sum_{m <= k} V_m u_{k-m} / 4 = 0
    L = np.zeros(_shape(s0) + (n, n))
    L[..., 2:, :-2] = 0.25 * _toeplitz(V)
    L += _recurrence_diagonal(n)
    u = solve_lower(L, _unit(n))
    w = _matvec(_toeplitz(u), u)
    # A h is w h' truncated to n terms, so column j of H, A^j w, holds (w d/ds)^j w
    # up to s^(n-1-j)
    A = np.zeros_like(L)
    A[..., 1:] = _toeplitz(w)[..., :-1] * _naturals(n - 1)
    H = np.empty(_shape(s0) + (n, order))
    H[..., 0] = w
    _doubling(A, H)
    c = np.empty(_shape(s0) + (order + 1,))
    c[..., 0] = s0
    c[..., 1:] = H[..., 0, :] / _factorials(order + 1)[1:]
    return _jet(np.full(_shape(s0), 0.3)[()], c)


@functools.cache
def _recurrence_diagonal(n: int) -> np.ndarray:
    """The read-only diagonal matrix of schwarz_solution's recurrence: max(k (k - 1), 1) at (k, k)."""
    k = np.arange(n)
    D = np.diag(np.maximum(k * (k - 1), 1.0))
    D.flags.writeable = False
    return D


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
    DegenerateError.raise_where(Fpp.value() == 0, "F'' = 0 at the basepoint")
    sign = np.where(np.real(Fpp.value()) > 0, 1.0, -1.0)
    return 2.0 * jet_log(sign * Fpp).derivative()

