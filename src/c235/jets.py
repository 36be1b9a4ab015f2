"""Truncated Taylor-series (jet) arithmetic.

Jet1 is a univariate truncated Taylor expansion at a basepoint, stored in
*Taylor coefficient* normalisation: ``coeffs[k] = f^(k)(x0) / k!``.  All
arithmetic propagates derivatives exactly to the truncation order; results
of binary operations are truncated to the shorter operand.

MJet2 is a multivariate order-2 jet (value, gradient, symmetric hessian)
used for the metric/curvature pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    BasepointMismatch,
    BranchError,
    DivisionByZeroJet,
    NonInvertibleJet,
    StencilEvaluationError,
)

MAX_ORDER = 8

Scalar = Union[int, float, complex]


def _as_coeffs(values: Sequence[Scalar]) -> np.ndarray:
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        return arr.astype(complex)
    return arr.astype(float)


@dataclass(frozen=True)
class Jet1:
    """Truncated Taylor expansion of a scalar function at ``basepoint``."""

    basepoint: Scalar
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))
        if self.order < 0:
            raise ValueError("jet needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.coeffs)

    def value(self) -> Scalar:
        return self.coeffs[0]

    def deriv(self, k: int = 1) -> Scalar:
        """k-th derivative at the basepoint (coefficient times k!)."""
        if k > self.order:
            raise IndexError(f"jet of order {self.order} has no derivative {k}")
        return self.coeffs[k] * math.factorial(k)

    def truncate(self, order: int) -> "Jet1":
        if order >= self.order:
            return self
        return Jet1(self.basepoint, self.coeffs[: order + 1])

    def derivative(self) -> "Jet1":
        """Formal derivative; drops one order."""
        if self.order == 0:
            return Jet1(self.basepoint, [0.0 * self.coeffs[0]])
        k = np.arange(1, self.order + 1)
        return Jet1(self.basepoint, self.coeffs[1:] * k)

    def antiderivative(self, constant: Scalar = 0.0) -> "Jet1":
        """Termwise antiderivative with value ``constant`` at the basepoint.

        Result order grows by one, capped at MAX_ORDER.
        """
        k = np.arange(1, self.order + 2)
        out = np.concatenate(([constant], self.coeffs / k))
        return Jet1(self.basepoint, out[: MAX_ORDER + 1])

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate the truncated polynomial at ``x``."""
        dx = x - self.basepoint
        return np.polyval(self.coeffs[::-1], dx)

    # --- arithmetic -------------------------------------------------

    def _coerce(self, other) -> "Jet1":
        if isinstance(other, Jet1):
            if other.basepoint != self.basepoint:
                raise BasepointMismatch(
                    f"basepoints differ: {self.basepoint} vs {other.basepoint}"
                )
            return other
        return jet_const(other, self.basepoint, self.order)

    def __add__(self, other) -> "Jet1":
        o = self._coerce(other)
        n = min(self.order, o.order)
        return Jet1(self.basepoint, self.coeffs[: n + 1] + o.coeffs[: n + 1])

    __radd__ = __add__

    def __neg__(self) -> "Jet1":
        return Jet1(self.basepoint, -self.coeffs)

    def __sub__(self, other) -> "Jet1":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Jet1":
        return (-self) + other

    def __mul__(self, other) -> "Jet1":
        if not isinstance(other, Jet1):
            return Jet1(self.basepoint, self.coeffs * other)
        o = self._coerce(other)
        n = min(self.order, o.order)
        a, b = self.coeffs[: n + 1], o.coeffs[: n + 1]
        out = np.convolve(a, b)[: n + 1]
        return Jet1(self.basepoint, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet1":
        if not isinstance(other, Jet1):
            return Jet1(self.basepoint, self.coeffs / other)
        o = self._coerce(other)
        if o.coeffs[0] == 0:
            raise DivisionByZeroJet("division by a jet with zero value")
        n = min(self.order, o.order)
        a, b = self.coeffs, o.coeffs
        h = np.zeros(n + 1, dtype=np.result_type(a, b))
        for k in range(n + 1):
            acc = a[k] if k <= self.order else 0.0
            acc = acc - np.dot(h[:k], b[k:0:-1])
            h[k] = acc / b[0]
        return Jet1(self.basepoint, h)

    def __rtruediv__(self, other) -> "Jet1":
        return self._coerce(other) / self

    def __pow__(self, e) -> "Jet1":
        if isinstance(e, int):
            return jet_pow_int(self, e)
        return jet_pow(self, e)


def jet_const(value: Scalar, basepoint: Scalar, order: int) -> Jet1:
    c = np.zeros(order + 1, dtype=complex if isinstance(value, complex) else float)
    c[0] = value
    return Jet1(basepoint, c)


def jet_var(basepoint: Scalar, order: int = MAX_ORDER) -> Jet1:
    """Jet of the identity function x at ``basepoint``."""
    c = np.zeros(order + 1, dtype=complex if isinstance(basepoint, complex) else float)
    c[0] = basepoint
    if order >= 1:
        c[1] = 1.0
    return Jet1(basepoint, c)


def jet_pow_int(f: Jet1, e: int) -> Jet1:
    if e == 0:
        return jet_const(1.0, f.basepoint, f.order)
    if e < 0:
        return jet_const(1.0, f.basepoint, f.order) / jet_pow_int(f, -e)
    out = f
    for _ in range(e - 1):
        out = out * f
    return out


def jet_exp(f: Jet1) -> Jet1:
    n = f.order
    g = np.zeros(n + 1, dtype=complex if f.is_complex else float)
    g[0] = np.exp(f.coeffs[0])
    for k in range(1, n + 1):
        j = np.arange(1, k + 1)
        g[k] = np.dot(j * f.coeffs[1 : k + 1], g[k - 1 :: -1][: k]) / k
    return Jet1(f.basepoint, g)


def jet_log(f: Jet1) -> Jet1:
    """log f; the principal branch for complex jets."""
    c0 = f.coeffs[0]
    if c0 == 0:
        raise DivisionByZeroJet("log of a jet with zero value")
    if not f.is_complex and c0 < 0:
        raise BranchError("log of a negative real jet")
    n = f.order
    g = np.zeros(n + 1, dtype=complex if f.is_complex else float)
    g[0] = np.log(c0)
    for k in range(1, n + 1):
        acc = f.coeffs[k]
        if k >= 2:
            j = np.arange(1, k)
            acc = acc - np.dot(j * g[1:k], f.coeffs[k - 1 : 0 : -1]) / k
        g[k] = acc / c0
    return Jet1(f.basepoint, g)


def jet_pow(f: Jet1, e) -> Jet1:
    """f**e for a real (or Fraction) exponent.

    Real branch rule: a negative base is accepted only for Fraction
    exponents p/q with q odd, where the real q-th root is used; other
    negative-base cases raise BranchError.  Complex jets use the
    principal branch.
    """
    c0 = f.coeffs[0]
    if isinstance(e, Fraction) and e.denominator == 1:
        return jet_pow_int(f, int(e))
    if f.is_complex or c0 > 0:
        return jet_exp(jet_log(f) * float(e))
    if c0 == 0:
        raise DivisionByZeroJet("fractional power of a jet with zero value")
    # negative base
    if isinstance(e, Fraction) and e.denominator % 2 == 1:
        sign = -1.0 if e.numerator % 2 else 1.0
        return sign * jet_exp(jet_log(-f) * float(e))
    raise BranchError(f"negative base with exponent {e} has no real branch")


def jet_abs_pow(f: Jet1, e) -> Jet1:
    """|f|**e, real: equals f**e up to a constant factor for f < 0.

    Legitimate only where a constant rescaling is harmless (solutions of
    linear homogeneous ODEs, arguments of degree-homogeneous residuals).
    """
    if f.is_complex:
        raise BranchError("abs-power is a real-jet operation")
    if f.coeffs[0] == 0:
        raise DivisionByZeroJet("fractional power of a jet with zero value")
    g = f if f.coeffs[0] > 0 else -f
    return jet_exp(jet_log(g) * float(e))


def jet_sqrt(f: Jet1) -> Jet1:
    if f.is_complex:
        return jet_pow(f, 0.5)
    if f.coeffs[0] <= 0:
        raise BranchError("sqrt of a non-positive real jet")
    return jet_exp(jet_log(f) * 0.5)


def jet_compose(outer: Jet1, inner: Jet1, tol: float = 1e-9) -> Jet1:
    """Jet of outer(inner(x)) at inner's basepoint.

    Requires inner.value() == outer.basepoint.
    """
    if abs(inner.coeffs[0] - outer.basepoint) > tol * max(1.0, abs(outer.basepoint)):
        raise BasepointMismatch(
            f"inner value {inner.coeffs[0]} != outer basepoint {outer.basepoint}"
        )
    n = min(outer.order, inner.order)
    u = inner.coeffs[: n + 1].copy()
    u[0] = 0.0  # inner - u0
    dtype = np.result_type(outer.coeffs, u)
    # Horner on the truncated polynomial of outer coefficients
    acc = np.zeros(n + 1, dtype=dtype)
    for k in range(n, -1, -1):
        acc = np.convolve(acc, u)[: n + 1]
        acc[0] += outer.coeffs[k]
    return Jet1(inner.basepoint, acc)


def jet_invert(f: Jet1) -> Jet1:
    """Functional inverse series: g with g(f(x)) = x to truncation order."""
    if f.order < 1 or f.coeffs[1] == 0:
        raise NonInvertibleJet("jet has vanishing first derivative")
    n = f.order
    dtype = f.coeffs.dtype
    F = f.coeffs.copy()
    F[0] = 0.0
    # powers of F
    powers = [np.zeros(n + 1, dtype=dtype)]
    powers[0][0] = 1.0
    for j in range(1, n + 1):
        powers.append(np.convolve(powers[-1], F)[: n + 1])
    g = np.zeros(n + 1, dtype=dtype)
    g[0] = f.basepoint
    g[1] = 1.0 / F[1]
    for k in range(2, n + 1):
        acc = 0.0
        for j in range(1, k):
            acc = acc + g[j] * powers[j][k]
        g[k] = -acc / (F[1] ** k)
    return Jet1(f.coeffs[0], g)


# --- finite-difference oracle (tests only) --------------------------


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


def derivative_oracle(
    f: Callable[[float], float], x0: float, order: int, h: float | None = None
) -> float:
    """Central finite-difference estimate of f^(order)(x0).

    Independent of the jet arithmetic; used as the brute-force oracle.
    With the default step the stencil spans at most 0.75 * max(|x0|, 1)
    on each side and three step sizes are combined by Richardson
    extrapolation. Passing an explicit h uses a single stencil.
    """
    if order == 0:
        return f(x0)
    if order > 6:
        raise ValueError("oracle supports derivative orders <= 6")
    m = order // 2 + 2  # stencil half-width; extra points raise the FD order
    if h is not None:
        return _fd_apply(f, x0, order, m, h)
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


# --- multivariate order-2 jets ---------------------------------------


@dataclass(frozen=True)
class MJet2:
    """Order-2 multivariate jet: value, gradient, symmetric hessian. Jets at N points
    stack on a leading axis: value (N,), gradient (N, dim), hessian (N, dim, dim)."""

    value: float | np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gradient", np.asarray(self.gradient, dtype=float))
        object.__setattr__(self, "hessian", np.asarray(self.hessian, dtype=float))

    @property
    def dim(self) -> int:
        return self.gradient.shape[-1]

    @staticmethod
    def constant(value: float, dim: int) -> "MJet2":
        return MJet2(float(value), np.zeros(dim), np.zeros((dim, dim)))

    @staticmethod
    def coordinate(value: float, axis: int, dim: int) -> "MJet2":
        g = np.zeros(dim)
        g[axis] = 1.0
        return MJet2(float(value), g, np.zeros((dim, dim)))

    @staticmethod
    def from_jet1(jet, axis: int, dim: int) -> "MJet2":
        """Embed a univariate jet (order >= 2), or its coefficients (..., order + 1), on an axis."""
        c = jet.coeffs if isinstance(jet, Jet1) else np.asarray(jet)
        if c.shape[-1] < 3:
            raise ValueError("need a univariate jet of order >= 2")
        if c.dtype.kind == "c":
            raise ValueError("metric coefficients must be real jets")
        g = np.zeros(c.shape[:-1] + (dim,))
        g[..., axis] = c[..., 1]
        h = np.zeros(c.shape[:-1] + (dim, dim))
        h[..., axis, axis] = 2.0 * c[..., 2]
        return MJet2(c[..., 0], g, h)

    def _coerce(self, other) -> "MJet2":
        if isinstance(other, MJet2):
            return other
        return MJet2.constant(float(other), self.dim)

    def __add__(self, other) -> "MJet2":
        o = self._coerce(other)
        return MJet2(self.value + o.value, self.gradient + o.gradient, self.hessian + o.hessian)

    __radd__ = __add__

    def __neg__(self) -> "MJet2":
        return MJet2(-self.value, -self.gradient, -self.hessian)

    def __sub__(self, other) -> "MJet2":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MJet2":
        return (-self) + other

    def __mul__(self, other) -> "MJet2":
        if not isinstance(other, MJet2):
            return MJet2(self.value * other, self.gradient * other, self.hessian * other)
        a, b = self, other
        av, bv = np.asarray(a.value)[..., None], np.asarray(b.value)[..., None]
        outer = a.gradient[..., :, None] * b.gradient[..., None, :]
        return MJet2(
            a.value * b.value,
            av * b.gradient + bv * a.gradient,
            av[..., None] * b.hessian + bv[..., None] * a.hessian
            + outer + outer.swapaxes(-1, -2),
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "MJet2":
        if (np.asarray(self.value) == 0).any():
            raise DivisionByZeroJet("reciprocal of a zero-valued multivariate jet")
        v = 1.0 / self.value
        v1, v3 = np.asarray(v)[..., None], np.asarray(v**3)[..., None, None]
        g = -self.gradient * v1 * v1
        outer = self.gradient[..., :, None] * self.gradient[..., None, :]
        h = -self.hessian * v1[..., None] * v1[..., None] + 2.0 * v3 * outer
        return MJet2(v, g, h)

    def __truediv__(self, other) -> "MJet2":
        o = self._coerce(other)
        return self * o.reciprocal()

    def __rtruediv__(self, other) -> "MJet2":
        return self._coerce(other) * self.reciprocal()

