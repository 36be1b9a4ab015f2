"""Truncated Taylor-series (jet) arithmetic.

Jet1 is a univariate truncated Taylor expansion at a basepoint, stored in
*Taylor coefficient* normalisation: ``coeffs[k] = f^(k)(x0) / k!``.  All
arithmetic propagates derivatives exactly to the truncation order; results
of binary operations are truncated to the shorter operand. Jets at N
basepoints stack on a leading point axis (basepoint (N,), coeffs
(N, order + 1)), and every kernel acts on either shape row by row: a
product is a lower-triangular Toeplitz matmul; a quotient, power or series
inverse a triangular solve of its recurrence (Taylor-mode propagation
vectorised over base points). A test that depends on values
raises its error where it holds, with the mask of those rows as the
error's `rows`, and formats its message only then. It reads the leading
coefficients as coeffs.T[0]: a row on a stack, a numpy scalar at one
point, where coeffs[..., 0] would be a 0-d array and each test a ufunc
call. Jet1.derivs reads the derivatives a residual needs at once, as
Python floats at one real point.

What a caller supplies is coerced and checked: the coefficients given to
Jet1(...), jet_const and jet_var, the order given to truncate, and a
scalar or per-row operand of +, -, * and /, on either side, which
`_operand` turns into float64 or complex128. A kernel's result is an array
the kernel has just computed from such values, so `_jet` makes it a Jet1
without coercing and checking it again. The constant tables the kernels
read (Toeplitz indices, 1..n, power weights) are built once per order.

MJet2 is an order-2 jet in the frame variable lam, packed in one array
(..., 3) as (value, d/dlam, d2/dlam2): the coframe coefficients of the
metric/curvature pipeline depend on lam alone. A product is one outer
product of the packed operands times the constant table _PRODUCT, with one
entry per term of the product rule; the reciprocal is a power series on
that product. MJet2 runs on float64 arrays and on object arrays of exact
numbers (Fractions) alike: each constant table has an exact copy, which an
object array is multiplied by, so a Fraction never meets a float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    BasepointMismatch,
    BranchError,
    DivisionByZeroJet,
    NonInvertibleJet,
)

MAX_ORDER = 8

Scalar = Union[int, float, complex]


def _as_coeffs(values: Sequence[Scalar]) -> np.ndarray:
    arr = np.asarray(values)
    return arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)


def _shape(x) -> tuple:
    """np.shape(x), without its array conversion for a Python float (one point)."""
    return () if type(x) is float else np.shape(x)


def _operand(x):
    """A scalar or per-row operand of +, -, * or / as a Python number, or as float64 or complex128.

    A Fraction, a numpy scalar of another type or an array (one number per
    row) is converted; int, float and complex, numpy's float64 and
    complex128 among them, already act as float64 or complex128 against
    coefficients.
    """
    if isinstance(x, (int, float, complex)):
        return x
    x = np.asarray(x)
    x = x.astype(complex if x.dtype.kind == "c" else float, copy=False)
    return x if x.ndim else x[()]


def _per_row(x):
    """A plain number as is; an array of one number per row against coefficient rows."""
    return x[..., None] if isinstance(x, np.ndarray) else x


@functools.cache
def _toeplitz_index(n: int):
    """(index, mask) with c[..., index] * mask the lower-triangular Toeplitz matrix of c."""
    d = np.subtract.outer(np.arange(n), np.arange(n))
    return np.maximum(d, 0), (d >= 0).astype(float)


@functools.cache
def _naturals(n: int) -> np.ndarray:
    """The read-only vector 1, 2, ..., n."""
    k = np.arange(1.0, n + 1)
    k.flags.writeable = False
    return k


@functools.cache
def _factorials(n: int) -> np.ndarray:
    """The read-only vector 0!, 1!, ..., (n - 1)!."""
    f = np.array([math.factorial(k) for k in range(n)], dtype=float)
    f.flags.writeable = False
    return f


@functools.cache
def _unit(n: int) -> np.ndarray:
    e = np.zeros(n)
    e[0] = 1.0
    return e


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrices T of c (..., n): T @ x is c x truncated to n terms."""
    index, mask = _toeplitz_index(c.shape[-1])
    return c.take(index, axis=-1) * mask


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (M @ x[..., None])[..., 0]


def solve_lower(L: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x with L x = r, for lower-triangular L (..., n, n) and r (..., n).

    LAPACK's solve pivots, and on a lower-triangular matrix whose entries
    below the diagonal outgrow it that costs digits. With rows and columns
    reversed the matrix is upper triangular, where no row swap can happen:
    the solve is then exactly substitution, as in the series recurrences.
    """
    return np.linalg.solve(L[..., ::-1, ::-1], r[..., ::-1, None])[..., ::-1, 0]


def _doubling(M: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out's columns 1..k-1 with M v, ..., M**(k-1) v, v its column 0, in place; return out.

    Columns m..2m-1 are M**m times columns 0..m-1, with M**m by squaring.
    The caller allocates out (..., n, k), in the dtype it wants.
    """
    k = out.shape[-1]
    m = 1
    while m < k:
        j = min(m, k - m)
        out[..., m : m + j] = M @ out[..., :j]
        m *= 2
        if m < k:
            M = M @ M
    return out


def _powers(u: np.ndarray) -> np.ndarray:
    """(..., n, n) matrices whose column j holds the coefficients of u**j, for u (..., n)."""
    n = u.shape[-1]
    P = np.zeros(u.shape + (n,), u.dtype)
    P[..., 0, 0] = 1.0
    return _doubling(_toeplitz(u), P)


# compared and hashed by identity: == of its arrays would have no truth value
@dataclass(frozen=True, eq=False)
class Jet1:
    """Truncated Taylor expansion of a scalar function at ``basepoint``.

    With a leading point axis, basepoint is (N,) and coeffs (N, order + 1).
    """

    basepoint: Scalar | np.ndarray
    coeffs: np.ndarray
    # an array operand on the left leaves the operator to Jet1's reflected method,
    # as a number does, instead of numpy applying it element by element
    __array_ufunc__ = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeffs(self.coeffs))
        if self.order < 0:
            raise ValueError("jet needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def is_complex(self) -> bool:
        return self.coeffs.dtype.kind == "c"

    def value(self) -> Scalar | np.ndarray:
        return self.coeffs.T[0]

    def deriv(self, k: int = 1) -> Scalar | np.ndarray:
        """k-th derivative at the basepoint (coefficient times k!)."""
        if k > self.order:
            raise IndexError(f"jet of order {self.order} has no derivative {k}")
        return self.coeffs.T[k] * math.factorial(k)

    def derivs(self, n: int) -> list:
        """deriv(0), ..., deriv(n - 1), read at once as coeffs[..., :n] * k!: Python floats
        at one real basepoint, one row of values per derivative on a stack."""
        if n > self.order + 1:
            raise IndexError(f"jet of order {self.order} has no derivative {n - 1}")
        d = self.coeffs[..., :n] * _factorials(n)
        return d.tolist() if d.ndim == 1 and not self.is_complex else list(d.T)

    def truncate(self, order: int) -> "Jet1":
        if order >= self.order:
            return self
        if order < 0:
            raise ValueError("jet needs at least the constant coefficient")
        return _jet(self.basepoint, self.coeffs[..., : order + 1])

    def derivative(self) -> "Jet1":
        """Formal derivative; drops one order."""
        if self.order == 0:
            return _jet(self.basepoint, 0.0 * self.coeffs)
        return _jet(self.basepoint, self.coeffs[..., 1:] * _naturals(self.order))

    def antiderivative(self, constant: Scalar | np.ndarray = 0.0) -> "Jet1":
        """Termwise antiderivative with value ``constant`` at the basepoint.

        Result order grows by one, capped at MAX_ORDER.
        """
        n = min(self.order + 1, MAX_ORDER)
        constant = _operand(constant)
        out = np.empty(self.coeffs.shape[:-1] + (n + 1,), _result_type(self.coeffs, constant))
        out[..., 0] = constant
        out[..., 1:] = self.coeffs[..., :n] / _naturals(n)
        return _jet(self.basepoint, out)

    # --- arithmetic -------------------------------------------------

    def _coerce(self, other) -> "Jet1":
        if isinstance(other, Jet1):
            if other.basepoint is not self.basepoint:
                BasepointMismatch.raise_where(other.basepoint != self.basepoint, "basepoints differ")
            return other
        return jet_const(_operand(other), self.basepoint, self.order)

    def __add__(self, other) -> "Jet1":
        if not isinstance(other, Jet1):
            other = _operand(other)
            out = self.coeffs.astype(_result_type(self.coeffs, other))
            out[..., 0] += other
            return _jet(self.basepoint, out)
        o = self._coerce(other)
        n = min(self.order, o.order)
        return _jet(self.basepoint, self.coeffs[..., : n + 1] + o.coeffs[..., : n + 1])

    __radd__ = __add__

    def __neg__(self) -> "Jet1":
        return _jet(self.basepoint, -self.coeffs)

    def __sub__(self, other) -> "Jet1":
        return self + -(other if isinstance(other, Jet1) else _operand(other))

    def __rsub__(self, other) -> "Jet1":
        return (-self) + other

    def __mul__(self, other) -> "Jet1":
        if not isinstance(other, Jet1):
            return _jet(self.basepoint, self.coeffs * _per_row(_operand(other)))
        o = self._coerce(other)
        n = min(self.order, o.order)
        return _jet(self.basepoint, _matvec(_toeplitz(o.coeffs[..., : n + 1]), self.coeffs[..., : n + 1]))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet1":
        if not isinstance(other, Jet1):
            return _jet(self.basepoint, self.coeffs / _per_row(_operand(other)))
        o = self._coerce(other)
        DivisionByZeroJet.raise_where(o.coeffs.T[0] == 0, "division by a jet with zero value")
        n = min(self.order, o.order)
        T = _toeplitz(o.coeffs[..., : n + 1])
        return _jet(self.basepoint, solve_lower(T, self.coeffs[..., : n + 1]))

    def __rtruediv__(self, other) -> "Jet1":
        return self._coerce(other) / self

    def __pow__(self, e) -> "Jet1":
        if isinstance(e, int):
            return jet_pow_int(self, e)
        return jet_pow(self, e)


def _jet(basepoint, coeffs: np.ndarray) -> Jet1:
    """A kernel's result, from the float64 or complex128 coefficients it has just
    computed: a Jet1 built without __init__'s coercion and checks."""
    jet = object.__new__(Jet1)
    fields = jet.__dict__
    fields["basepoint"] = basepoint
    fields["coeffs"] = coeffs
    return jet


def _result_type(coeffs: np.ndarray, x):
    """The dtype of coeffs combined with the operand x; coeffs' own for a Python float."""
    return coeffs.dtype if type(x) is float else np.result_type(coeffs, x)


def _zeros(basepoint, order: int, value) -> np.ndarray:
    """Zero coefficients for jets of `order` at basepoint, complex where value is."""
    if order < 0:
        raise ValueError("jet needs at least the constant coefficient")
    real = type(value) is float or not np.iscomplexobj(value)
    return np.zeros(_shape(basepoint) + (order + 1,), float if real else complex)


def jet_const(value: Scalar | np.ndarray, basepoint: Scalar | np.ndarray, order: int) -> Jet1:
    c = _zeros(basepoint, order, value)
    c[..., 0] = value
    return _jet(basepoint, c)


def jet_var(basepoint: Scalar | np.ndarray, order: int = MAX_ORDER) -> Jet1:
    """Jet of the identity function x at ``basepoint`` (one or a stack of points)."""
    c = _zeros(basepoint, order, basepoint)
    c[..., 0] = basepoint
    if order >= 1:
        c[..., 1] = 1.0
    return _jet(basepoint, c)


def jet_pow_int(f: Jet1, e: int) -> Jet1:
    if e == 0:
        return jet_const(1.0, f.basepoint, f.order)
    if e < 0:
        return jet_const(1.0, f.basepoint, f.order) / jet_pow_int(f, -e)
    out = f
    for _ in range(e - 1):
        out = out * f
    return out


def jet_log(f: Jet1) -> Jet1:
    """log f; the principal branch for complex jets."""
    c0 = f.coeffs.T[0]
    DivisionByZeroJet.raise_where(c0 == 0, "log of a jet with zero value")
    if not f.is_complex:
        BranchError.raise_where(c0 < 0, "log of a negative real jet")
    n = f.order
    g = np.empty_like(f.coeffs)
    g[..., 0] = np.log(f.coeffs[..., 0])
    g[..., 1:] = (f.derivative() / f).coeffs[..., :n] / _naturals(n)
    return _jet(f.basepoint, g)


@functools.cache
def _power_weights(e: float, n: int) -> np.ndarray:
    """W[k, m] = m - e (k - m), with W[0, 0] = 1."""
    k = np.arange(n)
    W = np.subtract.outer(-e * k, -(1.0 + e) * k)
    W[0, 0] = 1.0
    return W


def _power_series(f: Jet1, e: float, g0) -> Jet1:
    """The jet g with g(x0) = g0 and f g' = e f' g: f**e, on the branch g0 picks.

    Row k >= 1 of the triangular system is sum_m f_{k-m} (m - e (k - m)) g_m = 0.
    """
    n = f.order + 1
    L = _toeplitz(f.coeffs) * _power_weights(e, n)
    L[..., 0, 0] = 1.0
    return _jet(f.basepoint, _per_row(g0) * solve_lower(L, _unit(n)))


def real_branch_power(lead, e):
    """lead**e for the leading coefficients lead of a real jet (one point, or a row per point).

    Real branch rule: a positive base takes the real power; a negative
    base is accepted only for Fraction exponents p/q with q odd, where the
    real q-th root is used; other negative-base cases raise BranchError.
    """
    odd_root = isinstance(e, Fraction) and e.denominator % 2 == 1
    if not odd_root:
        BranchError.raise_where(lead < 0, lambda: f"negative base with exponent {e} has no real branch")
    # |lead|**e by the power ufunc at one point too: ** of a float or of a numpy
    # scalar calls the C library's pow, which can round differently from a stack's
    g0 = np.power(abs(lead), float(e))
    if odd_root and e.numerator % 2:  # the real odd root keeps the sign of the base
        g0 = g0 * np.sign(lead) if isinstance(lead, np.ndarray) else (-g0 if lead < 0 else g0)
    return g0


def jet_pow(f: Jet1, e) -> Jet1:
    """f**e for a real (or Fraction) exponent, the package's one real-power kernel.

    A real jet starts on the branch real_branch_power picks; complex jets
    use the principal branch.
    """
    if isinstance(e, Fraction) and e.denominator == 1:
        return jet_pow_int(f, int(e))
    lead = f.coeffs.T[0]
    DivisionByZeroJet.raise_where(lead == 0, "fractional power of a jet with zero value")
    if f.is_complex:
        return _power_series(f, float(e), np.power(lead, float(e)))
    return _power_series(f, float(e), real_branch_power(lead, e))


def jet_compose(outer: Jet1, inner: Jet1) -> Jet1:
    """Jet of outer(inner(x)) at inner's basepoint.

    Requires inner.value() == outer.basepoint, to a relative 1e-9.
    """
    x0 = outer.basepoint
    BasepointMismatch.raise_where(
        abs(inner.coeffs.T[0] - x0) > 1e-9 * np.maximum(1.0, abs(x0)),
        "inner value differs from the outer basepoint",
    )
    n = min(outer.order, inner.order)
    u = inner.coeffs[..., : n + 1].copy()
    u[..., 0] = 0.0  # inner - u0
    return _jet(inner.basepoint, _matvec(_powers(u), outer.coeffs[..., : n + 1]))


def jet_invert(f: Jet1) -> Jet1:
    """Functional inverse series: g with g(f(x)) = x to truncation order."""
    if f.order < 1:
        raise NonInvertibleJet("jet has vanishing first derivative")
    NonInvertibleJet.raise_where(f.coeffs.T[1] == 0, "jet has vanishing first derivative")
    n = f.order
    F = f.coeffs.copy()
    F[..., 0] = 0.0
    # sum_j g_j [F^j]_k = [k == 1] for k >= 1, triangular since F^j starts at x^j
    g = np.empty_like(F)
    g[..., 0] = f.basepoint
    g[..., 1:] = solve_lower(_powers(F)[..., 1:, 1:], _unit(n))
    return _jet(f.value(), g)


# --- order-2 jets in lam ---------------------------------------------


def _float_copy(exact: np.ndarray) -> np.ndarray:
    """The float64 copy of a table of exact numbers, read-only: each entry correctly rounded.

    A constant table is written once in exact numbers (ints, Fractions), as an
    object array that multiplies object arrays of exact numbers; a Fraction
    times a float is a float, even where the float is 1.0. Float arrays are
    multiplied by this copy.
    """
    floats = exact.astype(float)
    floats.flags.writeable = False
    return floats


# the packed a b is the flattened outer(a, b) times _PRODUCT, one entry per term of
# the product rule c = a b, c' = a b' + a' b, c'' = a b'' + a'' b + 2 a' b'
_PRODUCT_EXACT = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                           [0, 1, 0], [0, 0, 2], [0, 0, 0],
                           [0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=object)
_PRODUCT = _float_copy(_PRODUCT_EXACT)
# the first three Taylor coefficients times _TO_DERIVATIVES are the value, d/dlam and d2/dlam2
_TO_DERIVATIVES_EXACT = np.array([1, 1, 2], dtype=object)
_TO_DERIVATIVES = _float_copy(_TO_DERIVATIVES_EXACT)


def _to_derivatives(c: np.ndarray) -> np.ndarray:
    """The value, d/dlam and d2/dlam2 (..., 3) from Taylor coefficients c (..., >= 3), in c's number type."""
    return c[..., :3] * (_TO_DERIVATIVES_EXACT if c.dtype == object else _TO_DERIVATIVES)


def _packed_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    outer = a[..., None] * b[..., None, :]
    return outer.reshape(outer.shape[:-2] + (-1,)).dot(_PRODUCT_EXACT if outer.dtype == object else _PRODUCT)


class MJet2:
    """Order-2 jet in lam, packed: `packed[..., :]` is the value, d/dlam and
    d2/dlam2. Jets at N points stack on a leading axis, packed (N, 3).
    """

    __slots__ = ("packed",)

    @staticmethod
    def from_packed(packed: np.ndarray) -> "MJet2":
        jet = MJet2.__new__(MJet2)
        jet.packed = packed
        return jet

    @staticmethod
    def from_jet1(jet) -> "MJet2":
        """A univariate jet in lam (order >= 2), or its coefficients (..., order + 1)."""
        c = jet.coeffs if isinstance(jet, Jet1) else np.asarray(jet)
        if c.shape[-1] < 3:
            raise ValueError("need a univariate jet of order >= 2")
        if c.dtype.kind == "c":
            raise ValueError("metric coefficients must be real jets")
        return MJet2.from_packed(_to_derivatives(c))

    def derivatives(self) -> np.ndarray:
        """(..., 3): the value, first and second derivative."""
        return self.packed

    def __sub__(self, other: "MJet2") -> "MJet2":
        return MJet2.from_packed(self.packed - other.packed)

    def __mul__(self, other) -> "MJet2":
        """The product with a jet, or with a number."""
        if not isinstance(other, MJet2):
            return MJet2.from_packed(self.packed * other)
        return MJet2.from_packed(_packed_product(self.packed, other.packed))

    def reciprocal(self) -> "MJet2":
        """r (1 - e + e**2), with r = 1 / f(x0) and e = f r - 1: e has value 0, so
        e**3 has no terms of order <= 2, and the 1 only sets the value r.

        The one is the dtype's own, so float64 stays float64 and a Fraction
        stays exact."""
        DivisionByZeroJet.raise_where(self.packed[..., 0] == 0, "reciprocal of a zero-valued jet in lam")
        r = self.packed.dtype.type(1) / self.packed[..., :1]
        e = self.packed * r
        e[..., 0] = 0
        out = (_packed_product(e, e) - e) * r
        out[..., 0] = r[..., 0]
        return MJet2.from_packed(out)
