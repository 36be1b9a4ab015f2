"""Hypergeometric machinery.

Gauss 2F1 evaluated as a jet, the standard solution pair of the
hypergeometric equation, the Schwarzian potential V(s), the elementary
closed-form pair in r that a catalog case is built from, the Wronskian
law, and the algebraic transformation identities between solution
families. The paper's other closed-form pairs are test oracles, in
tests/oracles.py.

Each HyperTriple is built once, as a module constant or with its catalog
case, and what depends on a triple and an order alone (series
coefficients, the term-count rule, the pair's second triple) is computed
on first use and cached, so a call spends its time on its points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple

import numpy as np

from .errors import (
    DegenerateError,
    DivisionByZeroJet,
    LinearDependenceError,
    PoleError,
    SeriesDomainError,
    SingularPointError,
    ZeroWronskianError,
)
from .jets import (
    Jet1,
    _jet,
    _shape,
    jet_compose,
    jet_invert,
    jet_pow,
    jet_var,
)

Frac = Fraction


def relative_residual(monomials):
    """|sum| / max |monomial| (0 where every monomial is 0), at one point or at each of a stack.

    The monomials stack on axis 0. Dividing by the largest of them, with
    no floor, makes the residual invariant under rescaling the solution.
    DegenerateError marks the points where a monomial is not finite.

    Real monomials at one point are summed in Python floats, left to right
    as numpy sums the rows of a stack, so a point's residual is the same
    number alone or in a stack.
    """
    if isinstance(monomials[0], float) and all(isinstance(x, float) for x in monomials):
        scale = max(map(abs, monomials))
        if not all(map(math.isfinite, monomials)):
            raise DegenerateError("residual is not finite at this point")
        return float(abs(sum(monomials)) / scale) if scale > 0 else 0.0
    m = np.asarray(monomials, dtype=complex)
    scale = np.max(np.abs(m), axis=0)  # NaN or inf wherever a monomial is
    DegenerateError.raise_where(~np.isfinite(scale), "residual is not finite at this point")
    rel = np.divide(np.abs(np.sum(m, axis=0)), scale, out=np.zeros_like(scale), where=scale > 0)
    return rel if rel.ndim else float(rel)


@dataclass(frozen=True)
class HyperTriple:
    """Parameters (a, b, c) of the Gauss hypergeometric equation."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))

    def __iter__(self):
        return iter((self.a, self.b, self.c))

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        # the triples key the series caches, and hashing three Fractions takes microseconds
        return hash((self.a, self.b, self.c))

    def label(self) -> str:
        return f"({self.a},{self.b},{self.c})"


def _nonpositive_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


@functools.cache
def _terminating_length(p: HyperTriple) -> int | None:
    """Number of series terms if the series terminates, else None."""
    n = None
    if _nonpositive_int(p.a):
        n = -int(p.a) + 1
    if _nonpositive_int(p.b):
        nb = -int(p.b) + 1
        n = nb if n is None else min(n, nb)
    return n


@functools.cache
def _poly_coeffs(p: HyperTriple, nterms: int, order: int) -> np.ndarray:
    """Exact series coefficients of a terminating 2F1, then `order` zeros (read-only)."""
    coeffs = np.zeros(nterms + order)
    term = Fraction(1)
    a, b, c = p.a, p.b, p.c
    for n in range(nterms):
        coeffs[n] = float(term)
        denom = (c + n) * (n + 1)
        if denom == 0:
            if n + 1 < nterms:
                raise PoleError(f"(c)_n vanishes before the series {p.label()} terminates")
            break
        term = term * (a + n) * (b + n) / denom
    coeffs.flags.writeable = False
    return coeffs


@functools.lru_cache(maxsize=None)
def _series_coeffs(p: HyperTriple, nterms: int) -> np.ndarray:
    """c_0..c_{nterms-1} of 2F1(s) = sum c_n s^n: c_{n+1} = c_n (a+n)(b+n) / ((c+n)(n+1))."""
    a, b, c = float(p.a), float(p.b), float(p.c)
    n = np.arange(nterms - 1)
    coeffs = np.concatenate(([1.0], np.cumprod((a + n) * (b + n) / ((c + n) * (n + 1)))))
    coeffs.flags.writeable = False
    return coeffs


SERIES_MAX_TERMS = 100001
# each point sums its series until the terms fall this many digits below their peak
SERIES_DIGITS = 17
# hyp2f1_jet sums a stack in one product while its table of powers, padded to the
# largest term count, holds at most this many (8 MB); a larger one is summed per
# count. On a small stack one product costs less than a product per count.
SERIES_TABLE_ENTRIES = 1 << 20


@functools.lru_cache(maxsize=None)
def _binomials(nterms: int, order: int) -> np.ndarray:
    """C(m+k, k) = prod_{j<=k} (m+j)/j for m < nterms and k <= order."""
    m, k = np.arange(nterms)[:, None], np.arange(order + 1)
    ratio = (m + k) / np.maximum(k, 1.0)
    ratio[:, 0] = 1.0
    binom = np.cumprod(ratio, axis=1)
    binom.flags.writeable = False
    return binom


@functools.cache
def _term_count_rule(p: HyperTriple, order: int) -> Tuple[float, float]:
    """(e, x) of the number of terms hyp2f1_jet sums for a series that does not terminate.

    The terms c_{m+k} C(m+k, k) s0^m of coefficient k grow like m^e |s0|^m,
    e = k - 1 + a + b - c, so coefficient `order` converges last. With
    L = -log |s0| they peak near m* = e / L and have fallen by exp(-D),
    D = SERIES_DIGITS log 10, at x m*, where x - 1 - log x = D / e.
    """
    e = max(order - 1 + float(p.a + p.b - p.c), 1e-9)  # as e -> 0, x e -> D
    u = SERIES_DIGITS * math.log(10.0) / e
    x = 1.0 + u
    for _ in range(8):  # converges: log x moves less than x does
        x = 1.0 + u + math.log(x)
    return e, x


def _weights_and_powers(s: np.ndarray, c: np.ndarray, nterms: int, order: int):
    """(W, powers) with W[m, k] = c_{m+k} C(m+k, k) and powers[i, m] = s[i]^m, for m < nterms.

    Coefficient k of the jet at point i is then sum_m powers[i, m] W[m, k].
    The powers are formed as s^(32 j) s^i, at most two roundings from pow,
    where a running product would add one rounding per power.
    """
    m = np.arange(nterms)
    binom = _binomials(1 << (nterms - 1).bit_length(), order)[:nterms]
    j = 32 * np.arange(-(-nterms // 32))[:, None]
    powers = (s[:, None, None] ** j * s[:, None, None] ** m[:32]).reshape(len(s), -1)[:, :nterms]
    return c[m[:, None] + np.arange(order + 1)] * binom, powers


def _series_sums(s, L, counts, c, e: float, order: int):
    """(coeffs, short) of hyp2f1_jet's points s, L = -log |s|, each summing its count of terms.

    Far from the asymptotic regime (large a, b or c) the estimate of the
    count can fall short. A point is short where the last term of
    coefficient `order` is not SERIES_DIGITS digits below the one at m*,
    or the next term is larger.
    """
    W, powers = _weights_and_powers(s, c, int(counts.max()), order)
    rows, last = np.arange(len(s)), counts - 1
    powers[np.arange(powers.shape[1]) > last[:, None]] = 0.0
    peak = np.rint(np.minimum(e / L, last)).astype(int)
    term = lambda i: np.abs(W[i, order] * powers[rows, i])
    ratio = np.abs(s * c[last + order + 1] / c[last + order]) * (last + order + 1) / (last + 1)
    short = (term(last) > 10.0**-SERIES_DIGITS * term(peak)) | (ratio > 1)
    return (powers[:, None, :] @ W)[:, 0, :], short


def _too_long(p: HyperTriple) -> str:
    return f"series for {p.label()} does not fall {SERIES_DIGITS} digits in {SERIES_MAX_TERMS} terms"


def _series_on_stack(p: HyperTriple, s: np.ndarray, s0, e: float, x: float, order: int):
    """hyp2f1_jet's coefficients (len(s), order + 1) for a series that does not terminate."""
    L = -np.log(np.maximum(np.abs(s), 1e-300))
    # `order` + 32 terms past x m*, rounded up to a multiple of 32 (just those at s0 = 0)
    counts = 32 * np.ceil((x * e / L + order + 32) / 32).astype(int)
    while True:
        SeriesDomainError.raise_where(np.reshape(counts > SERIES_MAX_TERMS, np.shape(s0)),
                                      lambda: _too_long(p))
        top = int(counts.max())
        # a prefix of a cached power-of-two run, so the cache keeps few lengths per triple
        c = _series_coeffs(p, 1 << (top + order).bit_length())
        if len(s) * top <= SERIES_TABLE_ENTRIES:
            coeffs, short = _series_sums(s, L, counts, c, e, order)
        else:
            # the points of each count apart, so a point near |s0| = 1
            # does not size the table of the others
            coeffs = np.empty((len(s), order + 1), dtype=np.result_type(s, float))
            short = np.empty(len(s), dtype=bool)
            for k in np.unique(counts):
                rows = counts == k
                coeffs[rows], short[rows] = _series_sums(
                    s[rows], L[rows], counts[rows], c, e, order)
        if not short.any():
            return coeffs
        counts = np.where(short, 2 * counts, counts)


def _series_at_point(p: HyperTriple, s: np.ndarray, e: float, x: float, order: int):
    """_series_on_stack at the one point of s, with the count and the shortfall test on Python numbers.

    The same operations on the same doubles give the same count, and the
    same coefficients; None where the count passes SERIES_MAX_TERMS.
    """
    L = float(-np.log(max(np.abs(s[0]), 1e-300)))
    count = 32 * math.ceil((x * e / L + order + 32) / 32)
    while count <= SERIES_MAX_TERMS:
        c = _series_coeffs(p, 1 << (count + order).bit_length())
        W, powers = _weights_and_powers(s, c, count, order)
        last, peak = count - 1, round(min(e / L, count - 1))
        term = lambda i: abs(W[i, order] * powers[0, i])
        ratio = abs(s[0] * c[last + order + 1] / c[last + order]) * (last + order + 1) / (last + 1)
        if not (term(last) > 10.0**-SERIES_DIGITS * term(peak) or ratio > 1):
            return (powers[:, None, :] @ W)[:, 0, :]
        count *= 2
    return None


def hyp2f1_jet(p: HyperTriple, s0, order: int = 8) -> Jet1:
    """Jet of 2F1(a, b; c; s) at s0 (one point, or a stack of points).

    Every Taylor coefficient is a sum of the series, terminating or not:
    coefficient k at s0 is sum_m c_{m+k} C(m+k, k) s0^m, so each point's
    jet is its powers of s0 times one table of those weights. A terminating
    series (a or b a non-positive integer) is a finite sum, valid at any
    s0, real or complex. Otherwise each point sums its own number of
    terms, enough for them to fall SERIES_DIGITS digits below their peak;
    SeriesDomainError marks the points where |s0| >= 1 or s0 is not
    finite, and those where that takes more than SERIES_MAX_TERMS terms. A
    single point counts its terms on Python numbers, to the same count. At
    negative s0 with large parameters the alternating terms peak far above
    their sum and digits are lost ((21/2, 21/2; 41/2) at -0.9 is 1.2e-12 off
    in value); the package sums non-terminating series only at s0 in (0, 1).
    """
    s = np.array([s0]) if type(s0) is float else np.reshape(s0, -1)
    length = _terminating_length(p)
    if length is not None:
        c = _poly_coeffs(p, length, order)
        W, powers = _weights_and_powers(s, c, length, order)
        coeffs = (powers[:, None, :] @ W)[:, 0, :]
    else:
        if _nonpositive_int(p.c):
            raise PoleError(f"c = {p.c} is a non-positive integer and the series does not terminate")
        SingularPointError.raise_where(
            s0 == 1, "s = 1 is a singular point of the hypergeometric equation")
        # not |s0| < 1 refuses a NaN or infinite basepoint too
        SeriesDomainError.raise_where(
            np.logical_not(abs(s0) < 1), lambda: f"series for {p.label()} diverges at |s| >= 1")
        e, x = _term_count_rule(p, order)
        if len(s) != 1:
            coeffs = _series_on_stack(p, s, s0, e, x, order)
        else:
            coeffs = _series_at_point(p, s, e, x, order)
            if coeffs is None:
                SeriesDomainError.raise_where(np.full(np.shape(s0), True), _too_long(p))
    return _jet(s0, coeffs.reshape(_shape(s0) + (order + 1,)))


def hypergeom_residual(z: Jet1, p: HyperTriple):
    """Relative residual of the hypergeometric equation on the jet z, at each of its basepoints."""
    s0 = z.basepoint
    a, b, c = float(p.a), float(p.b), float(p.c)
    z0, z1, z2 = z.derivs(3)
    return relative_residual([s0 * (1 - s0) * z2, (c - (a + b + 1) * s0) * z1, -a * b * z0])


def hypergeom_pair(p: HyperTriple, s0, order: int = 8) -> Tuple[Jet1, Jet1]:
    """The standard fundamental pair (2F1, s^(1-c) 2F1(a-c+1, b-c+1; 2-c)).

    For s0 in (0, 1), one point or a stack; the s^(1-c) factor is the
    real power of a positive base, so a non-positive s0 raises (BranchError
    below 0, DivisionByZeroJet at 0), with `rows` on a stack.
    """
    z1 = hyp2f1_jet(p, s0, order)
    p2, power = _second_factor(p)
    f2 = hyp2f1_jet(p2, s0, order)
    s = jet_var(s0, order)
    z2 = jet_pow(s, power) * f2
    return z1, z2


@functools.cache
def _second_factor(p: HyperTriple) -> Tuple[HyperTriple, float]:
    """(triple, power) with the pair's second solution s^power 2F1(triple)."""
    return HyperTriple(p.a - p.c + 1, p.b - p.c + 1, 2 - p.c), float(1 - p.c)


# --- the Schwarzian potential ----------------------------------------


def schwarz_potential(alpha: float, beta: float, gamma: float, s0, order: int) -> Jet1:
    """V(s) = (1-b^2)/s^2 + (1-g^2)/(s-1)^2 + (b^2+g^2-a^2-1)/(s(s-1)) as a jet at s0.

    s0 is one point or a stack. With x = 1/s0, the Taylor coefficients of
    1/s are x (-x)^k and those of 1/s^2 are (k+1) x^2 (-x)^k; likewise
    for s - 1, and 1/(s(s-1)) = 1/(s-1) - 1/s. At one real point x and
    1/(s0 - 1) are Python floats.
    """
    DivisionByZeroJet.raise_where((s0 == 0) | (s0 == 1), "V has double poles at s = 0 and s = 1")
    k, k1 = _indices(order)
    s = s0 if isinstance(s0, float) else np.asarray(s0)[..., None]
    x, y = 1.0 / s, 1.0 / (s - 1.0)
    inv_s, inv_sm1 = x * (-x) ** k, y * (-y) ** k
    a2, b2, g2 = alpha**2, beta**2, gamma**2
    double_poles = k1 * ((1 - b2) * x * inv_s + (1 - g2) * y * inv_sm1)
    return _jet(s0, double_poles + (b2 + g2 - a2 - 1) * (inv_sm1 - inv_s))


@functools.cache
def _indices(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only float vectors k = 0..order and k + 1 of schwarz_potential's series."""
    k = np.arange(order + 1.0)
    k1 = k + 1
    k.flags.writeable = k1.flags.writeable = False
    return k, k1


# --- the elementary pair in r -----------------------------------------


def closed_form_solution(constants, r0, order: int = 8) -> Tuple[Jet1, Jet1]:
    """(c1 e1 + c2 e2, c3 e1 + c4 e2) at r0 (one point, or a stack), for constants (c1, c2, c3, c4).

    e1 = (r-1)^(1/3) (3r+1) and e2 = (r+1)^(1/3) (3r-1) solve
    (1 - r^2) z'' / 4 - r z' / 3 + 5 z / 9 = 0, the one closed-form pair a
    catalog case is built from; the pair is independent where c1 c4 != c2 c3.
    """
    c1, c2, c3, c4 = constants
    if abs(c1 * c4 - c2 * c3) < 1e-14:
        raise LinearDependenceError("constants give a dependent pair")
    SingularPointError.raise_where(
        (r0 == 1) | (r0 == -1) | (abs(r0 + 1.0 / 3.0) < 1e-12), "r in {1, -1, -1/3}"
    )
    r = jet_var(r0, order)
    e1 = jet_pow(r - 1.0, Frac(1, 3)) * (3.0 * r + 1.0)
    e2 = jet_pow(r + 1.0, Frac(1, 3)) * (3.0 * r - 1.0)
    return c1 * e1 + c2 * e2, c3 * e1 + c4 * e2


# --- Wronskian law ----------------------------------------------------


def _wronskian(z1: Jet1, z2: Jet1) -> float:
    return z1.value() * z2.deriv(1) - z2.value() * z1.deriv(1)


def wronskian_check(
    pair: Callable[[float], Tuple[Jet1, Jet1]],
    p: HyperTriple,
    s_ref: float,
    s0,
):
    """Relative error of W(z1,z2) = w0 (s-1)^(c-a-b-1) s^(-c).

    w0 is calibrated at s_ref; both points must lie on the same side of
    s = 1 so the implicit branch constants cancel in the ratio. s0 is one
    point, giving a float, or a stack that `pair` takes at once, giving
    one value per point.
    """
    a, b, c = float(p.a), float(p.b), float(p.c)
    z1r, z2r = pair(s_ref)
    Wr = _wronskian(z1r, z2r)
    scale_r = max(abs(z1r.value() * z2r.deriv(1)), abs(z2r.value() * z1r.deriv(1)), 1e-300)
    if abs(Wr) < 1e-10 * scale_r:
        raise ZeroWronskianError("the pair is linearly dependent")
    e = c - a - b - 1
    law = lambda s: abs(s - 1.0) ** e * abs(s) ** (-c)
    w0 = Wr / law(s_ref)
    z1, z2 = pair(s0)
    predicted = w0 * law(s0)
    err = np.abs(_wronskian(z1, z2) - predicted) / np.abs(predicted)
    return err if np.ndim(err) else float(err)


# --- transformation identities -----------------------------------------

# At s = 1/2 the degree6 map t(s) reaches t = 1, a singular point of the
# target equation, with dt/ds = 0, so inverting t(s) loses every digit
# there. The check rejects the open interval (start, start + width) around it,
# and the CLI's sampler steps over it.
DEGREE6_GAP = (0.49, 0.02)
_W = complex(-0.5, 0.5 * math.sqrt(3.0))  # a cube root of unity
# Each kind: the summed triple p, the target triple, where a sample s0 sits in s,
# t(s), and the prefactor b(s)**e as (b, e). Each identity says that
# b(s)**e 2F1(p; s), as a function of t, solves the target hypergeometric
# equation; euler and quadratic say that 2F1(p; s) = b(s)**e 2F1(target; t(s))
# as values.
_IDENTITIES = {
    "euler": (HyperTriple(Frac(-7, 6), Frac(-8, 3), Frac(2, 3)),
              HyperTriple(Frac(11, 6), Frac(10, 3), Frac(2, 3)),
              lambda s0: s0, lambda s: s, lambda s: 1.0 - s, 4.5),
    "quadratic": (HyperTriple(Frac(1, 6), Frac(1, 6), Frac(2, 3)),
                  HyperTriple(Frac(1, 12), Frac(1, 12), Frac(2, 3)),
                  lambda s0: s0, lambda s: 4.0 * s * (1.0 - s), lambda s: 1.0 - s, 0),
    # the prefactor carries the conjugate root: (1 + conj(w) s) is proportional
    # to (s + w), and constants drop out of the linear ODE
    "cubic": (HyperTriple(-4, -1, -2), HyperTriple(Frac(-4, 3), -1, -2), lambda s0: s0 + 0j,
              lambda s: 3.0 * (2.0 * _W + 1.0) * s * (s - 1.0) / ((s + _W) * (s + _W) * (s + _W)),
              lambda s: s + _W, -4),
    "degree4": (HyperTriple(Frac(11, 6), Frac(10, 3), Frac(2, 3)),
                HyperTriple(Frac(5, 6), Frac(-2, 3), Frac(2, 3)),
                lambda s0: s0, lambda s: -s * (s + 8.0) ** 3 / (64.0 * (1.0 - s) ** 3),
                lambda s: 1.0 - s, 2.5),
    "degree6": (HyperTriple(-4, -1, -2), HyperTriple(Frac(-1, 3), Frac(-2, 3), Frac(-1, 2)),
                lambda s0: s0, lambda s: 27.0 * (s * (s - 1.0)) ** 2 / (4.0 * (s * s - s + 1.0) ** 3),
                lambda s: 1.0 - s + s * s, -2),
    # t = 1 - s and t = s/(s - 1) are involutions: a sample s0 of t sits at s = t(s0)
    "frac_linear_1ms": (HyperTriple(Frac(-2, 3), Frac(5, 6), Frac(1, 2)),
                        HyperTriple(Frac(-2, 3), Frac(5, 6), Frac(2, 3)),
                        lambda s0: 1.0 - s0, lambda s: 1.0 - s, lambda s: 1.0 - s, Frac(0)),
    "frac_linear_s_over_sm1": (HyperTriple(Frac(-4, 3), -1, Frac(2, 3)),
                               HyperTriple(Frac(-4, 3), Frac(5, 3), Frac(2, 3)),
                               lambda s0: s0 / (s0 - 1.0), lambda s: s / (s - 1.0),
                               lambda s: 1.0 - s, Frac(-4, 3)),
}
TRANSFORM_KINDS = tuple(_IDENTITIES)


def _mapped_solution_residual(z: Jet1, t_of_s: Jet1, prefactor: Jet1, target: HyperTriple):
    """Residual of the target hypergeometric ODE on prefactor(s) z(s) in t."""
    zt = jet_compose(prefactor * z, jet_invert(t_of_s))
    return hypergeom_residual(zt, target)


def transform_identity_check(kind: str, s0):
    """Relative mismatch of the named transformation identity at s0.

    s0 is one point, giving a float, or a stack, giving one value per point.
    The value identities (euler, quadratic) compare both sides' values, jets
    of order 0. Every other kind maps its solution into t by composing with
    the inverse of t(s), at order 2, all the target equation reads.
    """
    if kind not in _IDENTITIES:
        raise ValueError(f"unknown transformation kind {kind!r}")
    p, target, at, t_of, base, e = _IDENTITIES[kind]
    s0 = np.asarray(s0, dtype=float) if np.ndim(s0) else float(s0)
    if kind == "degree6":
        lo, width = DEGREE6_GAP
        SingularPointError.raise_where(
            (s0 > lo) & (s0 < lo + width),
            lambda: f"degree6 is not checked on ({lo}, {lo + width}), around t(1/2) = 1")
    s = at(s0)
    if kind in ("euler", "quadratic"):
        rhs = base(s) ** e * hyp2f1_jet(target, t_of(s), 0).value()
        return relative_residual([hyp2f1_jet(p, s, 0).value(), -rhs])
    x = jet_var(s, 2)
    return _mapped_solution_residual(hyp2f1_jet(p, s, 2), t_of(x), jet_pow(base(x), e), target)
