"""Hypergeometric machinery.

Gauss 2F1 evaluated as a jet, the catalogued closed-form solution pairs
of the second-order equations u'' + V(s) u / 4 = 0 and the hypergeometric
equation, the Wronskian law, and the algebraic transformation identities
between solution families.

Each HyperTriple is built once, as a module constant or with its catalog
case, and what depends on a triple and an order alone (series
coefficients, the term-count rule, the pair's second triple) is computed
on first use and cached, so a call spends its time on its points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
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
    jet_abs_pow,
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
    single point counts its terms on Python numbers, to the same count.
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

    For s0 in (0, 1), one point or a stack; the s^(1-c) factor uses the
    positive real branch.
    """
    z1 = hyp2f1_jet(p, s0, order)
    p2, power = _second_factor(p)
    f2 = hyp2f1_jet(p2, s0, order)
    s = jet_var(s0, order)
    z2 = jet_abs_pow(s, power) * f2
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
    k = np.arange(order + 1)
    s = s0 if isinstance(s0, float) else np.asarray(s0)[..., None]
    x, y = 1.0 / s, 1.0 / (s - 1.0)
    inv_s, inv_sm1 = x * (-x) ** k, y * (-y) ** k
    a2, b2, g2 = alpha**2, beta**2, gamma**2
    double_poles = (k + 1) * ((1 - b2) * x * inv_s + (1 - g2) * y * inv_sm1)
    return _jet(s0, double_poles + (b2 + g2 - a2 - 1) * (inv_sm1 - inv_s))


def u_ode_residual(u: Jet1, tr: Tuple[float, float, float]):
    """Relative residual of u'' + V(s) u / 4 = 0, at each of u's basepoints."""
    V = schwarz_potential(*tr, u.basepoint, 0).value()
    return relative_residual([u.deriv(2), 0.25 * V * u.value()])


# --- closed-form catalogue --------------------------------------------

# (alpha, beta, gamma) for the u''+Vu/4 rows; None for hypergeometric-ODE entries
CLOSED_FORM_TRIPLES: dict[str, tuple] = {
    "table1_row1": (3, 3, 3),
    "table1_row2": (3, Frac(1, 3), Frac(1, 3)),
    "table1_row3": (Frac(1, 3), 3, Frac(1, 3)),
    "table1_row4": (Frac(1, 3), Frac(1, 3), 3),
    "table2_row1": (Frac(3, 2), Frac(1, 3), Frac(1, 2)),
    "table2_row2": (Frac(3, 2), 3, Frac(1, 2)),
    "table2_row3": (Frac(3, 2), Frac(1, 3), Frac(9, 2)),
    "table3_row1": (6, Frac(3, 2), Frac(3, 2)),
    "table3_row2": (Frac(2, 3), Frac(3, 2), Frac(3, 2)),
    "table3_row3": (Frac(2, 3), Frac(1, 6), Frac(1, 6)),
}

CLOSED_FORM_HYPER: dict[str, HyperTriple] = {
    "table1_row1": HyperTriple(-4, -1, -2),
    "table1_row2": HyperTriple(Frac(-4, 3), Frac(5, 3), Frac(2, 3)),
    "table1_row3": HyperTriple(Frac(-4, 3), -1, -2),
    "table1_row4": HyperTriple(Frac(-4, 3), -1, Frac(2, 3)),
    "table2_row1": HyperTriple(Frac(5, 6), Frac(-2, 3), Frac(2, 3)),
    "table2_row2": HyperTriple(Frac(-1, 2), -2, -2),
    "table2_row3": HyperTriple(Frac(-7, 6), Frac(-8, 3), Frac(2, 3)),
    "table3_row1": HyperTriple(-4, 2, Frac(-1, 2)),
    "table3_row2": HyperTriple(Frac(-4, 3), Frac(-2, 3), Frac(-1, 2)),
    "table3_row3": HyperTriple(0, Frac(2, 3), Frac(5, 6)),
    "dual_k32_row1": HyperTriple(Frac(-1, 4), Frac(5, 12), Frac(1, 2)),
    "dual_k32_row2": HyperTriple(Frac(-1, 4), Frac(5, 12), Frac(2, 3)),
    "dual_k32_row3": HyperTriple(Frac(-1, 2), Frac(5, 6), Frac(2, 3)),
}
# the hypergeometric entries and the elementary pair in r
CLOSED_FORM_FAMILIES = tuple(CLOSED_FORM_HYPER) + ("elementary_r",)
# the triples of the 2F1 factors of the displayed bases that have them
_BASIS_FACTORS = {
    "table2_row1": (CLOSED_FORM_HYPER["table2_row1"],
                    HyperTriple(Frac(7, 6), Frac(-1, 3), Frac(4, 3))),
    "table2_row3": (HyperTriple(Frac(13, 6), Frac(11, 3), Frac(4, 3)),
                    HyperTriple(Frac(11, 6), Frac(10, 3), Frac(2, 3))),
    "table3_row2": (HyperTriple(Frac(5, 3), Frac(7, 3), Frac(5, 2)),
                    HyperTriple(Frac(1, 6), Frac(5, 6), Frac(-1, 2))),
    "table3_row3": (HyperTriple(Frac(1, 3), 1, Frac(7, 6)),),
}


@dataclass(frozen=True)
class ClosedFormId:
    """Names a closed-form solution pair plus basis-mixing constants.

    The returned pair is (c1 e1 + c2 e2, c3 e1 + c4 e2) over the entry's
    displayed basis (e1, e2); linear independence needs c1 c4 != c2 c3.
    """

    family: str
    constants: Tuple[float, float, float, float] = (1.0, 0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.family not in CLOSED_FORM_FAMILIES:
            raise ValueError(f"unknown closed-form family {self.family!r}")


def _rp(jet: Jet1, e: Fraction) -> Jet1:
    """Real power with odd-denominator branch rule, |.|-branch otherwise.

    The |.| fallback rescales the function by a constant, which is harmless
    for solutions of the linear second-order equations catalogued here.
    """
    if e.denominator % 2 == 1:
        return jet_pow(jet, e)
    return jet_abs_pow(jet, float(e))


def _closed_form_basis(family: str, s0, order: int) -> Tuple[Jet1, Jet1]:
    s = jet_var(s0, order)
    sm1 = s - 1.0
    if family == "table1_row1":
        SingularPointError.raise_where((s0 == 0) | (s0 == 1), "s in {0,1}")
        return (2.0 * s - 1.0) / (s * sm1), s * s * (s - 2.0) / sm1
    if family == "table1_row2":
        e1 = (3.0 * s - 2.0) * _rp(s, Frac(2, 3)) * _rp(sm1, Frac(1, 3))
        e2 = (3.0 * s - 1.0) * _rp(s, Frac(1, 3)) * _rp(sm1, Frac(2, 3))
        return e1, e2
    if family == "table1_row3":
        e1 = (2.0 * s - 3.0) / s * _rp(sm1, Frac(1, 3))
        e2 = (s - 3.0) / s * _rp(sm1, Frac(2, 3))
        return e1, e2
    if family == "table1_row4":
        e1 = (2.0 * s + 1.0) / sm1 * _rp(s, Frac(1, 3))
        e2 = (s + 2.0) / sm1 * _rp(s, Frac(2, 3))
        return e1, e2
    if family == "table2_row1":
        # 2F1 form of the displayed associated-Legendre pair
        f1, f2 = (hyp2f1_jet(p, s0, order) for p in _BASIS_FACTORS[family])
        w = _rp(sm1, Frac(1, 4))
        return _rp(s, Frac(1, 3)) * w * f1, _rp(s, Frac(2, 3)) * w * f2
    if family == "table2_row2":
        e1 = _rp(sm1, Frac(3, 4)) / s
        e2 = _rp(sm1, Frac(1, 4)) * (s * s + 4.0 * s - 8.0) / s
        return e1, e2
    if family == "table2_row3":
        w = _rp(sm1, Frac(11, 4))
        f1, f2 = (hyp2f1_jet(p, s0, order) for p in _BASIS_FACTORS[family])
        return _rp(s, Frac(2, 3)) * w * f1, _rp(s, Frac(1, 3)) * w * f2
    if family == "table3_row1":
        w = s * sm1
        e1 = (2.0 * s - 1.0) * _rp(w, Frac(5, 4))
        poly = ((128.0 * s - 256.0) * s + 144.0) * s * s - 16.0 * s - 1.0
        e2 = poly / _rp(w, Frac(1, 4))
        return e1, e2
    if family == "table3_row2":
        f1, f2 = (hyp2f1_jet(p, s0, order) for p in _BASIS_FACTORS[family])
        e1 = _rp(s * sm1, Frac(5, 4)) * f1
        e2 = _rp(sm1, Frac(5, 4)) / _rp(s, Frac(1, 4)) * f2
        return e1, e2
    if family == "table3_row3":
        f1 = hyp2f1_jet(_BASIS_FACTORS[family][0], s0, order)
        e1 = _rp(s * sm1, Frac(7, 12)) * f1
        e2 = _rp(s, Frac(5, 12)) * _rp(1.0 - s, Frac(5, 12))
        return e1, e2
    if family == "elementary_r":
        r = jet_var(s0, order)
        SingularPointError.raise_where(
            (s0 == 1) | (s0 == -1) | (abs(s0 + 1.0 / 3.0) < 1e-12), "r in {1, -1, -1/3}"
        )
        e1 = jet_pow(r - 1.0, Frac(1, 3)) * (3.0 * r + 1.0)
        e2 = jet_pow(r + 1.0, Frac(1, 3)) * (3.0 * r - 1.0)
        return e1, e2
    if family.startswith("dual_k32_row"):
        return hypergeom_pair(CLOSED_FORM_HYPER[family], s0, order)
    raise ValueError(family)


def closed_form_solution(cid: ClosedFormId, s0, order: int = 8) -> Tuple[Jet1, Jet1]:
    """Jets of the two catalogued independent solutions at s0 (one point, or a stack)."""
    c1, c2, c3, c4 = cid.constants
    if abs(c1 * c4 - c2 * c3) < 1e-14:
        raise LinearDependenceError("constants give a dependent pair")
    if cid.family != "elementary_r":
        SingularPointError.raise_where((s0 == 0) | (s0 == 1), "s in {0,1}")
    e1, e2 = _closed_form_basis(cid.family, s0, order)
    return c1 * e1 + c2 * e2, c3 * e1 + c4 * e2


def closed_form_ode_residual(cid: ClosedFormId, s0: float) -> float:
    """Residual of the entry's own defining ODE on both returned jets, of order 6."""
    z1, z2 = closed_form_solution(cid, s0, 6)
    fam = cid.family
    if fam in CLOSED_FORM_TRIPLES:
        tr = tuple(float(x) for x in CLOSED_FORM_TRIPLES[fam])
        return max(u_ode_residual(z1, tr), u_ode_residual(z2, tr))
    if fam == "elementary_r":
        r = s0
        return max(
            relative_residual(
                [0.25 * (1 - r * r) * z.deriv(2), -(r / 3.0) * z.deriv(1), (5.0 / 9.0) * z.value()]
            )
            for z in (z1, z2)
        )
    p = CLOSED_FORM_HYPER[fam]
    return max(hypergeom_residual(z1, p), hypergeom_residual(z2, p))


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

TRANSFORM_KINDS = (
    "euler",
    "quadratic",
    "cubic",
    "degree4",
    "degree6",
    "frac_linear_1ms",
    "frac_linear_s_over_sm1",
)
# At s = 1/2 the degree6 map t(s) reaches t = 1, a singular point of the
# target equation, with dt/ds = 0, so inverting t(s) loses every digit
# there. The check rejects the open interval around it.
DEGREE6_EXCLUDED = (0.49, 0.51)
# each kind's two triples: the two sides of a function identity, or the
# summed 2F1 and the target equation of an algebraic map
_IDENTITY_TRIPLES = {
    "euler": (HyperTriple(Frac(-7, 6), Frac(-8, 3), Frac(2, 3)),
              HyperTriple(Frac(11, 6), Frac(10, 3), Frac(2, 3))),
    "quadratic": (HyperTriple(Frac(1, 6), Frac(1, 6), Frac(2, 3)),
                  HyperTriple(Frac(1, 12), Frac(1, 12), Frac(2, 3))),
    "cubic": (HyperTriple(-4, -1, -2), HyperTriple(Frac(-4, 3), -1, -2)),
    "degree4": (HyperTriple(Frac(11, 6), Frac(10, 3), Frac(2, 3)),
                HyperTriple(Frac(5, 6), Frac(-2, 3), Frac(2, 3))),
    "degree6": (HyperTriple(-4, -1, -2), HyperTriple(Frac(-1, 3), Frac(-2, 3), Frac(-1, 2))),
    "frac_linear_1ms": (HyperTriple(Frac(-2, 3), Frac(5, 6), Frac(1, 2)),
                        HyperTriple(Frac(-2, 3), Frac(5, 6), Frac(2, 3))),
    "frac_linear_s_over_sm1": (HyperTriple(Frac(-4, 3), -1, Frac(2, 3)),
                               HyperTriple(Frac(-4, 3), Frac(5, 3), Frac(2, 3))),
}


def _mapped_solution_residual(z: Jet1, t_of_s: Jet1, prefactor: Jet1, target: HyperTriple):
    """Residual of the target hypergeometric ODE on prefactor(s) z(s) in t."""
    zt = jet_compose(prefactor * z, jet_invert(t_of_s))
    return hypergeom_residual(zt, target)


def transform_identity_check(kind: str, s0):
    """Relative mismatch of the named transformation identity at s0.

    s0 is one point, giving a float, or a stack, giving one value per point. Function
    identities (euler, quadratic) compare both displayed sides; the algebraic-map identities
    check that the mapped solution, a jet of order 6, satisfies the target hypergeometric ODE.
    """
    if kind not in _IDENTITY_TRIPLES:
        raise ValueError(f"unknown transformation kind {kind!r}")
    p, target = _IDENTITY_TRIPLES[kind]
    s0 = np.asarray(s0, dtype=float) if np.ndim(s0) else float(s0)
    order = 6
    if kind == "euler":
        lhs = hyp2f1_jet(p, s0, 2).value()
        rhs = (1 - s0) ** 4.5 * hyp2f1_jet(target, s0, 2).value()
        return relative_residual([lhs, -rhs])
    if kind == "quadratic":
        lhs = hyp2f1_jet(p, s0, 2).value()
        rhs = hyp2f1_jet(target, 4 * s0 * (1 - s0), 2).value()
        return relative_residual([lhs, -rhs])
    if kind == "cubic":
        w = complex(-0.5, 0.5 * np.sqrt(3.0))  # cube root of unity
        sc = s0 + 0j
        s = jet_var(sc, order)
        z = hyp2f1_jet(p, sc, order)
        t = 3.0 * (2.0 * w + 1.0) * s * (s - 1.0) / ((s + w) * (s + w) * (s + w))
        # the prefactor carries the conjugate root: (1 + conj(w) s) is
        # proportional to (s + w), and constants drop out of the linear ODE
        pref = jet_pow(s + w, -4)
        return _mapped_solution_residual(z, t, pref, target)
    if kind == "degree4":
        s = jet_var(s0, order)
        z = hyp2f1_jet(p, s0, order)
        t = -s * (s + 8.0) ** 3 / (64.0 * (1.0 - s) ** 3)
        pref = jet_abs_pow(1.0 - s, 2.5)
        return _mapped_solution_residual(z, t, pref, target)
    if kind == "degree6":
        lo, hi = DEGREE6_EXCLUDED
        SingularPointError.raise_where(
            (s0 > lo) & (s0 < hi),
            lambda: f"degree6 is not checked on ({lo}, {hi}), around t(1/2) = 1")
        s = jet_var(s0, order)
        z = hyp2f1_jet(p, s0, order)
        t = 27.0 * (s * (s - 1.0)) ** 2 / (4.0 * (s * s - s + 1.0) ** 3)
        pref = jet_pow(1.0 - s + s * s, -2)
        return _mapped_solution_residual(z, t, pref, target)
    if kind == "frac_linear_1ms":
        z = hyp2f1_jet(p, 1.0 - s0, order)
        flipped = Jet1(s0, z.coeffs * (-1.0) ** np.arange(z.order + 1))
        return hypergeom_residual(flipped, target)
    # frac_linear_s_over_sm1
    t = jet_var(s0, order)
    s = t / (t - 1.0)
    z_in_s = hyp2f1_jet(p, s.value(), order)
    z = jet_compose(z_in_s, s)
    pref = jet_pow(1.0 - s, Frac(-4, 3))
    zt = pref * z
    return hypergeom_residual(zt, target)
