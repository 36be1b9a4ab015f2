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
    NonInvertibleJet,
    PoleError,
    SeriesDomainError,
    SingularPointError,
    ZeroWronskianError,
)
from .jets import (
    Jet1,
    _jet,
    _shape,
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
    number alone or in a stack. A real stack stays in float64.
    """
    if isinstance(monomials[0], float) and all(isinstance(x, float) for x in monomials):
        scale = max(map(abs, monomials))
        if not all(map(math.isfinite, monomials)):
            raise DegenerateError("residual is not finite at this point")
        return float(abs(sum(monomials)) / scale) if scale > 0 else 0.0
    m = np.asarray(monomials)
    # complex only where a monomial is: |x + 0j| and sums of x + 0j are those of x, bit for bit
    m = m.astype(complex if m.dtype.kind == "c" else float, copy=False)
    scale = np.abs(m).max(axis=0)  # NaN or inf wherever a monomial is
    DegenerateError.raise_where(~np.isfinite(scale), "residual is not finite at this point")
    rel = np.divide(np.abs(m.sum(axis=0)), scale, out=np.zeros_like(scale), where=scale > 0)
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
    or the next term is larger. Each point's test reads its row of the
    table on Python numbers. The table is summed in one real product: BLAS
    splits a long complex product between its threads along the table's
    length, so a complex row's sum would depend on how far the table is
    padded past its count.
    """
    top = max(counts)
    W, powers = _weights_and_powers(s, c, top, order)
    tiny, short = 10.0**-SERIES_DIGITS, []
    for i, (v, count) in enumerate(zip(s.tolist(), counts)):
        if count < top:
            powers[i, count:] = 0.0
        last = count - 1
        peak = round(min(e / L[i], last))
        ratio = abs(v * c.item(last + order + 1) / c.item(last + order)) * (last + order + 1) / (last + 1)
        short.append(ratio > 1 or abs(W.item(last, order) * powers.item(i, last))
                     > tiny * abs(W.item(peak, order) * powers.item(i, peak)))
    if powers.dtype.kind != "c":
        return (powers[:, None, :] @ W)[:, 0, :], short
    sums = (np.concatenate([powers.real, powers.imag])[:, None, :] @ W)[:, 0, :]
    coeffs = sums[:len(s)].astype(complex)
    coeffs.imag = sums[len(s):]
    return coeffs, short


def _series_on_stack(p: HyperTriple, s: np.ndarray, s0, e: float, x: float, order: int):
    """hyp2f1_jet's coefficients (len(s), order + 1) for a series that does not terminate.

    Each point counts its terms on Python numbers, and a point whose count
    falls short doubles it.
    """
    L = [-math.log(max(abs(v), 1e-300)) for v in s.tolist()]
    # `order` + 32 terms past x m*, rounded up to a multiple of 32 (just those at s0 = 0)
    counts = [32 * math.ceil((x * e / l + order + 32) / 32) for l in L]
    while True:
        top = max(counts)
        if top > SERIES_MAX_TERMS:
            SeriesDomainError.raise_where(
                np.reshape([k > SERIES_MAX_TERMS for k in counts], np.shape(s0)),
                f"series for {p.label()} does not fall {SERIES_DIGITS} digits in {SERIES_MAX_TERMS} terms")
        # a prefix of a cached power-of-two run, so the cache keeps few lengths per triple
        c = _series_coeffs(p, 1 << (top + order).bit_length())
        if len(s) * top <= SERIES_TABLE_ENTRIES:
            coeffs, short = _series_sums(s, L, counts, c, e, order)
        else:
            # the points of each count apart, so a point near |s0| = 1
            # does not size the table of the others
            coeffs = np.empty((len(s), order + 1), dtype=np.result_type(s, float))
            short = np.empty(len(s), dtype=bool)
            groups = {}
            for i, k in enumerate(counts):
                groups.setdefault(k, []).append(i)
            for k, rows in groups.items():
                coeffs[rows], short[rows] = _series_sums(
                    s[rows], [L[i] for i in rows], [k] * len(rows), c, e, order)
        if not any(short):
            return coeffs
        counts = [2 * k if flag else k for k, flag in zip(counts, short)]


def hyp2f1_jet(p: HyperTriple, s0, order: int = 8) -> Jet1:
    """Jet of 2F1(a, b; c; s) at s0 (one point, or a stack of points).

    Every Taylor coefficient is a sum of the series, terminating or not:
    coefficient k at s0 is sum_m c_{m+k} C(m+k, k) s0^m, so each point's
    jet is its powers of s0 times one table of those weights. A terminating
    series (a or b a non-positive integer) is a finite sum, valid at any
    s0, real or complex. Otherwise each point sums its own number of
    terms, enough for them to fall SERIES_DIGITS digits below their peak;
    SeriesDomainError marks the points where |s0| >= 1 or s0 is not
    finite, and those where that takes more than SERIES_MAX_TERMS terms.
    A single point is summed as a stack of one, so a point's jet is its row
    of any stack, bit for bit. At negative s0 with large parameters the
    alternating terms peak far above their sum and digits are lost
    ((21/2, 21/2; 41/2) at -0.9 is 1.2e-12 off in value); the package sums
    non-terminating series only at s0 in (0, 1).
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
        coeffs = _series_on_stack(p, s, s0, e, x, order)
    return _jet(s0, coeffs.reshape(_shape(s0) + (order + 1,)))


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
# target equation, with dt/ds = 0, so the chain rule loses every digit
# there. The check rejects the open interval (start, start + width) around it,
# and the CLI's sampler steps over it.
DEGREE6_GAP = (0.49, 0.02)
_W = complex(-0.5, 0.5 * math.sqrt(3.0))  # a cube root of unity


@dataclass(frozen=True)
class _Identity:
    """One transformation identity: b(s)**e 2F1(p; s), as a function of t = t(s),
    solves the hypergeometric equation of `target`.

    t(s) = scale prod f(s)**t_exp and b(s)**e = prod f(s)**b_exp over the
    factor rows (coeffs, t_exp, b_exp), f(s) = coeffs[0] + coeffs[1] s +
    coeffs[2] s**2. A sample s0 sits at s = s0, or at s = t(s0) for an
    involution. A value identity says 2F1(p; s) = b(s)**e 2F1(target; t(s)).
    """

    p: HyperTriple
    target: HyperTriple
    scale: float | complex
    factors: tuple
    involution: bool = False
    values: bool = False

    @functools.cached_property
    def equation(self) -> Tuple[float, float, float]:
        """(c, a + b + 1, -a b) of the target equation t(1-t) Z'' + (c - (a+b+1) t) Z' - a b Z = 0."""
        a, b, c = self.target
        return float(c), float(a + b + 1), float(-a * b)


def _factor(coeffs, s):
    """f(s) = c0 + c1 s (+ c2 s^2) by Horner's rule; a zero c0 adds nothing."""
    c0, c1 = coeffs[:2]
    f = c1 * s if len(coeffs) == 2 else (c1 + coeffs[2] * s) * s
    return f + c0 if c0 else f


def _map_values(ident: _Identity, s):
    """(t(s), b(s)**e), each multiplied in the order of the table; b**e is None without a prefactor."""
    t, prefactor = ident.scale, None
    for coeffs, m, n in ident.factors:
        f = _factor(coeffs, s)
        if m:
            t = t * (f if m == 1 else f ** m)
        if n:
            prefactor = f ** n if prefactor is None else prefactor * f ** n
    return t, prefactor


def _power_jet(f, f1, f2, k):
    """(g, g', g'') of g = f**k, k > 0, from (f, f', f''); f'' is None where it is 0, and so is g''.

    g' = k f**(k-1) f' and g'' = k (k-1) f**(k-2) f'^2 + k f**(k-1) f''; no
    power of f below 0 is formed for an integer k.
    """
    if k == 1:
        return f, f1, f2
    q = f ** (k - 2) if k != 2 else 1.0
    fq = f * q
    g2 = k * (k - 1) * f1 * f1 * q
    return f * fq, k * f1 * fq, g2 if f2 is None else g2 + k * f2 * fq


def _product_jet(u, g):
    """(u g, (u g)', (u g)'') by the product rule, skipping the terms of a zero u'' or g''."""
    (u0, u1, u2), (g0, g1, g2) = u, g
    w2 = 2.0 * u1 * g1 if u2 is None else u2 * g0 + 2.0 * u1 * g1
    return u0 * g0, u1 * g0 + u0 * g1, w2 if g2 is None else w2 + u0 * g2


def _mapped_monomials(ident: _Identity, s) -> list:
    """The target equation's three monomials on b(s)**-e Z, Z = b(s)**e 2F1(p; s) as a function of t.

    s is one point or a stack. From the order-2 jet of z = 2F1(p; s), one
    pass over the factor rows gives the jets (value, first and second
    derivative) of the numerator and the denominator of t, the factors with
    t_exp > 0 and those with t_exp < 0, by the product rule, and the
    log-derivatives of the prefactor; t, t' and t'' are their quotient, which
    divides by no factor of t's numerator. By the chain rule dZ/dt = Z'/t'
    and d2Z/dt2 = (Z'' - t'' dZ/dt)/t'^2; the homogeneous equation drops the
    common factor b**e, so with Y = Z/b**e, Y' = z' + beta z and
    Y'' = z'' + 2 beta z' + (beta^2 + beta') z, where beta = (b**e)'/(b**e).
    DivisionByZeroJet marks the points where a factor the pass divides by is
    0, and NonInvertibleJet those where t' = 0.
    """
    z0, z1, z2 = hyp2f1_jet(ident.p, s, 2).derivs(3)
    s = np.asarray(s)  # numpy's arithmetic at one point too: inf, not ZeroDivisionError
    num = den = beta = None  # the jets of t's numerator and denominator, and beta and beta'
    for coeffs, m, n in ident.factors:
        f = _factor(coeffs, s)
        # f' and f'', None where f'' = 0: a linear factor's f' is a number
        if len(coeffs) == 2:
            f1, f2 = coeffs[1], None
        else:
            f1, f2 = coeffs[1] + 2.0 * coeffs[2] * s, 2.0 * coeffs[2]
        if m < 0 or n:
            DivisionByZeroJet.raise_where(f == 0, "division by a jet with zero value")
        if m > 0:
            g = _power_jet(f, f1, f2, m)
            num = g if num is None else _product_jet(num, g)
        elif m < 0:
            g = _power_jet(f, f1, f2, -m)
            den = g if den is None else _product_jet(den, g)
        if n:  # (b**e)'/b**e = sum n f'/f, and its derivative
            r = f1 / f
            b1 = n * r
            db1 = -b1 * r if f2 is None else n * f2 / f - b1 * r
            beta, dbeta = (b1, db1) if beta is None else (beta + b1, dbeta + db1)
    t0, t1, t2 = (None if d is None else ident.scale * d for d in num)
    if den is not None:  # the quotient rule, from t den = scale num
        d0, d1, d2 = den
        t0 = t0 / d0
        t1 = (t1 - t0 * d1) / d0
        t2 = -2.0 * t1 * d1 if t2 is None else t2 - 2.0 * t1 * d1
        if d2 is not None:
            t2 = t2 - t0 * d2
        t2 = t2 / d0
    NonInvertibleJet.raise_where(t1 == 0, "jet has vanishing first derivative")
    if beta is not None:
        z1, z2 = z1 + beta * z0, z2 + 2.0 * beta * z1 + (beta * beta + dbeta) * z0
    dZ = z1 / t1
    d2Z = (z2 if t2 is None else z2 - t2 * dZ) / (t1 * t1)
    c, ab1, mab = ident.equation
    return [t0 * (1.0 - t0) * d2Z, (c - ab1 * t0) * dZ, mab * z0]


# each kind lists the factor of its prefactor b(s), where it has one, last
_IDENTITIES = {
    # t = s and b = 1 - s
    "euler": _Identity(HyperTriple(Frac(-7, 6), Frac(-8, 3), Frac(2, 3)),
                       HyperTriple(Frac(11, 6), Frac(10, 3), Frac(2, 3)),
                       1.0, (((0.0, 1.0), 1, 0), ((1.0, -1.0), 0, 4.5)), values=True),
    # t = 4 s (1 - s) and no prefactor
    "quadratic": _Identity(HyperTriple(Frac(1, 6), Frac(1, 6), Frac(2, 3)),
                           HyperTriple(Frac(1, 12), Frac(1, 12), Frac(2, 3)),
                           4.0, (((0.0, 1.0), 1, 0), ((1.0, -1.0), 1, 0)), values=True),
    # t = 3 (2w + 1) s (s - 1) / (s + w)^3 and b = s + w: the prefactor carries the
    # conjugate root, as (1 + conj(w) s) is proportional to (s + w), and constants
    # drop out of the linear ODE
    "cubic": _Identity(HyperTriple(-4, -1, -2), HyperTriple(Frac(-4, 3), -1, -2),
                       3.0 * (2.0 * _W + 1.0),
                       (((0.0, 1.0), 1, 0), ((-1.0, 1.0), 1, 0), ((_W, 1.0), -3, -4.0))),
    # t = -s (s + 8)^3 / (64 (1 - s)^3) and b = 1 - s
    "degree4": _Identity(HyperTriple(Frac(11, 6), Frac(10, 3), Frac(2, 3)),
                         HyperTriple(Frac(5, 6), Frac(-2, 3), Frac(2, 3)),
                         -1.0 / 64.0,
                         (((0.0, 1.0), 1, 0), ((8.0, 1.0), 3, 0), ((1.0, -1.0), -3, 2.5))),
    # t = 27 (s^2 - s)^2 / (4 (s^2 - s + 1)^3) and b = s^2 - s + 1
    "degree6": _Identity(HyperTriple(-4, -1, -2), HyperTriple(Frac(-1, 3), Frac(-2, 3), Frac(-1, 2)),
                         27.0 / 4.0, (((0.0, -1.0, 1.0), 2, 0), ((1.0, -1.0, 1.0), -3, -2.0))),
    # t = 1 - s and t = s/(s - 1) are involutions: a sample s0 of t sits at s = t(s0)
    "frac_linear_1ms": _Identity(HyperTriple(Frac(-2, 3), Frac(5, 6), Frac(1, 2)),
                                 HyperTriple(Frac(-2, 3), Frac(5, 6), Frac(2, 3)),
                                 1.0, (((1.0, -1.0), 1, 0),), involution=True),
    # t = -s / (1 - s) and b = 1 - s
    "frac_linear_s_over_sm1": _Identity(HyperTriple(Frac(-4, 3), -1, Frac(2, 3)),
                                        HyperTriple(Frac(-4, 3), Frac(5, 3), Frac(2, 3)),
                                        -1.0, (((0.0, 1.0), 1, 0), ((1.0, -1.0), -1, -4.0 / 3.0)),
                                        involution=True),
}
TRANSFORM_KINDS = tuple(_IDENTITIES)


@np.errstate(all="ignore")
def transform_identity_check(kind: str, s0):
    """Relative mismatch of the named transformation identity at s0.

    s0 is one point, giving a float, or a stack, giving one value per point.
    The value identities (euler, quadratic) compare both sides' values, jets
    of order 0. Every other kind checks the target equation on its solution
    mapped into t by the order-2 chain rule (`_mapped_monomials`), all the
    target equation reads. One point computes in numpy's arithmetic too,
    and the whole check under np.errstate(all="ignore"), as in
    geometry.metric_at: a division by 0 or an underflow ends in a value that
    is not finite, which relative_residual refuses (DegenerateError).
    """
    if kind not in _IDENTITIES:
        raise ValueError(f"unknown transformation kind {kind!r}")
    ident = _IDENTITIES[kind]
    s0 = np.asarray(s0, dtype=float) if np.ndim(s0) else np.float64(s0)
    if kind == "degree6":
        lo, width = DEGREE6_GAP
        SingularPointError.raise_where(
            (s0 > lo) & (s0 < lo + width),
            lambda: f"degree6 is not checked on ({lo}, {lo + width}), around t(1/2) = 1")
    s = _map_values(ident, s0)[0] if ident.involution else s0
    if ident.values:
        t, prefactor = _map_values(ident, s)
        rhs = hyp2f1_jet(ident.target, t, 0).value()
        if prefactor is not None:
            rhs = prefactor * rhs
        return relative_residual([hyp2f1_jet(ident.p, s, 0).value(), -rhs])
    return relative_residual(_mapped_monomials(ident, s))
