"""Solution catalog and the Legendre duality between the two pictures.

Each catalog entry names one family of flat solutions, carries the data
needed to build its F(q) (or H(t)) jet, and records the admissible domain
of its construction parameter. Integration constants follow one gauge: every
jet antiderivative vanishes at the basepoint (F-two-pole's F'' is 1 there), but
the dual two-pole pair's H and H' there (H-two-pole, H-ds-curve) are its closed
form's. The sixth-order equations depend only on second and higher derivatives
and are degree-4 homogeneous, so this gauge choice never affects a residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Tuple

import numpy as np

from .errors import BranchError, DegenerateError, DomainError, UnknownCaseId
from .jets import (
    Jet1,
    _jet,
    _matvec,
    _naturals,
    _per_row,
    _toeplitz,
    _unit,
    jet_compose,
    jet_invert,
    jet_pow,
    jet_var,
    real_branch_power,
    solve_lower,
)
from .chazy import SchwarzTriple, residual_ds6, schwarz_solution
from .specialfn import HyperTriple, closed_form_solution, hypergeom_pair

Frac = Fraction


@dataclass(frozen=True)
class SolutionSpec:
    """One catalog entry.

    param_name is the variable the builder takes a basepoint in (q, t, s
    or r); domain is the open interval of admissible basepoints, already
    shrunk away from singular endpoints. params, a dict, is compared but not
    hashed, so an entry can be a dict key.
    """

    id: str
    picture: str  # "F_of_q" | "H_of_t"
    family: str  # power_m | two_pole | hyper_triple | schwarz_triple_param | ds_curve | elementary_r
    params: dict = field(hash=False)
    param_name: str
    domain: Tuple[float, float]
    note: str = ""
    expect_fail: bool = False
    aliases: Tuple[str, ...] = ()


def _triple_id(prefix: str, abc) -> str:
    return f"{prefix}-({','.join(str(Fraction(v)) for v in abc)})"


F_SCHWARZ_CLASSES = {
    # (alpha, beta, gamma) -> exponent pair (e1, e2) in F'' = sdot^{3/2} / (s^{e1} (s-1)^{e2})
    (Frac(3), Frac(3), Frac(3)): (Frac(1), Frac(1)),
    (Frac(3), Frac(1, 3), Frac(1, 3)): (Frac(1), Frac(1)),
    (Frac(3, 2), Frac(1, 3), Frac(1, 2)): (Frac(1), Frac(3, 4)),
    (Frac(3, 2), Frac(3), Frac(1, 2)): (Frac(1), Frac(3, 4)),
    (Frac(3, 2), Frac(1, 3), Frac(9, 2)): (Frac(1), Frac(3, 4)),
    (Frac(6), Frac(3, 2), Frac(3, 2)): (Frac(5, 4), Frac(5, 4)),
    (Frac(2, 3), Frac(3, 2), Frac(3, 2)): (Frac(5, 4), Frac(5, 4)),
}

H_SCHWARZ_CLASSES = {
    # (alpha, beta, gamma) -> (e1, e2) in H'' = sdot^2 / (s^{e1} (s-1)^{e2})
    (Frac(4, 3), Frac(4, 3), Frac(4, 3)): (Frac(4, 3), Frac(4, 3)),
    (Frac(4, 3), Frac(1, 3), Frac(1, 3)): (Frac(4, 3), Frac(4, 3)),
    # the asymmetric row: these triples satisfy the equation with the
    # s <-> 1-s image of the displayed weight, i.e. exponents (1, 4/3)
    (Frac(2, 3), Frac(1, 2), Frac(1, 3)): (Frac(1), Frac(4, 3)),
    (Frac(2, 3), Frac(1, 2), Frac(4, 3)): (Frac(1), Frac(4, 3)),
    (Frac(2, 3), Frac(2), Frac(1, 3)): (Frac(1), Frac(4, 3)),
    (Frac(8, 3), Frac(2, 3), Frac(2, 3)): (Frac(5, 3), Frac(5, 3)),
    (Frac(2, 3), Frac(2, 3), Frac(2, 3)): (Frac(5, 3), Frac(5, 3)),
}

F_HYPER_TRIPLES = (
    (Frac(-2, 3), Frac(5, 6), Frac(1, 2)),
    (Frac(-4, 3), Frac(5, 3), Frac(2, 3)),
    (Frac(-2, 3), Frac(5, 6), Frac(2, 3)),
)

H_HYPER_TRIPLES = (
    (Frac(-1, 4), Frac(5, 12), Frac(1, 2)),
    (Frac(-1, 4), Frac(5, 12), Frac(2, 3)),
    (Frac(-1, 2), Frac(5, 6), Frac(2, 3)),
)

F_POWERS = (Frac(-1), Frac(1, 3), Frac(2, 3), Frac(2))
H_POWERS = (Frac(-2), Frac(-1, 2), Frac(1, 2), Frac(2))

_S_DOMAIN = (0.05, 0.95)
# hyper triples whose z1 has a zero in _S_DOMAIN: there q = z2/z1 passes
# through infinity and F'' = z1^3 vanishes, so the domain stops short of it
_Z1_ROOT_FREE_DOMAINS = {
    (Frac(-4, 3), Frac(5, 3), Frac(2, 3)): (0.40, 0.95),  # z1(1/3) = 0
    (Frac(-2, 3), Frac(5, 6), Frac(1, 2)): (0.05, 0.67),  # z1(0.7182335) = 0
    (Frac(-2, 3), Frac(5, 6), Frac(2, 3)): (0.05, 0.84),  # z1(8/9) = 0
    (Frac(-1, 2), Frac(5, 6), Frac(2, 3)): (0.05, 0.89),  # z1((2 + sqrt 3)/4) = 0
}


def _picture_entries(picture: str, powers, triples, classes, pair: str, sdot_power: Fraction):
    """The power laws, the power-3 control, the hyper triples and the Schwarz classes of a picture.

    `pair` names F'' (H'') over a hypergeometric pair, and `sdot_power` is
    the power of sdot in F'' (H'') over a Schwarzian solution.
    """
    f, v = picture[0], picture[-1]  # "F_of_q" is F(q), "H_of_t" is H(t)
    dual = "" if f == "F" else "dual "
    sdot = f"sdot^({sdot_power})" if sdot_power.denominator > 1 else f"sdot^{sdot_power}"

    def power(m, note, **kw):
        return SolutionSpec(id=f"{f}-power-{m}", picture=picture, family="power_m",
                            params={"m": m}, param_name=v, domain=(0.05, 10.0), note=note, **kw)

    return (
        [power(m, f"{f}({v}) = {v}^{m}, one of the four {dual}flat power laws") for m in powers]
        + [power(Frac(3), f"negative control: {v}^3 is not flat", expect_fail=True)]
        + [SolutionSpec(id=_triple_id(f"{f}-triple", abc), picture=picture, family="hyper_triple",
                        params={"abc": HyperTriple(*abc), "constants": (1.0, 0.0, 0.0, 1.0)},
                        param_name="s",
                        domain=_Z1_ROOT_FREE_DOMAINS.get(abc, _S_DOMAIN),
                        note=f"{f}'' = {pair} over a {dual}flat hypergeometric pair")
           for abc in triples]
        + [SolutionSpec(id=_triple_id(f"{f}-schwarz", tr), picture=picture,
                        family="schwarz_triple_param",
                        params={"triple": SchwarzTriple(*tr), "exponents": exps, "power": sdot_power},
                        param_name="s", domain=_S_DOMAIN,
                        note=f"{f}'' = {sdot}/(s^e1 (s-1)^e2) over a Schwarzian solution")
           for tr, exps in classes.items()]
    )


def _build_catalog() -> Tuple[SolutionSpec, ...]:
    entries = _picture_entries("F_of_q", F_POWERS, F_HYPER_TRIPLES, F_SCHWARZ_CLASSES,
                               "z1^3", Frac(3, 2))
    entries += _picture_entries("H_of_t", H_POWERS, H_HYPER_TRIPLES, H_SCHWARZ_CLASSES,
                                "w1^4", Frac(2))
    entries.append(
        SolutionSpec(
            id="F-two-pole",
            picture="F_of_q",
            family="two_pole",
            params={"B": 1.0, "C": 3.0, "k": Frac(2, 3)},
            param_name="q",
            domain=(-0.95, 5.0),
            note="F rebuilt from the two-pole third-order solution, k = 2/3",
        )
    )
    entries.append(
        SolutionSpec(
            id="H-two-pole",
            picture="H_of_t",
            family="two_pole",
            params={"B": 0.0, "C": 1.0},
            param_name="t",
            domain=(0.05, 10.0),
            note="closed form H(t) = -(1/192) sqrt(t+C)(4t+3B+C)/(sqrt(t+B)(B-C)^3)",
            aliases=("twistor-case-5",),
        )
    )
    entries.append(
        SolutionSpec(
            id="H-ds-curve",
            picture="H_of_t",
            family="ds_curve",
            params={"a": 0.0, "b": 1.0, "f": (0.0, 0.0, 0.0)},
            param_name="t",
            domain=(1.05, 10.0),
            note="H = y' for the algebraic-curve branch y = sqrt((t-a)(t-b)^3) - f(t)",
        )
    )
    entries.append(
        SolutionSpec(
            id="F-elementary-r",
            picture="F_of_q",
            family="elementary_r",
            params={"constants": (1.0, 1.0, 1.0, -1.0)},
            param_name="r",
            domain=(1.05, 4.0),
            note="elementary pair in r = sqrt(s): z = c (r-1)^(1/3)(3r+1) + ...",
        )
    )
    return tuple(entries)


_CATALOG = _build_catalog()
_BY_ID = {}
for _e in _CATALOG:
    _BY_ID[_e.id] = _e
    for _a in _e.aliases:
        _BY_ID[_a] = _e


def catalog() -> Tuple[SolutionSpec, ...]:
    """All catalog entries, including the expect-fail negative controls."""
    return _CATALOG


def get_spec(case_id: str) -> SolutionSpec:
    try:
        return _BY_ID[case_id]
    except KeyError:
        raise UnknownCaseId(f"no catalog entry named {case_id!r}") from None


def _double_antiderivative(f: Jet1) -> Jet1:
    return f.antiderivative(0.0).antiderivative(0.0)


def _second_derivative_chain(pair, power: int) -> Jet1:
    """F'' (or H'') = z1^power reparametrised from s (or r) to q = z2/z1."""
    z1, z2 = pair
    DegenerateError.raise_where(z1.value() == 0, "z1 vanishes at the basepoint")
    q_of_s = z2 / z1
    DegenerateError.raise_where(q_of_s.deriv(1) == 0, "dq/ds = 0: the pair is degenerate here")
    s_of_q = jet_invert(q_of_s)
    return jet_compose(z1 ** power, s_of_q)


def _schwarz_second_derivative(s: Jet1, p, e1, e2, f0) -> Jet1:
    """F'' (H'') = sdot^p / (s^e1 (1 - s)^e2) over the jet s(q), valued f0 at q0.

    Its logarithmic derivative gives M f' = R f with M = sdot s (1 - s) and
    R = p sddot s (1 - s) + sdot^2 (e2 s - e1 (1 - s)): one triangular
    solve, whose row k + 1 is sum_j (j M_{k+1-j} - R_{k-j}) f_j = 0. M and R
    are known to the order of sddot, so f is to the order of sdot.
    """
    n = s.order
    m = n - 1
    c = s.coeffs
    sd = c[..., 1:] * _naturals(n)
    x, sdd, sd = c[..., :m], sd[..., 1:] * _naturals(m), sd[..., :m]
    P = x - _matvec(_toeplitz(x), x)
    fe1 = float(e1)
    lin = (fe1 + float(e2)) * x
    lin[..., 0] -= fe1
    T = _toeplitz(sd)
    R = float(p) * _matvec(_toeplitz(sdd), P) + _matvec(T, _matvec(T, lin))
    L = np.zeros(c.shape[:-1] + (n, n))
    L[..., 1:, 1:] = _toeplitz(_matvec(T, P)) * _naturals(m)
    L[..., 1:, :-1] -= _toeplitz(R)
    L[..., 0, 0] = 1.0
    return _jet(s.basepoint, _per_row(f0) * solve_lower(L, _unit(n)))


def admissible(spec: SolutionSpec, point):
    """`point`, a float or a float array, once every basepoint in it lies in spec.domain.

    DomainError marks the basepoints outside the closed interval, NaN
    among them. F_jet starts here, and so does the elementary pair's
    frame in r, which geometry builds without F_jet.
    """
    if type(point) is not float:
        point = np.asarray(point, dtype=float)
        if point.ndim == 0:
            point = float(point)
    lo, hi = spec.domain
    inside = (lo <= point) & (point <= hi)
    DomainError.raise_where(np.logical_not(inside),
                            lambda: f"{spec.id}: basepoint outside admissible [{lo}, {hi}]")
    return point


def F_jet(spec: SolutionSpec, point, order: int = 8) -> Jet1:
    """Jet of F(q) (F-picture) or H(t) (H-picture) for a catalog entry.

    `point` is a basepoint for spec.param_name, or an array of them; the
    jets of an array stack on a leading point axis. The jet has at least
    the order asked for; the families that integrate twice return more.
    For the s- and r-parametrised families it sits at the induced q0 (t0).
    A test that fails at some points of an array raises with `rows` set
    to the mask of those points.
    """
    point = admissible(spec, point)
    fam = spec.family
    if fam == "power_m":
        m = spec.params["m"]
        return jet_pow(jet_var(point, order), Fraction(m))
    if fam == "hyper_triple":
        c1, c2, c3, c4 = spec.params["constants"]
        e1, e2 = hypergeom_pair(spec.params["abc"], point, order)
        pair = (c1 * e1 + c2 * e2, c3 * e1 + c4 * e2)
        power = 3 if spec.picture == "F_of_q" else 4
        return _double_antiderivative(_second_derivative_chain(pair, power))
    if fam == "elementary_r":
        pair = closed_form_solution(spec.params["constants"], point, order)
        return _double_antiderivative(_second_derivative_chain(pair, 3))
    if fam == "schwarz_triple_param":
        e1, e2 = spec.params["exponents"]
        s = schwarz_solution(spec.params["triple"], point, order)
        # (s - 1)^e2 = (-1)^e2 (1 - s)^e2, a constant factor, which the degree-4
        # homogeneous sixth-order equations ignore; 1 - s > 0 on the s-domain.
        # sdot is 1 at q0, so F''(q0) = 1 / (s^e1 (1 - s)^e2)
        den = real_branch_power(point, e1) * real_branch_power(1.0 - point, e2)
        return _double_antiderivative(_schwarz_second_derivative(s, spec.params["power"], e1, e2, 1.0 / den))
    if fam == "two_pole":
        B, C = spec.params["B"], spec.params["C"]
        DomainError.raise_where(point <= max(-B, -C), "the real branch starts past both poles")
        if spec.picture == "F_of_q":  # the lift of I = 2 (log F'')': F'' = (q+C)^((k-6)/4) (q+B)^(-(k+6)/4)
            k = spec.params["k"]
            W = two_pole_jet(point, order, (-C, -B), ((k - 6) / 4, -(k + 6) / 4), 1.0, (0.0, 0.0))
            return W / W.deriv(2)
        return two_pole_jet(point, order, *dual_two_pole(-B, -C, point)) * (-1.0 / (192.0 * (B - C) ** 3))
    if fam == "ds_curve":  # H = y' of the branch y = sqrt((t-a)(t-b)^3) - f(t): f(t; a, b)/2 - f1 - 2 f2 t
        a, b = spec.params["a"], spec.params["b"]
        _, f1, f2 = spec.params["f"]
        poles, exponents, scale, (slope, value) = dual_two_pole(a, b, point)
        return two_pole_jet(point, order, poles, exponents, 0.5 * scale,
                            (0.5 * slope - 2.0 * f2, 0.5 * value - (f1 + 2.0 * f2 * point)))
    raise UnknownCaseId(f"unhandled family {fam!r}")


def two_pole_jet(x0, order: int, poles, exponents, scale, ends) -> Jet1:
    """Jet at x0 (one point, or a stack) of the W with W'' = scale (x - p1)^e1 (x - p2)^e2, a product
    that cancels nowhere, and (W', W) = ends at x0: the two-pole class of either picture."""
    (p1, p2), (e1, e2) = poles, exponents
    x = jet_var(x0, order)
    W2 = scale * jet_pow(x - p1, e1) * jet_pow(x - p2, e2)
    return W2.antiderivative(ends[0]).antiderivative(ends[1])


def dual_two_pole(t1: float, t2: float, t0):
    """two_pole_jet's (poles, exponents, scale, ends) for f(t) = (4t - 3 t1 - t2) sqrt((t - t2)/(t - t1))
    at t0 (one point, or a stack): f'' = (3/4) d^3 a^(-5/2) b^(-3/2), f' = (4a^2 + 2ad - d^2/2)/(a sqrt(ab))
    and f = (4a + d) sqrt(ab)/a, with a = t - t1, b = t - t2 and d = t1 - t2."""
    if t1 == t2:
        raise DegenerateError("t1 = t2: f'' vanishes identically")
    a, b, d = t0 - t1, t0 - t2, t1 - t2
    BranchError.raise_where((a <= 0) | (b <= 0), "t must exceed t1 and t2 for the real branch")
    root = np.sqrt(a * b)
    ends = ((4.0 * a * a + 2.0 * a * d - 0.5 * d * d) / (a * root), (4.0 * a + d) * root / a)
    return (t1, t2), (Frac(-5, 2), Frac(-3, 2)), 0.75 * d**3, ends


def legendre_transform(F: Jet1) -> Tuple[float, Jet1]:
    """(t0, H) with H the Legendre transform of F: t = F', H(t) = q t - F.

    F may stack jets on a leading point axis; so do t0 and H then.
    """
    Fp = F.derivative()
    DegenerateError.raise_where(Fp.deriv(1) == 0, "F'' = 0: the Legendre transform degenerates")
    q0 = F.basepoint
    t0 = Fp.value()
    q_of_t = jet_invert(Fp)  # H' = q as a function of t
    H0 = q0 * t0 - F.value()
    return t0, q_of_t.antiderivative(H0)


def dual_residual(spec: SolutionSpec, jet: Jet1) -> float:
    """The dual sixth-order residual of jet = F_jet(spec, ...): of H itself, or of F's Legendre transform."""
    return residual_ds6(jet if spec.picture == "H_of_t" else legendre_transform(jet)[1])
