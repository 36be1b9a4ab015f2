"""Stacked and closed-form kernels against the per-point code they replaced.

The former implementations live here as oracles: the rational-jet
Schwarzian potential, the per-order Schwarz recurrence with its quotient of
two solutions and series inverse, and F'' (H'') as a quotient of three
real powers over that s(q).
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from c235 import cli, specialfn
from c235.chazy import SchwarzTriple, schwarz_solution
from c235.dist import F_jet, catalog
from c235.errors import DegenerateError, DivisionByZeroJet, SeriesDomainError, SingularPointError
from c235.jets import Jet1, jet_invert, jet_pow, jet_var
from c235.specialfn import (
    DEGREE6_GAP,
    TRANSFORM_KINDS,
    HyperTriple,
    hyp2f1_jet,
    hypergeom_pair,
    schwarz_potential,
    transform_identity_check,
    wronskian_check,
)

from oracles import CLOSED_FORMS, MAPPED_KINDS, compose_invert_monomials

# --- the former code -------------------------------------------------------


def former_schwarz_potential(alpha, beta, gamma, s: Jet1) -> Jet1:
    """V(s) = (1-b^2)/s^2 + (1-g^2)/(s-1)^2 + (b^2+g^2-a^2-1)/(s(s-1)) by jet division."""
    sm1 = s - 1.0
    ssm1 = s * sm1
    num = (
        (1 - beta**2) * sm1 * sm1
        + (1 - gamma**2) * s * s
        + (beta**2 + gamma**2 - alpha**2 - 1) * ssm1
    )
    return num / (ssm1 * ssm1)


def former_schwarz_solution(tr, s0, order=8, ics=(1.0, 0.0, 0.3, 1.0)) -> Jet1:
    """The Schwarz solution by one convolution per order of u'' + V u / 4 = 0."""
    n = order + 2
    V = former_schwarz_potential(*tr.as_floats(), jet_var(s0, n)).coeffs[..., None, :]
    u = np.zeros(np.shape(s0) + (2, n + 1))
    u[..., :2] = np.reshape(ics, (2, 2))
    for k in range(n - 1):
        conv = np.sum(V[..., : k + 1] * u[..., k::-1], axis=-1)
        u[..., k + 2] = -0.25 * conv / ((k + 2) * (k + 1))
    ua, ub = Jet1(s0, u[..., 0, :]), Jet1(s0, u[..., 1, :])
    return jet_invert((ub / ua).truncate(order))


def former_schwarz_F_jet(spec, s0, order=8) -> Jet1:
    """F_jet of a Schwarz entry as sdot^p / (s^e1 (1 - s)^e2) by three jet_pow and a division."""
    e1, e2 = spec.params["exponents"]
    s = former_schwarz_solution(spec.params["triple"], s0, order)
    F2 = jet_pow(s.derivative(), spec.params["power"]) / (jet_pow(s, e1) * jet_pow(1.0 - s, e2))
    return F2.antiderivative(0.0).antiderivative(0.0)


# --- the Schwarzian potential and solution --------------------------------

SCHWARZ_TRIPLES = sorted(
    {tuple(Fraction(x) for x in row.schwarz) for row in CLOSED_FORMS.values() if row.schwarz}
    | {tuple(Fraction(x) for x in s.params["triple"])
       for s in catalog() if s.family == "schwarz_triple_param"}
)
S_GRID = np.linspace(0.05, 0.95, 19)


def _close_per_row(new: np.ndarray, old: np.ndarray, rel: float = 1e-13):
    scale = np.max(np.abs(old), axis=-1, keepdims=True)
    assert np.all(np.abs(new - old) <= rel * scale)


@pytest.mark.parametrize("trip", SCHWARZ_TRIPLES, ids=str)
def test_closed_form_potential_matches_jet_division(trip):
    tr = tuple(float(x) for x in trip)
    stacked = schwarz_potential(*tr, S_GRID, 10).coeffs
    _close_per_row(stacked, former_schwarz_potential(*tr, jet_var(S_GRID, 10)).coeffs)
    for i, s0 in enumerate(S_GRID):
        single = schwarz_potential(*tr, float(s0), 10).coeffs
        _close_per_row(single, former_schwarz_potential(*tr, jet_var(float(s0), 10)).coeffs)
        np.testing.assert_array_equal(single, stacked[i])


def test_potential_keeps_its_error_at_the_poles():
    for s0 in (0.0, 1.0):
        with pytest.raises(DivisionByZeroJet):
            schwarz_potential(3.0, 3.0, 3.0, s0, 4)
    with pytest.raises(DivisionByZeroJet) as info:
        schwarz_potential(3.0, 3.0, 3.0, np.array([0.5, 1.0, 0.2]), 4)
    assert info.value.rows.tolist() == [False, True, False]


# The former code forms q = u2/u1 and inverts the series, which magnifies the
# rounding of the pair: at the worst rows below it sits up to 2.9e-13 of the
# row's largest coefficient from a 60-digit reference, where s(q) from u1 alone
# (ds/dq = u1^2) sits at most 4.0e-14 from it. The two codes differ by up to
# 3.1e-13 over S_GRID.
SOLUTION_REL = 5e-13


@pytest.mark.parametrize("trip", SCHWARZ_TRIPLES, ids=str)
def test_schwarz_solution_matches_the_per_order_recurrence(trip):
    tr = SchwarzTriple(*trip)
    stacked = schwarz_solution(tr, S_GRID).coeffs
    _close_per_row(stacked, former_schwarz_solution(tr, S_GRID).coeffs, SOLUTION_REL)
    for i, s0 in enumerate(S_GRID):
        single = schwarz_solution(tr, float(s0)).coeffs
        _close_per_row(single, former_schwarz_solution(tr, float(s0)).coeffs, SOLUTION_REL)
        _close_per_row(single, stacked[i])


def _reference_schwarz_solution(trip, s0, order=8, ics=(1.0, 0.0, 0.3, 1.0)):
    """The Schwarz solution jet at 60 digits: exact V coefficients, the same doubles as ics."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        a, b, g = (mp.mpf(Fraction(x).numerator) / Fraction(x).denominator for x in trip)
        x, y, n = 1 / mp.mpf(s0), 1 / (mp.mpf(s0) - 1), order + 2
        V = [(k + 1) * ((1 - b**2) * x**2 * (-x) ** k + (1 - g**2) * y**2 * (-y) ** k)
             + (b**2 + g**2 - a**2 - 1) * (y * (-y) ** k - x * (-x) ** k) for k in range(n + 1)]
        pair = []
        for u0, u1 in (ics[:2], ics[2:]):
            u = [mp.mpf(u0), mp.mpf(u1)]
            for k in range(n - 1):
                u.append(-sum(V[m] * u[k - m] for m in range(k + 1)) / (4 * (k + 2) * (k + 1)))
            pair.append(u[: order + 1])
        ua, ub = pair
        q = []
        for k in range(order + 1):
            q.append((ub[k] - sum(q[j] * ua[k - j] for j in range(k))) / ua[0])
        # g(q(x)) = x: sum_j g_j [(q - q0)^j]_k = [k == 1] for k = 1..order
        power, M = [mp.mpf(1)] + [mp.mpf(0)] * order, mp.matrix(order, order)
        for j in range(1, order + 1):
            power = [sum(power[i] * q[k - i] for i in range(k)) for k in range(order + 1)]
            for k in range(1, order + 1):
                M[k - 1, j - 1] = power[k]
        rhs = mp.matrix([1] + [0] * (order - 1))
        g = mp.lu_solve(M, rhs)
        return np.array([float(s0)] + [float(g[i]) for i in range(order)])


@pytest.mark.parametrize("trip,s0", [
    ((Fraction(2, 3), Fraction(1, 2), Fraction(1, 3)), 0.1),
    ((Fraction(3, 2), Fraction(1, 3), Fraction(1, 2)), 0.95),
    ((Fraction(2, 3), 2, Fraction(1, 3)), 0.95),
], ids=str)
def test_schwarz_solution_as_accurate_as_the_former_at_its_worst_rows(trip, s0):
    ref = _reference_schwarz_solution(trip, s0)
    scale = np.max(np.abs(ref))
    tr = SchwarzTriple(*trip)
    new = np.max(np.abs(schwarz_solution(tr, s0).coeffs - ref)) / scale
    old = np.max(np.abs(former_schwarz_solution(tr, s0).coeffs - ref)) / scale
    assert new < 1e-13 and old < 5e-13


SCHWARZ_ENTRIES = [s for s in catalog() if s.family == "schwarz_triple_param"]
# the worst row, 7.0e-13 of its largest coefficient, is F-schwarz-(3/2,1/3,1/2) on
# the stack; at one point the worst is 6.4e-13, the same entry at s0 = 0.95
F_JET_REL = 1.5e-12


@pytest.mark.parametrize("spec", SCHWARZ_ENTRIES, ids=lambda s: s.id)
def test_schwarz_F_jet_matches_the_former_construction(spec):
    stack = np.linspace(0.05, 0.95, 10)
    _close_per_row(F_jet(spec, stack, 6).coeffs, former_schwarz_F_jet(spec, stack, 6).coeffs, F_JET_REL)
    for s0 in (0.05, 0.95):
        _close_per_row(F_jet(spec, s0, 8).coeffs, former_schwarz_F_jet(spec, s0, 8).coeffs, F_JET_REL)


# --- the 2F1 series ---------------------------------------------------------


def test_series_still_rejects_the_unit_circle():
    p = HyperTriple(Fraction(-1, 4), Fraction(5, 12), Fraction(1, 2))
    with pytest.raises(SeriesDomainError) as exc:
        hyp2f1_jet(p, np.array([0.5, -1.0, 0.3, 1.5]))
    assert exc.value.rows.tolist() == [False, True, False, True]


# --- stacked identity checks -----------------------------------------------


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_identity_matches_a_per_sample_loop(kind, n):
    s0 = cli._identity_samples(kind, np.random.default_rng(n), n)
    stacked = transform_identity_check(kind, s0)
    assert stacked.shape == (n,)
    loop = [transform_identity_check(kind, float(s)) for s in s0]
    assert all(isinstance(v, float) for v in loop)
    np.testing.assert_allclose(stacked, loop, rtol=0, atol=1e-14)


# --- the mapped identities against composition with the inverse series ---------

@np.errstate(all="ignore")
def _placed(kind, s0):
    """Where the samples s0 of a kind sit in s: at t(s0) for an involution, in numpy's
    arithmetic at one point too, as transform_identity_check places them."""
    row = specialfn._IDENTITIES[kind]
    s0 = np.asarray(s0, dtype=float) if np.ndim(s0) else np.float64(s0)
    return specialfn._map_values(row, s0)[0] if row.involution else s0


def _scaled(monomials, reference):
    """The monomials (3, points) over the one that is largest, at each point, in the reference."""
    m, ref = np.atleast_2d(np.transpose(monomials)), np.atleast_2d(np.transpose(reference))
    largest = np.argmax(np.abs(ref), axis=1)
    rows = np.arange(len(ref))
    return m / m[rows, largest][:, None], ref / ref[rows, largest][:, None]


@pytest.mark.parametrize("kind", MAPPED_KINDS)
def test_mapped_identities_match_compose_invert(kind):
    # the order-2 chain rule on the factor table against the former composition of the
    # solution's jet with the inverse series of t(s): the monomials are those on
    # b**-e Z, so they agree up to a factor per point, which the scaling divides out
    stack = cli._identity_samples(kind, np.random.default_rng(0), 200)
    singles = cli._identity_samples(kind, np.random.default_rng(1), 5).tolist()
    if kind in ("cubic", "degree4"):
        singles.append(0.0)  # a zero of t, where t' is not 0
    for s0 in [stack, *singles]:
        s = _placed(kind, s0)
        got, want = _scaled(specialfn._mapped_monomials(specialfn._IDENTITIES[kind], s),
                            compose_invert_monomials(kind, s))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{kind} at {s0}")


# where each mapped kind's map or its series fails: t' = 0 (degree6 at 0, 1, -1 and 2),
# a pole of t (s = 1), and points outside a series' domain or not finite
EDGE_POINTS = [0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 0.999999, 1.0000001, 1e200, -1e200,
               np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("kind", MAPPED_KINDS)
def test_mapped_identities_raise_as_compose_invert(kind):
    # each edge point, alone and in a stack after a good sample, raises the error, with
    # the rows, that the former composition raised, or both give a residual; the check
    # runs with RuntimeWarnings as errors, the former composition without its warnings
    def outcome(check, s0):
        try:
            return "value", np.shape(check(s0))
        except Exception as exc:
            rows = getattr(exc, "rows", None)
            return type(exc), None if rows is None else rows.tolist()

    @np.errstate(all="ignore")
    def former(s0):
        return specialfn.relative_residual(compose_invert_monomials(kind, _placed(kind, s0)))

    for x in EDGE_POINTS:
        if kind == "degree6" and DEGREE6_GAP[0] < x < sum(DEGREE6_GAP):
            continue  # refused before either path runs
        for s0 in (x, np.array([0.3, x])):
            assert outcome(lambda v: transform_identity_check(kind, v), s0) == outcome(former, s0), (kind, s0)


def test_mapped_identities_refuse_a_point_where_t_prime_underflows():
    # at s = 1e-300 degree6's t' = 27 s / 2 is 1.35e-299 and t'^2 underflows to 0: the
    # chain rule's d2Z/dt2 is not finite (a division by 0, which the check computes
    # under np.errstate), where the inverse series' solve raised numpy's LinAlgError
    for s0 in (1e-300, np.array([0.3, -1e-300])):
        with pytest.raises(DegenerateError):
            transform_identity_check("degree6", s0)


@pytest.mark.parametrize("n", range(1, 8))
def test_stacked_wronskian_matches_a_per_sample_loop(n):
    p = CLOSED_FORMS["table1_row1"].hyper
    pair = lambda s: hypergeom_pair(p, s)
    s0 = np.random.default_rng(n).uniform(0.08, 0.92, n)
    stacked = wronskian_check(pair, p, 0.5, s0)
    assert stacked.shape == (n,)
    loop = [wronskian_check(pair, p, 0.5, float(s)) for s in s0]
    assert all(isinstance(v, float) for v in loop)
    np.testing.assert_allclose(stacked, loop, rtol=0, atol=1e-14)


@pytest.mark.parametrize("samples", [1, 3, 7, 300])
def test_identity_draws_match_one_draw_per_sample(samples, capsys, monkeypatch):
    # the values are covered above; here only the draws and the chunks matter
    chunks = []

    def record(kind, s0):
        chunks.append(len(s0))
        return np.zeros(len(s0))

    monkeypatch.setattr(cli, "_identity_values", record)
    for seed in range(21):
        chunks.clear()
        assert cli.main(["identities", "--kind", "all", "--samples", str(samples),
                         "--seed", str(seed), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rng = np.random.default_rng(seed)
        former = []
        for kind in cli.IDENTITY_KINDS:
            if kind == "degree6":
                # as many doubles, from (0.08, 0.90), stepped over DEGREE6_GAP
                former += [s + 0.02 if s >= 0.49 else s
                           for s in rng.uniform(0.08, 0.90, samples).tolist()]
            else:
                # every other kind: the doubles of one draw per sample
                former += [float(rng.uniform(0.08, 0.45 if kind == "quadratic" else 0.92))
                           for _ in range(samples)]
        assert [r["s0"] for r in payload["results"]] == former
        assert not any(0.49 < r["s0"] < 0.51 for r in payload["results"] if r["kind"] == "degree6")
        assert max(chunks) <= cli.IDENTITY_CHUNK
        assert sum(chunks) == samples * len(cli.IDENTITY_KINDS)


# --- the degree6 identity around s = 1/2 -------------------------------------


def test_degree6_rejects_its_excluded_interval():
    lo, width = DEGREE6_GAP
    hi = lo + width
    s0 = np.array([0.3, 0.4995, 0.5, 0.5099, 0.7])
    with pytest.raises(SingularPointError) as exc:
        transform_identity_check("degree6", s0)
    assert exc.value.rows.tolist() == [False, True, True, True, False]
    with pytest.raises(SingularPointError):
        transform_identity_check("degree6", 0.5)
    # the ends of the open interval are still checked
    assert transform_identity_check("degree6", np.array([lo, hi])).max() < 1e-10


def test_degree6_holds_on_a_grid_outside_the_excluded_interval():
    s0 = np.linspace(0.08, 0.92, 4001)
    lo, width = DEGREE6_GAP
    s0 = s0[(s0 <= lo) | (s0 >= lo + width)]
    assert transform_identity_check("degree6", s0).max() < 1e-10


@pytest.mark.parametrize("gap", [DEGREE6_GAP, (0.3, 0.05)])
def test_degree6_samples_stay_off_the_gap(gap, monkeypatch):
    # the sampler reads its gap from the one constant, so a moved gap moves the samples too
    monkeypatch.setattr(cli, "DEGREE6_GAP", gap)
    lo, width = gap
    for seed in range(100):
        s0 = cli._identity_samples("degree6", np.random.default_rng(seed), 2000)
        assert not np.any((s0 >= lo) & (s0 <= lo + width)), seed
        assert np.all((s0 >= 0.08) & (s0 < 0.92)), seed


def test_degree6_seed_that_drew_near_one_half_passes(capsys):
    # with one draw from (0.08, 0.92) this seed's third sample was 0.49990
    assert cli.main(["identities", "--kind", "degree6", "--samples", "3",
                     "--seed", "891869625", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"] == {"passed": 3, "failed": 0}
