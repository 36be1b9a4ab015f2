import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from c235 import cli, specialfn
from c235.dist import catalog
from c235.errors import (
    BranchError,
    DegenerateError,
    LinearDependenceError,
    PoleError,
    SeriesDomainError,
    SingularPointError,
    ZeroWronskianError,
)
from c235.jets import Jet1, jet_var
from c235.specialfn import (
    HyperTriple,
    TRANSFORM_KINDS,
    _terminating_length,
    closed_form_solution,
    hyp2f1_jet,
    hypergeom_pair,
    hypergeom_residual,
    relative_residual,
    schwarz_potential,
    transform_identity_check,
    wronskian_check,
)

from oracles import CLOSED_FORMS, closed_form_ode_residual, closed_form_pair, u_ode_residual

# the paper's hypergeometric triples, and the rows that solve u'' + V u / 4 = 0
CLOSED_FORM_HYPER = {f: row.hyper for f, row in CLOSED_FORMS.items() if row.hyper is not None}
SCHWARZ_ROWS = sorted(f for f, row in CLOSED_FORMS.items() if row.schwarz is not None)

S_POINTS = [0.11, 0.23, 0.37, 0.52, 0.68, 0.81]


# --- series engine -------------------------------------------------------


def test_relative_residual_refuses_a_point_that_is_not_finite():
    # monomials on axis 0, three points on axis 1: a NaN at point 1, an inf at point 2
    with pytest.raises(DegenerateError, match="residual is not finite at this point") as exc:
        relative_residual([[1.0, np.nan, 1.0], [-1.0, 1.0, np.inf]])
    assert exc.value.rows.tolist() == [False, True, True]
    with pytest.raises(DegenerateError):
        relative_residual([np.nan, 1.0])
    assert relative_residual([2.0, -1.0]) == 0.5


@pytest.mark.parametrize("s0", S_POINTS)
def test_displayed_truncations_match_exactly(s0):
    cases = [
        (HyperTriple(-4, -1, -2), lambda s: 1.0 - 2.0 * s),
        (
            HyperTriple(Fraction(-4, 3), Fraction(5, 3), Fraction(2, 3)),
            lambda s: (3 * s * s - 4 * s + 1) * (1 - s) ** (-2.0 / 3.0),
        ),
        (HyperTriple(Fraction(-4, 3), -1, -2), lambda s: 1.0 - 2.0 * s / 3.0),
        (HyperTriple(Fraction(-4, 3), -1, Fraction(2, 3)), lambda s: 1.0 + 2.0 * s),
    ]
    for triple, closed in cases:
        got = hyp2f1_jet(triple, s0, 4).value()
        assert got == pytest.approx(closed(s0), rel=1e-13, abs=1e-13)


def test_quartic_truncation_polynomial():
    # the degree-4 terminating series (a = -4) written out
    s0 = 0.42
    jet = hyp2f1_jet(HyperTriple(-4, 2, Fraction(-1, 2)), s0, 6)
    s = s0
    expected = -128 * s**4 + 256 * s**3 - 144 * s * s + 16 * s + 1
    assert jet.value() == pytest.approx(expected, rel=1e-13)
    # degree 4 polynomial: 5th and 6th coefficients vanish
    assert jet.coeffs[5] == pytest.approx(0.0, abs=1e-10)
    assert jet.coeffs[6] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("s0", S_POINTS)
def test_hyp2f1_jet_satisfies_its_ode(s0):
    for triple in CLOSED_FORM_HYPER.values():
        z = hyp2f1_jet(triple, s0, 6)
        assert hypergeom_residual(z, triple) < 1e-12
        # the full jet, not just the value: residual at the shifted point
        z_shift = Jet1(s0, z.coeffs[:5])
        assert hypergeom_residual(z_shift, triple) < 1e-12


def _second_solution(p: HyperTriple) -> HyperTriple:
    return HyperTriple(p.a - p.c + 1, p.b - p.c + 1, 2 - p.c)


_CATALOG_TRIPLES = {HyperTriple(*s.params["abc"]) for s in catalog() if s.family == "hyper_triple"}
# the triples summed by the identity kinds and by the closed forms' bases
_IDENTITY_TRIPLES = {
    HyperTriple(Fraction(-7, 6), Fraction(-8, 3), Fraction(2, 3)),
    HyperTriple(Fraction(11, 6), Fraction(10, 3), Fraction(2, 3)),
    HyperTriple(Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)),
    HyperTriple(Fraction(1, 12), Fraction(1, 12), Fraction(2, 3)),
    HyperTriple(Fraction(-2, 3), Fraction(5, 6), Fraction(1, 2)),
    HyperTriple(Fraction(7, 6), Fraction(-1, 3), Fraction(4, 3)),
    HyperTriple(Fraction(13, 6), Fraction(11, 3), Fraction(4, 3)),
    HyperTriple(Fraction(5, 3), Fraction(7, 3), Fraction(5, 2)),
    HyperTriple(Fraction(1, 6), Fraction(5, 6), Fraction(-1, 2)),
    HyperTriple(Fraction(1, 3), 1, Fraction(7, 6)),
}
SERIES_TRIPLES = sorted(
    (p for p in _CATALOG_TRIPLES | {_second_solution(p) for p in _CATALOG_TRIPLES}
     | set(CLOSED_FORM_HYPER.values()) | _IDENTITY_TRIPLES if _terminating_length(p) is None),
    key=HyperTriple.label,
)
JET_POINTS = [0.0, 0.01, 0.024, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98]


def _reference_jet(p: HyperTriple, s0: float, order: int) -> np.ndarray:
    """Taylor coefficients (a)_k (b)_k / ((c)_k k!) 2F1(a+k, b+k; c+k; s0) at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, b, c = (mp.mpf(x.numerator) / x.denominator for x in p)
        return np.array([
            float(mp.rf(a, k) * mp.rf(b, k) / (mp.rf(c, k) * mp.factorial(k))
                  * mp.hyp2f1(a + k, b + k, c + k, s0))
            for k in range(order + 1)
        ])


@pytest.mark.parametrize("p", SERIES_TRIPLES, ids=HyperTriple.label)
def test_every_jet_coefficient_matches_mpmath(p):
    # the former ODE recurrence divided by s0 (1 - s0): it was 1.6e-7 off at 0.05
    for s0 in JET_POINTS:
        ref = _reference_jet(p, s0, 8)
        got = hyp2f1_jet(p, s0, 8).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), s0


@pytest.mark.parametrize("p", [
    HyperTriple(Fraction(21, 2), Fraction(21, 2), Fraction(41, 2)),
    HyperTriple(Fraction(-21, 2), Fraction(-7, 3), Fraction(-41, 2)),
], ids=HyperTriple.label)
def test_a_series_far_from_its_asymptotics_sums_more_terms(p):
    # with parameters this large the terms still grow where m^e |s0|^m has
    # peaked, so the first term count falls short and is doubled
    for order in (0, 8):
        for s0 in (0.5, 0.7, 0.9, 0.99):
            ref = _reference_jet(p, s0, order)
            got = hyp2f1_jet(p, s0, order).coeffs
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (order, s0)


@pytest.mark.parametrize("order", [0, 2, 6, 8])
@pytest.mark.parametrize("p", SERIES_TRIPLES, ids=HyperTriple.label)
def test_stacked_jets_equal_single_point_jets(p, order, monkeypatch):
    s0 = np.concatenate([np.linspace(-0.99, 0.99, 23), JET_POINTS])
    stacked = hyp2f1_jet(p, s0, order).coeffs
    for row, s in zip(stacked, s0):
        np.testing.assert_array_equal(row, hyp2f1_jet(p, float(s), order).coeffs)
    # a stack past the table size sums each count's points apart, to the same bits
    monkeypatch.setattr(specialfn, "SERIES_TABLE_ENTRIES", 0)
    np.testing.assert_array_equal(hyp2f1_jet(p, s0, order).coeffs, stacked)


@pytest.mark.parametrize("p", SERIES_TRIPLES, ids=HyperTriple.label)
def test_one_row_residuals_are_their_rows_of_a_stack(p):
    # a single point and a 1-row stack take the one-point series branch; each
    # must give its row of a 3-row stack, and the hypergeometric residual of that row,
    # exactly: on a solution and on a control that fails
    s0 = np.array([0.2, 0.45, 0.8])
    for jet in (lambda s: hyp2f1_jet(p, s, 6), lambda s: jet_var(s, 6) ** 2):
        stack = jet(s0)
        stacked = hypergeom_residual(stack, p)
        for i, s in enumerate(s0):
            row, one = jet(s0[i:i + 1]), jet(float(s))
            np.testing.assert_array_equal(row.coeffs, stack.coeffs[i:i + 1])
            np.testing.assert_array_equal(one.coeffs, stack.coeffs[i])
            assert hypergeom_residual(row, p).tolist() == [stacked[i]]
            assert hypergeom_residual(one, p) == stacked[i]


@pytest.mark.parametrize("s0", [0.3 + 0.4j, -11.5, 2.5, complex(-0.5, 0.5 * np.sqrt(3.0)), 1.0])
def test_terminating_series_accept_any_point(s0):
    # the cubic identity sums (-4, -1; -2) at complex s, and frac_linear_s_over_sm1
    # sums (-4/3, -1; 2/3) at s / (s - 1) < 0
    for triple, poly in [
        (HyperTriple(-4, -1, -2), [1.0, -2.0]),
        (HyperTriple(Fraction(-4, 3), -1, Fraction(2, 3)), [1.0, 2.0]),
        (HyperTriple(-4, 2, Fraction(-1, 2)), [1.0, 16.0, -144.0, 256.0, -128.0]),
    ]:
        got = hyp2f1_jet(triple, s0, 6).coeffs
        # the Taylor coefficients of the polynomial at s0
        want = np.polynomial.Polynomial(poly)
        expected = []
        for k in range(7):
            expected.append(want(s0) / math.factorial(k))
            want = want.deriv()
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-12 * np.max(np.abs(expected)))


def test_series_refuses_a_point_it_cannot_sum():
    p = HyperTriple(Fraction(-1, 4), Fraction(5, 12), Fraction(1, 2))
    with pytest.raises(SeriesDomainError):
        hyp2f1_jet(p, 1 - 1e-12, 8)
    with pytest.raises(SeriesDomainError) as exc:
        hyp2f1_jet(p, np.array([0.5, 1 - 1e-12, 0.98]), 8)
    assert exc.value.rows.tolist() == [False, True, False]
    # a 1-row stack counts its terms as a single point does, and keeps its mask
    with pytest.raises(SeriesDomainError) as exc:
        hyp2f1_jet(p, np.array([1 - 1e-12]), 8)
    assert exc.value.rows.tolist() == [True]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_refuses_a_basepoint_that_is_not_finite(bad):
    # |s0| >= 1 is False at NaN: the domain test reads not |s0| < 1
    p = HyperTriple(Fraction(-1, 4), Fraction(5, 12), Fraction(1, 2))
    for s0 in (bad, np.float64(bad)):
        with pytest.raises(SeriesDomainError) as exc:
            hyp2f1_jet(p, s0, 8)
        assert exc.value.rows is None
    with pytest.raises(SeriesDomainError) as exc:
        hyp2f1_jet(p, np.array([0.3, bad]), 8)
    assert exc.value.rows.tolist() == [False, True]


def test_series_refuses_a_pole():
    # (c)_n vanishes at n = 2, before the series of a = -4 ends at n = 4
    with pytest.raises(PoleError, match="before the series"):
        hyp2f1_jet(HyperTriple(-4, 1, -2), 0.3)
    # c = -2 and neither a nor b a non-positive integer: no series to sum
    with pytest.raises(PoleError, match="does not terminate"):
        hyp2f1_jet(HyperTriple(Fraction(1, 2), Fraction(1, 3), -2), 0.3)


# c log-uniform over 1e-6..1e6: both ODEs are linear, so a residual must not see c
SCALES = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)
SCALE_TRIPLE = HyperTriple(Fraction(-2, 3), Fraction(5, 6), Fraction(1, 2))


@given(SCALES, st.sampled_from(S_POINTS))
def test_hypergeom_residual_passes_a_true_solution_at_every_scale(c, s0):
    assert hypergeom_residual(c * hyp2f1_jet(SCALE_TRIPLE, s0, 6), SCALE_TRIPLE) < 1e-12


@given(SCALES)
def test_hypergeom_residual_control_fails_at_every_scale(c):
    # z = s^2 at s0 = 0.3: monomials 0.42, 0.09, 0.05, so the residual is 0.56 / 0.42
    base = hypergeom_residual(jet_var(0.3, 6) ** 2, SCALE_TRIPLE)
    assert base == pytest.approx(4.0 / 3.0, rel=1e-14)
    scaled = hypergeom_residual(c * jet_var(0.3, 6) ** 2, SCALE_TRIPLE)
    assert scaled == pytest.approx(base, rel=1e-14)


def test_hyp2f1_against_scipy():
    from scipy.special import hyp2f1 as scipy_hyp2f1

    for s0 in S_POINTS:
        for triple in CLOSED_FORM_HYPER.values():
            a, b, c = (float(x) for x in triple)
            ours = hyp2f1_jet(triple, s0, 2).value()
            ref = float(scipy_hyp2f1(a, b, c, s0))
            assert ours == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_pair_refuses_a_negative_base():
    # s^(1-c) is a real power of a positive base: s0 < 0 has none
    p = HyperTriple(Fraction(-1, 4), Fraction(5, 12), Fraction(1, 2))
    with pytest.raises(BranchError) as exc:
        hypergeom_pair(p, -0.3)
    assert exc.value.rows is None
    with pytest.raises(BranchError) as exc:
        hypergeom_pair(p, np.array([0.3, -0.3, 0.5]))
    assert exc.value.rows.tolist() == [False, True, False]


def test_second_solution_of_pair():
    p = HyperTriple(Fraction(-1, 4), Fraction(5, 12), Fraction(1, 2))
    for s0 in (0.2, 0.6):
        z1, z2 = hypergeom_pair(p, s0)
        assert hypergeom_residual(z1, p) < 1e-12
        assert hypergeom_residual(z2, p) < 1e-12
        # z2 = s^(1-c) 2F1(a-c+1, b-c+1; 2-c; s)
        shifted = HyperTriple(p.a - p.c + 1, p.b - p.c + 1, 2 - p.c)
        pref = s0 ** float(1 - p.c)
        assert z2.value() == pytest.approx(
            pref * hyp2f1_jet(shifted, s0, 2).value(), rel=1e-12
        )


# --- closed forms --------------------------------------------------------


@pytest.mark.parametrize("family", list(CLOSED_FORMS))
@pytest.mark.parametrize("s0", [0.15, 0.45, 0.85])
def test_closed_forms_satisfy_their_ode(family, s0):
    if family == "elementary_r":
        s0 = 1.0 + s0  # r-domain
    assert closed_form_ode_residual(family, s0) < 1e-10


@pytest.mark.parametrize("family", SCHWARZ_ROWS)
def test_second_order_potential_form(family):
    # u'' + V u / 4 = 0 with the weighted potential of the entry's triple
    tr = tuple(float(x) for x in CLOSED_FORMS[family].schwarz)
    z1, z2 = closed_form_pair(family, 0.3, 8)
    for u in (z1, z2):
        assert u_ode_residual(u, tr) < 1e-10


@given(SCALES, st.sampled_from(SCHWARZ_ROWS))
def test_u_ode_residual_passes_a_true_solution_at_every_scale(c, family):
    tr = tuple(float(x) for x in CLOSED_FORMS[family].schwarz)
    z1, z2 = closed_form_pair(family, 0.3, 8)
    assert max(u_ode_residual(c * z1, tr), u_ode_residual(c * z2, tr)) < 1e-12


@given(SCALES)
def test_u_ode_residual_control_fails_at_every_scale(c):
    # u = s^2 is no solution for (3, 3, 3): at 0.3, u'' = 2 and V u / 4 = -3.2245
    base = u_ode_residual(jet_var(0.3, 6) ** 2, (3.0, 3.0, 3.0))
    assert base == pytest.approx(0.379746835443038, rel=1e-12)
    scaled = u_ode_residual(c * jet_var(0.3, 6) ** 2, (3.0, 3.0, 3.0))
    assert scaled == pytest.approx(base, rel=1e-14)


def test_basis_mixing_constants():
    z1, z2 = closed_form_pair("table1_row1", 0.4, 6, (2.0, -1.0, 0.5, 3.0))
    e1, e2 = closed_form_pair("table1_row1", 0.4, 6)
    mixed1 = 2.0 * e1 + (-1.0) * e2
    mixed2 = 0.5 * e1 + 3.0 * e2
    assert np.allclose(z1.coeffs, mixed1.coeffs)
    assert np.allclose(z2.coeffs, mixed2.coeffs)


def test_dependent_constants_rejected():
    with pytest.raises(LinearDependenceError):
        closed_form_solution((1, 1, 1, 1), 2.0)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        closed_form_pair("table9_row9", 0.3)


@pytest.mark.parametrize("constants", [(1.0, 1.0, 1.0, -1.0), (1.0, 0.0, 0.0, 1.0)], ids=str)
@pytest.mark.parametrize("r0", [1.05, 1.5, 2.0, 3.0, 4.0, np.linspace(1.05, 4.0, 7)],
                         ids=["1.05", "1.5", "2", "3", "4", "stack"])
def test_elementary_pair_is_the_oracle_row(constants, r0):
    # the same operations on the same doubles: the package's pair is the table's, bit for bit
    for ours, row in zip(closed_form_solution(constants, r0),
                         closed_form_pair("elementary_r", r0, 8, constants)):
        assert np.array_equal(ours.coeffs, row.coeffs)


def test_elementary_pair_refuses_its_singular_points():
    with pytest.raises(SingularPointError) as exc:
        closed_form_solution((1, 0, 0, 1), np.array([2.0, 1.0, -1.0, -1.0 / 3.0, 0.5]))
    assert exc.value.rows.tolist() == [False, True, True, True, False]
    with pytest.raises(SingularPointError):
        closed_form_solution((1, 0, 0, 1), 1.0)


def test_schwarz_potential_pole_structure():
    # V has double poles at s = 0 and s = 1; residue data fixes the triple
    V = schwarz_potential(3.0, 3.0, 3.0, 0.5, 6)
    assert np.all(np.isfinite(V.coeffs))
    perturbed = u_ode_residual(jet_var(0.5, 6) ** 2, (3.0, 3.0, 3.0))
    assert perturbed > 1e-3


# --- Wronskian law -------------------------------------------------------


@pytest.mark.parametrize("family", ["table1_row1", "dual_k32_row1", "dual_k32_row3"])
def test_wronskian_law(family):
    p = CLOSED_FORM_HYPER[family]
    pair = lambda s: hypergeom_pair(p, s)
    for s0 in (0.2, 0.35, 0.65, 0.8):
        assert wronskian_check(pair, p, 0.5, s0) < 1e-9


def test_wronskian_law_rejects_a_dependent_pair():
    pair = lambda s: (jet_var(s, 6), 2.0 * jet_var(s, 6))
    with pytest.raises(ZeroWronskianError):
        wronskian_check(pair, CLOSED_FORM_HYPER["table1_row1"], 0.5, 0.3)


# --- transformation identities -------------------------------------------

IDENTITY_POINTS = [0.09, 0.16, 0.22, 0.31, 0.38, 0.44, 0.57, 0.66, 0.74, 0.88]


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
def test_transformation_identities(kind):
    for s0 in IDENTITY_POINTS:
        if kind == "quadratic" and s0 >= 0.5:
            # the identity's argument 4s(1-s) is symmetric under
            # s <-> 1-s; the function identity holds on the s < 1/2 branch
            s0 = s0 - 0.5
        assert transform_identity_check(kind, s0) < 1e-10, (kind, s0)


def test_quadratic_identity_branch():
    # beyond the branch point the two sides genuinely differ
    assert transform_identity_check("quadratic", 0.8) > 1e-3


@pytest.mark.parametrize("kind", [k for k in TRANSFORM_KINDS if k != "quadratic"])
def test_identity_fails_with_its_prefactor_exponent_moved(kind, monkeypatch):
    # through the table both recipes read: euler's 4.5 becomes 4.6, and each mapped
    # kind's b(s)**e gets e + 0.1 (frac_linear_1ms, with e = 0, a (1 - s)**0.1)
    row = specialfn._IDENTITIES[kind]
    monkeypatch.setitem(specialfn._IDENTITIES, kind, row[:-1] + (row[-1] + 0.1,))
    s0 = cli._identity_samples(kind, np.random.default_rng(0), 200)
    assert transform_identity_check(kind, s0).min() > 1e-6


def test_unknown_transform_kind():
    with pytest.raises(ValueError):
        transform_identity_check("nope", 0.3)
