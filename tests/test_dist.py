from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from c235.chazy import reduce_F_to_I, residual_6th, residual_ds6, residual_gen_chazy, two_pole_solution
from c235.dist import F_jet, catalog, get_spec, legendre_transform
from c235.errors import BranchError, DegenerateError, DomainError, SeriesDomainError, UnknownCaseId
from c235.geometry import flatness_suite, sample_points
from c235.jets import jet_invert, jet_pow, jet_var
from c235.specialfn import HyperTriple, hyp2f1_jet, hypergeom_pair

from oracles import closed_form_pair, ds_curve_solution, ds_curve_u, legendre_pair_map, weyl_flatness
from test_parity import F_JET_REL, former_schwarz_F_jet


# --- catalog integrity -----------------------------------------------------


def test_catalog_size_and_ids_unique():
    specs = catalog()
    ids = [s.id for s in specs]
    assert len(ids) == len(set(ids))
    assert len(specs) == 34


def test_catalog_pictures_and_controls():
    specs = catalog()
    assert sum(s.picture == "F_of_q" for s in specs) + sum(
        s.picture == "H_of_t" for s in specs
    ) == len(specs)
    controls = [s.id for s in specs if s.expect_fail]
    assert set(controls) == {"F-power-3", "H-power-3"}


def test_get_spec_alias_and_unknown():
    assert get_spec("twistor-case-5").id == "H-two-pole"
    with pytest.raises(UnknownCaseId):
        get_spec("F-power-7")


def test_specs_hash_and_key_dicts():
    # params, a dict, is left out of the hash; equality still compares it
    specs = catalog()
    by_spec = {spec: spec.id for spec in specs}
    assert len(by_spec) == len(specs)
    assert all(by_spec[spec] == spec.id for spec in specs)
    assert hash(get_spec("twistor-case-5")) == hash(get_spec("H-two-pole"))
    assert by_spec[get_spec("twistor-case-5")] == "H-two-pole"


def test_domain_enforced():
    spec = get_spec("F-power-2")
    with pytest.raises(DomainError):
        F_jet(spec, spec.domain[1] + 1.0)


# --- residuals over the whole catalog ---------------------------------------


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_catalog_entry_residual(spec):
    lo, hi = spec.domain
    points = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 3)
    residual = residual_6th if spec.picture == "F_of_q" else residual_ds6
    for pt in points:
        jet = F_jet(spec, float(pt))
        value = residual(jet)
        if spec.expect_fail:
            assert value > 1e-3
        else:
            assert value < 1e-8, (spec.id, pt, value)


# --- interior zeros of z1 -----------------------------------------------------

# hyper triples whose declared domain still holds a zero of z1 (ROADMAP item 1)
OPEN_Z1_ROOTS: set[str] = set()
Z1_DELTA = 0.04


@pytest.mark.parametrize(
    "spec",
    [pytest.param(s, marks=pytest.mark.xfail(s.id in OPEN_Z1_ROOTS, strict=True,
                                             reason="z1 vanishes inside the declared domain"))
     for s in catalog() if s.family == "hyper_triple"],
    ids=lambda s: s.id,
)
def test_hyper_triple_domain_keeps_away_from_z1_roots(spec):
    # bracket the sign changes of z1 on a grid of step < 5e-4 over the domain
    # widened by Z1_DELTA on each side (and kept inside (0, 1))
    lo, hi = spec.domain
    s = np.linspace(max(lo - Z1_DELTA, 0.005), min(hi + Z1_DELTA, 0.995), 2001)
    c1, c2, _, _ = spec.params["constants"]
    e1, e2 = hypergeom_pair(HyperTriple(*spec.params["abc"]), s, 1)
    z1 = c1 * e1.value() + c2 * e2.value()
    roots = np.nonzero(np.sign(z1[:-1]) * np.sign(z1[1:]) <= 0)[0]
    assert roots.size == 0, [(s[i], s[i + 1]) for i in roots]


# --- Legendre duality --------------------------------------------------------


@pytest.mark.parametrize(
    "case_id",
    [s.id for s in catalog() if s.picture == "F_of_q" and not s.expect_fail],
)
def test_legendre_maps_flat_to_flat(case_id):
    spec = get_spec(case_id)
    lo, hi = spec.domain
    F = F_jet(spec, 0.5 * (lo + hi))
    _, H = legendre_transform(F)
    assert residual_ds6(H) < 1e-8


def test_legendre_involution_to_order_six():
    F = F_jet(get_spec("F-power-2/3"), 0.8)
    t0, H = legendre_transform(F)
    _, F_back = legendre_transform(H)
    assert abs(F_back.basepoint - F.basepoint) < 1e-12
    assert np.allclose(F_back.coeffs[:7], F.coeffs[:7], atol=1e-10)


def test_legendre_degenerate_rejected():
    with pytest.raises(DegenerateError):
        legendre_transform(jet_var(0.5, 6))


def test_pair_map_cubic_quartic_relation():
    # (z1)^3 = (w1)^(-4) as jets in s
    z1, z2 = closed_form_pair("table1_row1", 0.3)
    w1, w2 = legendre_pair_map(z1, z2, "F_to_H")
    lhs = z1**3
    rhs = 1.0 / w1**4
    assert np.allclose(lhs.coeffs, rhs.coeffs[: len(lhs.coeffs)], atol=1e-11)


def test_pair_map_roundtrip():
    z1, z2 = closed_form_pair("table1_row1", 0.3)
    w1, w2 = legendre_pair_map(z1, z2, "F_to_H")
    z1b, z2b = legendre_pair_map(w1, w2, "H_to_F")
    # the roundtrip preserves the second-derivative data: compare the
    # log-derivative of z1, which carries the gauge-invariant content
    a = (z1.derivative() / z1).truncate(4)
    b = (z1b.derivative() / z1b).truncate(4)
    assert np.allclose(a.coeffs, b.coeffs, atol=1e-10)


def test_pair_map_branch_guard():
    z1, z2 = closed_form_pair("table1_row1", 0.3)
    with pytest.raises(BranchError):
        legendre_pair_map(-z1, z2, "F_to_H")


def test_schwarz_family_refuses_a_negative_base_past_s_1():
    # F'' = sdot^(3/2) / (s^e1 (s - 1)^e2) takes (1 - s)^e2 for (s - 1)^e2, a
    # constant factor; past s = 1 its base is negative, and e2 = 5/4 has no real branch
    spec = get_spec("F-schwarz-(6,3/2,3/2)")
    assert spec.params["exponents"] == (Fraction(5, 4), Fraction(5, 4))
    wide = replace(spec, domain=(0.05, 1.5))
    text = "negative base with exponent 5/4 has no real branch"
    with pytest.raises(BranchError) as exc:
        F_jet(wide, np.array([0.5, 1.2, 0.7]))
    assert str(exc.value) == text and exc.value.rows.tolist() == [False, True, False]
    with pytest.raises(BranchError) as exc:
        F_jet(wide, 1.2)
    assert str(exc.value) == text
    # below s = 1 the widened entry is the catalog's own
    assert np.array_equal(F_jet(wide, 0.7).coeffs, F_jet(spec, 0.7).coeffs)


def test_schwarz_family_takes_an_odd_root_past_s_1():
    # e2 = 4/3 has the real cube root: past s = 1 the base 1 - s is negative and
    # (1 - s)^(4/3) positive, as jet_pow takes it in the former construction
    spec = get_spec("H-schwarz-(2/3,1/2,1/3)")
    assert spec.params["exponents"] == (Fraction(1), Fraction(4, 3))
    wide = replace(spec, domain=(0.05, 1.5))
    pts = np.array([0.5, 1.2, 0.7, 1.45])
    stack = F_jet(wide, pts).coeffs
    for i, s0 in enumerate(pts):
        one = F_jet(wide, float(s0)).coeffs
        former = former_schwarz_F_jet(wide, float(s0)).coeffs
        assert np.all(np.abs(one - former) <= F_JET_REL * np.max(np.abs(former)))
        assert np.allclose(stack[i], one, rtol=1e-13, atol=0)


# --- the two-pole class: F-two-pole, H-two-pole and H-ds-curve ----------------

TWO_POLE_CASES = ["F-two-pole", "H-two-pole", "H-ds-curve"]


def _two_pole_closed_form(spec, mp, x0):
    """(w, j): the entry's j-th derivative in closed form, an mpmath function. F-two-pole's
    F and F' are gauge zeros, so its w is F'' = (q+C)^((k-6)/4) (q+B)^(-(k+6)/4), 1 at x0."""
    if spec.picture == "F_of_q":
        B, C, x0 = (mp.mpf(v) for v in (spec.params["B"], spec.params["C"], x0))
        k = mp.mpf(spec.params["k"].numerator) / spec.params["k"].denominator
        return lambda q: ((q + C) / (x0 + C)) ** ((k - 6) / 4) * ((q + B) / (x0 + B)) ** (-(k + 6) / 4), 2
    if spec.family == "two_pole":
        B, C = (mp.mpf(spec.params[k]) for k in "BC")
        return lambda t: -mp.sqrt(t + C) * (4 * t + 3 * B + C) / (mp.sqrt(t + B) * 192 * (B - C) ** 3), 0
    a, b = (mp.mpf(spec.params[k]) for k in "ab")
    _, f1, f2 = spec.params["f"]
    # y' for the branch y = sqrt((t-a)(t-b)^3) - f(t)
    return lambda t: (4 * t - 3 * a - b) * mp.sqrt((t - b) / (t - a)) / 2 - f1 - 2 * f2 * t, 0


@pytest.mark.parametrize("case_id", TWO_POLE_CASES)
def test_dual_two_pole_jets_match_their_closed_forms(case_id):
    # H ... H^(6), or F'' ... F^(6), at 12 basepoints across the domain, both ends
    # included, at one point and as one stack, within 1e-14 relative of mpmath's 40 digits
    mp = pytest.importorskip("mpmath")
    spec = get_spec(case_id)
    pts = np.linspace(*spec.domain, 12)
    stack = np.array(F_jet(spec, pts, 6).derivs(7))
    for i, x0 in enumerate(pts):
        w, j = _two_pole_closed_form(spec, mp, x0)
        with mp.workdps(40):
            exact = np.array([float(c * mp.factorial(k)) for k, c in enumerate(mp.taylor(w, mp.mpf(x0), 6 - j))])
        for got in (np.array(F_jet(spec, float(x0), 6).derivs(7)), stack[:, i]):
            assert np.all(np.abs(got[j:] - exact) <= 1e-14 * np.abs(exact)), (case_id, x0, got, exact)
            if j:  # F-two-pole's gauge, as the lift exp(int I/2) from 0 gave it: F = F' = 0, F'' = 1
                assert np.array_equal(got[:3], [0.0, 0.0, 1.0]), (x0, got)


@pytest.mark.parametrize("case_id", TWO_POLE_CASES)
def test_dual_two_pole_residuals_are_round_off(case_id):
    spec = get_spec(case_id)
    residuals = flatness_suite(spec, sample_points(spec, 200, 0))["ode_residual_" + case_id[0]]
    assert max(residuals) <= 2e-15


def test_dual_two_pole_refusals():
    fpole, two_pole, curve = (get_spec(c) for c in TWO_POLE_CASES)
    # equal poles make H'' vanish identically, and every residual a vacuous 0
    for spec, params in ((two_pole, {"B": 1.0, "C": 1.0}),
                         (curve, {"a": 1.0, "b": 1.0, "f": (0.0, 0.0, 0.0)})):
        for t in (2.0, np.array([2.0, 3.0])):
            with pytest.raises(DegenerateError):
                F_jet(replace(spec, params=params), t)
    # in the F picture equal poles give F'' = (q + B)^(-3), the flat q^(-1) class
    merged = replace(fpole, params={**fpole.params, "C": fpole.params["B"]})
    pts = sample_points(merged, 50, 0)
    out = flatness_suite(merged, pts)
    assert max(out["ode_residual_F"]) <= 2e-15 and max(weyl_flatness(merged, pts)) < 1e-7
    q, B = pts[:, 4], merged.params["B"]
    want = [np.ones_like(q), -3.0 / (q + B), 12.0 / (q + B) ** 2]
    np.testing.assert_allclose(F_jet(merged, q).derivs(5)[2:], want, rtol=1e-14)
    # the curve branch is real only past its branch point t = b
    wide = replace(curve, domain=(0.05, 10.0))
    with pytest.raises(BranchError) as exc:
        F_jet(wide, np.array([2.0, 0.5, 1.0, 3.0]))
    assert exc.value.rows.tolist() == [False, True, True, False]
    with pytest.raises(BranchError):
        F_jet(wide, 0.5)
    # both two-pole entries refuse a basepoint at or before a pole: the F picture's
    # q = -1, which its domain (-0.95, 5) stops short of, and the H picture's t = 0
    for spec, pts in ((fpole, [0.3, -1.0, -1.5]), (two_pole, [0.3, 0.0, -0.5])):
        wide = replace(spec, domain=(-2.0, 10.0))
        with pytest.raises(DomainError) as exc:
            F_jet(wide, np.array(pts))
        assert exc.value.rows.tolist() == [False, True, True]
        for x0 in pts[1:]:
            with pytest.raises(DomainError):
                F_jet(wide, x0)


def test_ds_curve_solves_dual_equation():
    # the seventh-order equation in y is the dual sixth-order one in H = y';
    # the curve branch's own jet, whose top terms cancel, agrees to about 1e-12
    spec = replace(get_spec("H-ds-curve"), params={"a": 0.0, "b": 1.0, "f": (1.0, -2.0, 0.5)})
    H = F_jet(spec, 3.0)
    assert residual_ds6(H) < 1e-10
    y = ds_curve_solution(0.0, 1.0, (1.0, -2.0, 0.5), 3.0)
    assert np.allclose(H.coeffs[:8], y.derivative().coeffs, rtol=1e-11, atol=0.0)


def test_F_two_pole_I_is_two_pole():
    # I = 2 (log F'')' of the catalog entry is the two-pole generalised-Chazy
    # solution with k = 2/3, at 12 basepoints, both domain ends included, at
    # one point and as one stack, within 1e-13 of each row's largest coefficient
    spec = get_spec("F-two-pole")
    k, B, C = (spec.params[name] for name in "kBC")
    pts = np.linspace(*spec.domain, 12)
    for q in [float(q) for q in pts] + [pts]:
        I = reduce_F_to_I(F_jet(spec, q))
        y = two_pole_solution(k, B, C, q, I.order)
        scale = np.max(np.abs(y.coeffs), axis=-1, keepdims=True)
        assert np.all(np.abs(I.coeffs - y.coeffs) <= 1e-13 * scale), q


def test_ds_curve_u_is_two_pole():
    # u = (3/2) d log y''' equals the two-pole generalised-Chazy solution
    # with k = 3/2 and poles at the curve branch points
    a, b, t0 = 0.0, -1.0, 2.0
    u = ds_curve_u(a, b, t0, 6)
    v = two_pole_solution(1.5, -a, -b, t0, 6)
    assert np.allclose(u.coeffs, v.coeffs, atol=1e-9)
    assert residual_gen_chazy(u, 1.5) < 1e-9


# --- gauge invariance ---------------------------------------------------------


def test_residual_ignores_affine_gauge():
    spec = get_spec("F-power-1/3")
    F = F_jet(spec, 0.7)
    shifted = F + 3.0 * jet_var(0.7, 8) - 2.0
    assert residual_6th(shifted) < 1e-8


def test_fifth_coordinate_jets_match_power_solution():
    # the power family builder agrees with a direct jet construction
    F = F_jet(get_spec("F-power-2"), 1.3)
    direct = jet_var(1.3, 8) ** 2
    assert np.allclose(
        F.derivative().derivative().coeffs, direct.derivative().derivative().coeffs
    )


def test_errors_formatted_on_raise_keep_their_text():
    # the messages are formatted only when the check fails; at one point and on a stack
    p = HyperTriple(Fraction(-1, 4), Fraction(5, 12), Fraction(1, 2))
    spec = get_spec("H-triple-(-1/4,5/12,1/2)")
    for call, error, text in (
        (lambda s: hyp2f1_jet(p, s), SeriesDomainError,
         "series for (-1/4,5/12,1/2) diverges at |s| >= 1"),
        (lambda s: F_jet(spec, s), DomainError,
         "H-triple-(-1/4,5/12,1/2): basepoint outside admissible [0.05, 0.95]"),
        (lambda s: jet_pow(jet_var(1.0 - s, 4), Fraction(1, 2)), BranchError,
         "negative base with exponent 1/2 has no real branch"),
        (lambda s: jet_pow(jet_var(1.0 - s, 4), 1.5), BranchError,
         "negative base with exponent 1.5 has no real branch"),
    ):
        with pytest.raises(error) as exc:
            call(1.5)
        assert str(exc.value) == text and exc.value.rows is None
        with pytest.raises(error) as exc:
            call(np.array([0.5, 1.5]))
        assert str(exc.value) == text and exc.value.rows.tolist() == [False, True]
