from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from c235.chazy import (
    DUAL_SIXTH_ORDER,
    SIXTH_ORDER,
    SchwarzTriple,
    _chazy_table,
    reduce_F_to_I,
    residual_6th,
    residual_ds6,
    residual_gen_chazy,
    schwarz_solution,
    two_pole_solution,
)
from c235.dist import catalog
from c235.errors import DegenerateError, InvalidParam, PoleError, ZeroWronskianError
from c235.jets import Jet1, jet_const, jet_var
from c235.specialfn import HyperTriple, hypergeom_pair

from oracles import (
    ZeroDenominatorError,
    build_F_from_I,
    chazy_log_solution,
    jet_abs_pow,
    jet_exp,
    legendre_image,
    omega_residuals,
    parametrized_y,
    residual_chazy,
    residual_schwarzian,
    table_poly,
)

K23 = Fraction(2, 3)
K32 = Fraction(3, 2)


# --- residual evaluators ---------------------------------------------------


def test_chazy_param_excludes_six():
    for k in (6, -6, 6.0):
        with pytest.raises(InvalidParam):
            _chazy_table(k)
    with pytest.raises(InvalidParam):
        residual_gen_chazy(jet_var(0.4, 6), 6)
    # -c (6y' - y^2)^2, expanded, with c = 4/(36 - k^2)
    c = 4.0 / (36.0 - 4.0 / 9.0)
    k_rows = _chazy_table(K23)[3:]
    assert [coeff for coeff, _ in k_rows] == pytest.approx([-36.0 * c, 12.0 * c, -c])
    assert [factors for _, factors in k_rows] == [((1, 2),), ((1, 1), (0, 2)), ((0, 4),)]


@pytest.mark.parametrize("k", [K23, K32])
def test_every_ode_table_is_homogeneous(k):
    # F -> c F(a q) scales each sixth-order monomial by c^degree a^weight, and
    # y -> a y(a x) each Chazy monomial by a^weight, y^(i) weighing i + 1: one
    # degree and one weight per table make each relative residual scale-free
    for table in (SIXTH_ORDER, DUAL_SIXTH_ORDER):
        for _, factors in table:
            assert sum(e for _, e in factors) == 4, factors
            assert sum(i * e for i, e in factors) == 12, factors
    for _, factors in _chazy_table(k):
        assert sum((i + 1) * e for i, e in factors) == 4, factors


def test_classical_chazy_pole_solution():
    # y = -6/(x - c) solves y''' = 2 y y'' - 3 y'^2
    y = -6.0 / (jet_var(0.4, 6) - 2.0)
    assert residual_chazy(y) < 1e-14


def test_classical_chazy_control():
    assert residual_chazy(jet_exp(jet_var(0.0, 6))) > 1e-2


def test_sixth_order_raw_value_for_cubic():
    # F = q^3 at q0 = 1: only the -224 (F''')^4 monomial survives
    F = jet_var(1.0, 8) ** 3
    d = [F.deriv(i) for i in range(7)]
    raw = (
        10 * d[2] ** 3 * d[6]
        - 80 * d[2] ** 2 * d[3] * d[5]
        - 51 * d[2] ** 2 * d[4] ** 2
        + 336 * d[2] * d[3] ** 2 * d[4]
        - 224 * d[3] ** 4
    )
    assert raw == -224 * 6**4 == -290304
    assert residual_6th(F) == pytest.approx(1.0)


# c log-uniform over 1e-6..1e6: the sixth-order LHS is degree-4 homogeneous in F
SCALES = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)


@given(SCALES, st.floats(min_value=0.1, max_value=3.0))
def test_sixth_order_cubic_control_fails_at_every_scale(c, q0):
    # only the (F''')^4 monomial survives, so the relative residual is exactly 1
    assert residual_6th(c * jet_var(q0, 8) ** 3) == 1.0


@given(SCALES, st.sampled_from([-1.0, 1.0 / 3.0, 2.0 / 3.0, 2.0]))
def test_sixth_order_flat_powers_pass_at_every_scale(c, m):
    # m = 2 has every monomial exactly 0, which counts as a residual of 0
    assert residual_6th(c * jet_abs_pow(jet_var(0.8, 8), m)) < 1e-12


@pytest.mark.parametrize("m", [-1.0, 1.0 / 3.0, 2.0 / 3.0, 2.0])
def test_sixth_order_on_powers(m):
    F = jet_abs_pow(jet_var(0.8, 8), m)
    assert residual_6th(F) < 1e-10


@pytest.mark.parametrize("m", [-2.0, -0.5, 0.5, 2.0])
def test_dual_sixth_order_on_powers(m):
    H = jet_abs_pow(jet_var(0.8, 8), m)
    assert residual_ds6(H) < 1e-10


def test_dual_control_cubic():
    assert residual_ds6(jet_var(0.7, 8) ** 3) == pytest.approx(1.0)


def test_sixth_order_tables_are_legendre_duals():
    # F^(k) = N_k / (H'')^(2k-3) turns SIXTH_ORDER, times (H'')^12, into
    # -DUAL_SIXTH_ORDER exactly, and the same rule takes the dual table back
    assert legendre_image(SIXTH_ORDER) == (12, -table_poly(DUAL_SIXTH_ORDER))
    assert legendre_image(DUAL_SIXTH_ORDER) == (12, -table_poly(SIXTH_ORDER))


def test_legendre_identity_sees_a_wrong_coefficient():
    table = tuple((-50.0 if c == -51.0 else c, factors) for c, factors in SIXTH_ORDER)
    assert table != SIXTH_ORDER
    assert legendre_image(table) != (12, -table_poly(DUAL_SIXTH_ORDER))


def test_schwarzian_residual_nonzero_off_solution():
    # s = q^2 is not a Schwarzian solution for this triple; note the
    # potential has a pole at s = 1, so the basepoint is shifted off q = 1
    s = jet_var(1.2, 6) ** 2
    val = residual_schwarzian(s, SchwarzTriple(3, 3, 3))
    assert val > 1e-2


# --- Schwarzian solutions and parametrisations ----------------------------

TRIPLES = [
    (3, 3, 3),
    (3, Fraction(1, 3), Fraction(1, 3)),
    (Fraction(3, 2), Fraction(1, 3), Fraction(1, 2)),
    (Fraction(3, 2), 3, Fraction(1, 2)),
    (Fraction(3, 2), Fraction(1, 3), Fraction(9, 2)),
    (6, Fraction(3, 2), Fraction(3, 2)),
    (Fraction(2, 3), Fraction(3, 2), Fraction(3, 2)),
    (Fraction(4, 3), Fraction(4, 3), Fraction(4, 3)),
    (0, 0, 0),
]


@pytest.mark.parametrize("trip", TRIPLES)
def test_schwarz_solution_satisfies_schwarzian(trip):
    tr = SchwarzTriple(*trip)
    s = schwarz_solution(tr, 0.35)
    assert residual_schwarzian(s, tr) < 1e-10


@pytest.mark.parametrize("spec", [s for s in catalog() if s.family == "schwarz_triple_param"], ids=lambda s: s.id)
def test_schwarz_solution_starts_with_unit_speed(spec):
    # ds/dq = u1^2 and u1(s0) = 1: sdot(q0) is exactly 1, so F'' needs no branch test on it
    tr = spec.params["triple"]
    assert schwarz_solution(tr, 0.35).coeffs[1] == 1.0
    stack = schwarz_solution(tr, np.linspace(0.05, 0.95, 7)).coeffs
    assert np.all(stack[..., 1] == 1.0)


def test_schwarz_solution_refuses_the_poles_of_V():
    tr = SchwarzTriple(3, 3, 3)
    for s0 in (0.0, 1.0):
        with pytest.raises(DegenerateError):
            schwarz_solution(tr, s0)
    with pytest.raises(DegenerateError) as exc:
        schwarz_solution(tr, np.array([0.5, 1.0, 0.0, 0.2]))
    assert exc.value.rows.tolist() == [False, True, True, False]


def test_omega_system_residual():
    tr = SchwarzTriple(3, 3, 3)
    s = schwarz_solution(tr, 0.35)
    assert omega_residuals(s, tr)[3] < 1e-12


def test_omega_system_control():
    tr = SchwarzTriple(3, 3, 3)
    assert omega_residuals(jet_exp(jet_var(0.2, 8)), tr)[3] > 1e-3


PARAM_CASES = [
    ((3, 3, 3), "sum222", K23),
    ((Fraction(4, 3), Fraction(4, 3), Fraction(4, 3)), "sum222", K32),
    ((3, Fraction(1, 3), Fraction(1, 3)), "sum222", K23),
    ((Fraction(3, 2), Fraction(1, 3), Fraction(1, 2)), "w123", K23),
    ((Fraction(3, 2), 3, Fraction(1, 2)), "w123", K23),
    ((Fraction(3, 2), Fraction(1, 3), Fraction(9, 2)), "w123", K23),
    ((Fraction(3, 2), Fraction(1, 2), Fraction(1, 3)), "w132", K23),
    ((6, Fraction(3, 2), Fraction(3, 2)), "w411", K23),
    ((Fraction(2, 3), Fraction(3, 2), Fraction(3, 2)), "w411", K23),
    ((Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)), "w411", K23),
]


@pytest.mark.parametrize("trip,weights,k", PARAM_CASES)
def test_parametrized_solutions_solve_generalised_chazy(trip, weights, k):
    s = schwarz_solution(SchwarzTriple(*trip), 0.35)
    y = parametrized_y(s, weights)
    assert residual_gen_chazy(y, k) < 1e-8


def test_darboux_halphen_solves_classical_chazy():
    s = schwarz_solution(SchwarzTriple(0, 0, 0), 0.35)
    y = parametrized_y(s, "sum222")
    assert residual_chazy(y) < 1e-9


def test_unknown_weighting_rejected():
    s = schwarz_solution(SchwarzTriple(3, 3, 3), 0.35)
    with pytest.raises(ValueError):
        parametrized_y(s, "w999")


LOG_CASES = [
    ((Fraction(-2, 3), Fraction(5, 6), Fraction(1, 2)), K23),
    ((Fraction(-4, 3), Fraction(5, 3), Fraction(2, 3)), K23),
    ((Fraction(-2, 3), Fraction(5, 6), Fraction(2, 3)), K23),
    ((Fraction(-1, 4), Fraction(5, 12), Fraction(1, 2)), K32),
    ((Fraction(-1, 4), Fraction(5, 12), Fraction(2, 3)), K32),
    ((Fraction(-1, 2), Fraction(5, 6), Fraction(2, 3)), K32),
]


@pytest.mark.parametrize("abc,k", LOG_CASES)
def test_log_derivative_solutions(abc, k):
    z1, z2 = hypergeom_pair(HyperTriple(*abc), 0.3)
    _, y = chazy_log_solution(z1, z2)
    assert residual_gen_chazy(y, k) < 1e-8


# c log-uniform over 1e-15..1e6: the Wronskian test compares W with the products it is made of
PAIR_SCALES = st.floats(min_value=-15.0, max_value=6.0).map(lambda e: 10.0**e)


@given(PAIR_SCALES)
@example(1e-15)
def test_log_solution_accepts_a_rescaled_pair(c):
    # W = 1.16 c here, which a floor of 1 on the scale rejected below c = 8.6e-13
    (abc, k) = LOG_CASES[0]
    z1, z2 = hypergeom_pair(HyperTriple(*abc), 0.3)
    _, y = chazy_log_solution(c * z1, z2)
    assert residual_gen_chazy(y, k) < 1e-8


@given(PAIR_SCALES)
@example(1e-15)
@example(1e6)
def test_log_solution_rejects_a_dependent_pair_at_every_scale(c):
    z1, _ = hypergeom_pair(HyperTriple(*LOG_CASES[0][0]), 0.3)
    with pytest.raises(ZeroWronskianError):
        chazy_log_solution(c * z1, 3.0 * c * z1)


def test_log_solution_rejects_a_pair_of_zero_products():
    # W = 0 and both products 0: rejected by <=, where < would let it through
    one = jet_const(1.0, 0.3, 6)
    with pytest.raises(ZeroWronskianError):
        chazy_log_solution(one, 2.0 * one)


def test_log_solution_rejects_a_z1_that_vanishes_at_the_basepoint():
    s = jet_var(0.0, 6)
    with pytest.raises(ZeroDenominatorError):
        chazy_log_solution(s, s + 1.0)


@pytest.mark.parametrize("k", [K23, K32])
def test_two_pole_solution(k):
    y = two_pole_solution(k, 0.0, 1.0, 0.4, 6)
    assert residual_gen_chazy(y, k) < 1e-12


def test_two_pole_rejects_pole_basepoint():
    with pytest.raises(PoleError):
        two_pole_solution(K23, 0.0, 1.0, -1.0, 6)


# --- reduction chains ------------------------------------------------------


def test_reduce_then_build_roundtrip_positive():
    F = jet_abs_pow(jet_var(0.7, 8), 2.0) + jet_var(0.7, 8)
    I = reduce_F_to_I(F)
    logE0 = float(np.log(F.deriv(2)))
    rebuilt = build_F_from_I(I, constants=(F.value(), F.deriv(1), logE0))
    assert np.allclose(rebuilt.coeffs[: I.order - 1], F.coeffs[: I.order - 1], atol=1e-12)


def test_reduce_then_build_roundtrip_negative_branch():
    # F'' < 0 here, so the rebuild must take the negative branch
    F = jet_abs_pow(jet_var(0.7, 8), 1.0 / 3.0)
    I = reduce_F_to_I(F)
    logE0 = float(np.log(-F.deriv(2)))
    rebuilt = build_F_from_I(
        I, constants=(F.value(), F.deriv(1), logE0), negative=True
    )
    assert np.allclose(rebuilt.coeffs[: I.order - 1], F.coeffs[: I.order - 1], atol=1e-12)


def test_reduce_F_to_I_solves_generalised_chazy():
    # flat power solutions reduce to generalised-Chazy data with k = 2/3
    F = jet_abs_pow(jet_var(0.7, 8), 1.0 / 3.0)
    I = reduce_F_to_I(F)
    assert residual_gen_chazy(I, K23) < 1e-10


def test_reduce_rejects_vanishing_second_derivative():
    with pytest.raises(DegenerateError):
        reduce_F_to_I(jet_var(0.3, 6))
