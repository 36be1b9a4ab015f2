import cmath
import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from c235.errors import BasepointMismatch, BranchError, DivisionByZeroJet, NonInvertibleJet
from c235.jets import (
    MAX_ORDER,
    MJet2,
    Jet1,
    _power_series,
    jet_compose,
    jet_const,
    jet_invert,
    jet_log,
    jet_pow,
    jet_var,
)

from oracles import ReferenceJet2, RoundoffScale, derivative_oracle, jet_abs_pow, jet_exp

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coeff_lists = st.lists(finite, min_size=1, max_size=9)


def _jet(basepoint, coeffs):
    return Jet1(basepoint, coeffs)


@given(finite, coeff_lists, coeff_lists)
def test_product_rule(x0, ca, cb):
    n = min(len(ca), len(cb))
    a, b = _jet(x0, ca[:n]), _jet(x0, cb[:n])
    lhs = (a * b).derivative()
    rhs = a.derivative() * b.truncate(n - 1) + a.truncate(n - 1) * b.derivative()
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-9 * (1 + np.max(np.abs(lhs.coeffs))))


@given(finite, coeff_lists)
def test_add_sub_roundtrip(x0, ca):
    a = _jet(x0, ca)
    z = a - a
    assert np.allclose(z.coeffs, 0.0)


@given(finite, coeff_lists)
def test_div_mul_roundtrip(x0, ca):
    if abs(ca[0]) < 1e-3:
        ca[0] = 1.0 + abs(ca[0])
    a = _jet(x0, ca)
    one = a / a
    assert abs(one.value() - 1.0) < 1e-9
    assert np.allclose(one.coeffs[1:], 0.0, atol=1e-6 * (1 + np.max(np.abs(ca))))


@given(st.floats(min_value=-1.5, max_value=1.5), coeff_lists)
def test_exp_log_roundtrip(x0, ca):
    ca = list(ca)
    ca[0] = min(ca[0], 1.5)
    a = _jet(x0, ca)
    back = jet_log(jet_exp(a))
    assert np.allclose(back.coeffs, a.coeffs, atol=1e-7 * (1 + np.max(np.abs(a.coeffs))))


def test_exp_derivative_is_self():
    f = jet_exp(jet_var(0.3, 8))
    assert np.allclose(f.derivative().coeffs, f.truncate(7).coeffs)


def test_compose_invert_roundtrip():
    f = jet_var(0.4, 8) + 0.5 * jet_var(0.4, 8) ** 2
    finv = jet_invert(f)
    ident = jet_compose(finv, f)
    expected = jet_var(0.4, 8)
    assert np.allclose(ident.coeffs, expected.coeffs, atol=1e-10)


def test_division_by_zero_jet_raises():
    with pytest.raises(DivisionByZeroJet):
        jet_var(0.0, 4).__rtruediv__(1.0)


ORACLE_FUNCS = [
    (lambda x: math.exp(x), lambda j: jet_exp(j), 0.3),
    (lambda x: math.log(x), lambda j: jet_log(j), 1.7),
    (lambda x: math.sqrt(x), lambda j: jet_pow(j, Fraction(1, 2)), 2.1),
    (lambda x: x ** 2.5, lambda j: jet_pow(j, 2.5), 1.4),
    (lambda x: 1.0 / (1.0 + x * x), lambda j: 1.0 / (1.0 + j * j), 0.6),
    (lambda x: x ** 3 - 2 * x, lambda j: j ** 3 - 2.0 * j, -0.8),
    (lambda x: math.exp(-x * x), lambda j: jet_exp(-(j * j)), 0.4),
    (lambda x: abs(x) ** (1.0 / 3.0), lambda j: jet_abs_pow(j, 1.0 / 3.0), 1.9),
    (lambda x: math.exp(x) / (2.0 + x), lambda j: jet_exp(j) / (2.0 + j), 0.2),
    (lambda x: math.log(1.0 + x * x), lambda j: jet_log(1.0 + j * j), 1.1),
]


@pytest.mark.parametrize("idx", range(len(ORACLE_FUNCS)))
def test_jet_matches_finite_difference_oracle(idx):
    f, jf, x0 = ORACLE_FUNCS[idx]
    jet = jf(jet_var(x0, 8))
    for k in range(1, 7):
        est = derivative_oracle(f, x0, k)
        exact = jet.deriv(k)
        assert abs(est - exact) / max(abs(exact), 1.0) < 1e-5


def test_antiderivative_inverts_derivative():
    f = jet_exp(jet_var(0.5, 7))
    g = f.derivative().antiderivative(f.value())
    assert np.allclose(g.coeffs, f.coeffs)


def _random_mjet2_parts(rng, batch, dim):
    """(value, gradient, symmetric hessian) with |value| in [0.5, 2]."""
    v = rng.uniform(0.5, 2.0, batch) * rng.choice([-1.0, 1.0], batch)
    h = rng.normal(size=batch + (dim, dim))
    return v, rng.normal(size=batch + (dim,)), h + np.swapaxes(h, -1, -2)


def _product_rule(a, b):
    """The parts of a b from the (value, gradient, hessian) parts of a and b."""
    (va, ga, ha), (vb, gb, hb) = a, b
    va, vb = np.asarray(va), np.asarray(vb)
    outer = ga[..., :, None] * gb[..., None, :]
    return (va * vb, va[..., None] * gb + vb[..., None] * ga,
            va[..., None, None] * hb + vb[..., None, None] * ha + outer + np.swapaxes(outer, -1, -2))


def _reciprocal_rule(a):
    """The parts of 1 / a: 1/v, -g/v**2, -h/v**2 + 2 g g^T/v**3."""
    v, g, h = a
    v = np.asarray(v)
    return (1.0 / v, -g / v[..., None] ** 2,
            -h / v[..., None, None] ** 2 + 2.0 * g[..., :, None] * g[..., None, :] / v[..., None, None] ** 3)


def _lam_parts(packed):
    """A packed jet in lam as the (value, gradient, hessian) of dimension 1 the rules take."""
    return packed[..., 0], packed[..., 1:2], packed[..., 2:3, None]


def test_mjet2_product_rule():
    rng = np.random.default_rng(0)
    for batch in ((), (7,)):
        A, B = _random_mjet2_parts(rng, batch, 1), _random_mjet2_parts(rng, batch, 1)
        a, b = (MJet2.from_packed(np.concatenate([v[..., None], g, h[..., 0]], axis=-1)) for v, g, h in (A, B))
        cases = (
            (a * b, _product_rule(A, B)),
            (a.reciprocal(), _reciprocal_rule(A)),
            (a - b, [p - q for p, q in zip(A, B)]),
            (a * 2.5, [2.5 * p for p in A]),
        )
        for k, (got, want) in enumerate(cases):
            assert got.derivatives().shape == batch + (3,)
            for part, w in zip(_lam_parts(got.derivatives()), want):
                np.testing.assert_allclose(part, w, rtol=1e-13, atol=1e-13, err_msg=f"{batch} {k}")
        ident = (a * a.reciprocal()).derivatives()
        np.testing.assert_allclose(ident, np.broadcast_to([1.0, 0.0, 0.0], ident.shape), atol=1e-12)


def test_mjet2_from_jet1_reads_the_value_and_two_derivatives():
    j = jet_exp(jet_var(0.3, 4))
    assert np.array_equal(MJet2.from_jet1(j).derivatives(), [j.deriv(0), j.deriv(1), j.deriv(2)])
    stack = MJet2.from_jet1(np.stack([j.coeffs, 2.0 * j.coeffs]))
    assert np.array_equal(stack.derivatives()[1], MJet2.from_jet1(2.0 * j).derivatives())
    for short_or_complex in (jet_var(0.3, 1), jet_var(0.3 + 0.1j, 4)):
        with pytest.raises(ValueError):
            MJet2.from_jet1(short_or_complex)


@pytest.mark.parametrize("dim", [2, 5])
def test_reference_jet_follows_the_product_rule(dim):
    # the tests' multivariate reference, and its round-off scale: each part of a
    # result is at most that of the same expression in absolute values
    rng = np.random.default_rng(dim)
    for batch in ((), (7,)):
        A, B = _random_mjet2_parts(rng, batch, dim), _random_mjet2_parts(rng, batch, dim)
        a, b = ReferenceJet2(*A), ReferenceJet2(*B)
        x = rng.uniform(0.5, 2.0, batch)  # one number per row, or one number
        cases = (
            (lambda a, b: a * b, _product_rule(A, B)),
            (lambda a, b: a.reciprocal(), _reciprocal_rule(A)),
            (lambda a, b: a / b, _product_rule(A, _reciprocal_rule(B))),
            (lambda a, b: a + b, [p + q for p, q in zip(A, B)]),
            (lambda a, b: a - b, [p - q for p, q in zip(A, B)]),
            (lambda a, b: -a, [-p for p in A]),
            (lambda a, b: 1.5 - a, (1.5 - A[0], -A[1], -A[2])),
            (lambda a, b: a + x, (A[0] + x, A[1], A[2])),
            (lambda a, b: 2.5 * a, [2.5 * p for p in A]),
            (lambda a, b: a * x, (A[0] * x, A[1] * x[..., None], A[2] * x[..., None, None])),
        )
        scales = [RoundoffScale(*map(np.abs, parts)) for parts in (A, B)]
        for k, (op, want) in enumerate(cases):
            got, scale = op(a, b), op(*scales)
            for part, bound, w in zip(astuple(got), astuple(scale), want):
                np.testing.assert_allclose(part, w, rtol=1e-13, atol=1e-13, err_msg=f"{dim} {batch} {k}")
                assert np.all(np.abs(part) <= bound * (1.0 + 1e-12)), (dim, batch, k)


def test_jet_pow_negative_base_odd_denominator():
    j = jet_var(-2.0, 5)
    from fractions import Fraction

    cube = jet_pow(j, Fraction(1, 3))
    assert cube.value() == pytest.approx(-(2.0 ** (1.0 / 3.0)))


@pytest.mark.parametrize("e", [Fraction(1, 3), Fraction(-2, 3), Fraction(5, 2), 2.5, -0.5, 1.0 / 3.0],
                         ids=str)
def test_one_point_power_is_its_row_of_a_stack(e):
    # the leading power is the power ufunc's at one point as on a stack: ** of a
    # float or numpy scalar calls the C library's pow, which rounds differently
    # at about one point in twenty
    x0 = np.random.default_rng(5).uniform(0.05, 10.0, 200)
    if isinstance(e, Fraction) and e.denominator % 2:
        x0[::2] *= -1.0  # the real odd root of a negative base
    stack = jet_pow(jet_var(x0, MAX_ORDER), e)
    for i, x in enumerate(x0.tolist()):
        one = jet_pow(jet_var(x, MAX_ORDER), e)
        assert np.array_equal(one.coeffs, stack.coeffs[i]), (e, x)


def test_jet_const_and_call():
    c = jet_const(2.5, 1.0, 4)
    assert c.value() == 2.5


def test_operators_match_the_kernels_they_stand_for():
    # f / x is f * (1/x) row by row, f ** Fraction is jet_pow, f ** 0 is the constant 1
    f = Jet1(np.array([0.4, 1.3]), [[1.5, -0.5, 0.25, 2.0], [-2.0, 0.3, 1.0, -0.7]])
    for x in (2.5, np.array([2.5, -4.0])):
        got = f / x
        for i, xi in enumerate(np.broadcast_to(x, 2)):
            want = Jet1(f.basepoint[i], f.coeffs[i]) * (1.0 / xi)
            np.testing.assert_array_max_ulp(got.coeffs[i], want.coeffs, maxulp=1)
    e = Fraction(1, 3)
    assert np.array_equal((f ** e).coeffs, jet_pow(f, e).coeffs)
    one = jet_const(1.0, f.basepoint, f.order)
    assert np.array_equal((f ** 0).coeffs, one.coeffs)
    assert np.array_equal((f ** 0).basepoint, one.basepoint)


def test_complex_jet_pow_takes_the_principal_branch():
    # Taylor coefficients of z**e at z0 are binom(e, k) z0**(e - k), principal branch
    for z0 in (-2.0 + 0.5j, -1.5 - 0.25j, 0.3 + 2.0j, -0.7 + 0.0j):
        for e in (0.5, -1.0 / 3.0, 2.5):
            f = jet_pow(jet_var(z0, 6), e)
            for k in range(7):
                binom = math.prod(e - j for j in range(k)) / math.factorial(k)
                want = binom * cmath.exp((e - k) * cmath.log(z0))
                assert abs(f.coeffs[k] - want) <= 1e-12 * max(abs(want), 1.0), (z0, e, k)


def test_mjet2_stacked_rows_match_single_jets():
    rng = np.random.default_rng(1)
    a, b = (MJet2.from_packed(rng.normal(size=(7, 3))) for _ in range(2))
    for stacked, single in ((a * b, lambda x, y: x * y),
                            (a.reciprocal(), lambda x, y: x.reciprocal()),
                            (a - b * 2.5, lambda x, y: x - y * 2.5)):
        for i in range(7):
            row = single(*(MJet2.from_packed(m.derivatives()[i]) for m in (a, b)))
            assert np.array_equal(stacked.derivatives()[i], row.derivatives())
    with pytest.raises(DivisionByZeroJet) as err:
        MJet2.from_packed(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 2.0], [2.0, 0.0, 1.0]])).reciprocal()
    assert err.value.rows.tolist() == [False, True, False]


# --- a leading point axis -------------------------------------------------


def _stack(draw, n, order, complex_ok, c0):
    """n rows of order + 1 coefficients, constant terms from c0; complex half the time if allowed."""
    def rows():
        return np.array([draw(st.lists(finite, min_size=order + 1, max_size=order + 1)) for _ in range(n)])

    c = rows()
    c[:, 0] = [draw(c0) for _ in range(n)]
    return c + 1j * rows() if complex_ok and draw(st.booleans()) else c


def _rows(jet, n):
    return [Jet1(jet.basepoint[i], jet.coeffs[i]) for i in range(n)]


nonzero = st.floats(min_value=0.5, max_value=3.0).flatmap(
    lambda x: st.sampled_from((x, -x)))
positive = st.floats(min_value=0.5, max_value=3.0)

# kernel, constant-term strategy, whether complex jets are allowed, least order
STACK_KERNELS = {
    "add": (lambda a, b: a + b, nonzero, True, 0),
    "sub": (lambda a, b: 2.5 - a - b, nonzero, True, 0),
    "mul": (lambda a, b: a * b * 1.5, nonzero, True, 0),
    "div": (lambda a, b: a / b, nonzero, True, 0),
    "rdiv": (lambda a, b: 2.0 / a, nonzero, True, 0),
    "pow_int": (lambda a, b: a ** 3 + b ** -2, nonzero, True, 0),
    "derivative": (lambda a, b: a.derivative(), nonzero, True, 0),
    "antiderivative": (lambda a, b: a.antiderivative(0.5), nonzero, True, 0),
    "exp": (lambda a, b: jet_exp(a * 0.3), nonzero, True, 0),
    "log": (lambda a, b: jet_log(a), positive, True, 0),
    "pow": (lambda a, b: jet_pow(a, 2.5), positive, True, 0),
    "pow_odd_root": (lambda a, b: jet_pow(a, Fraction(-2, 3)), nonzero, False, 0),
    "abs_pow": (lambda a, b: jet_abs_pow(a, 0.75), nonzero, False, 0),
    "sqrt": (lambda a, b: jet_pow(a, Fraction(1, 2)), positive, True, 0),
    "compose": (lambda a, b: jet_compose(b, a - a.value() + b.basepoint), nonzero, True, 0),
    "invert": (lambda a, b: jet_invert(a), nonzero, True, 1),
}


@pytest.mark.parametrize("kernel", STACK_KERNELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_stacked_kernels_match_row_by_row(kernel, data):
    fn, c0, complex_ok, least = STACK_KERNELS[kernel]
    n = data.draw(st.integers(1, 12))
    order = data.draw(st.integers(least, MAX_ORDER))
    bp = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    a = Jet1(bp, _stack(data.draw, n, order, complex_ok, c0))
    b = Jet1(bp, _stack(data.draw, n, order, complex_ok, c0))
    if kernel == "invert":  # needs a first derivative away from 0
        a = Jet1(bp, a.coeffs + np.where(a.coeffs[:, 1:2].real >= 0, 1.0, -1.0) * (np.arange(order + 1) == 1))
    stacked = fn(a, b)
    assert stacked.coeffs.shape[0] == n and isinstance(stacked.order, int)
    for i, (ai, bi) in enumerate(zip(_rows(a, n), _rows(b, n))):
        row = fn(ai, bi)
        assert row.coeffs.shape == stacked.coeffs[i].shape
        scale = max(np.max(np.abs(row.coeffs)), 1.0)
        assert np.max(np.abs(stacked.coeffs[i] - row.coeffs)) <= 1e-13 * scale, (kernel, i)
        assert abs(stacked.basepoint[i] - row.basepoint) <= 1e-13 * max(abs(row.basepoint), 1.0)
        assert stacked.value()[i] == stacked.coeffs[i, 0]


def test_half_power_is_the_square_root_series():
    # jet_pow(f, 1/2) gives the bits of the square-root recurrence started at np.sqrt(f(x0))
    for x0 in (2.1, np.array([0.3, 1.7, 4.2, 9.5])):
        f = jet_exp(jet_var(x0, MAX_ORDER) * 0.4) + 0.2 * jet_var(x0, MAX_ORDER)
        want = _power_series(f, 0.5, np.sqrt(f.coeffs.T[0]))
        np.testing.assert_array_equal(jet_pow(f, Fraction(1, 2)).coeffs, want.coeffs)


def test_jets_compare_and_hash_by_identity():
    # == of the coefficient arrays has no truth value, so a jet equals only itself
    a, b = jet_var(0.5), jet_var(0.5)
    assert a != b and not a == b
    assert a == a
    assert hash(a) == hash(a) and {a: 1}[a] == 1


def test_stacked_kernels_raise_with_the_bad_rows():
    bp = np.array([0.1, 0.2, 0.3])
    f = Jet1(bp, [[1.0, 0.5, 0.1], [-2.0, 0.3, 0.0], [0.0, 1.0, 0.2]])
    for call, error, rows in (
        (lambda: jet_log(f), DivisionByZeroJet, [False, False, True]),
        (lambda: jet_pow(f + 1.0, Fraction(1, 2)), BranchError, [False, True, False]),
        (lambda: jet_pow(f + 1.0, 0.5), BranchError, [False, True, False]),
        (lambda: 1.0 / f, DivisionByZeroJet, [False, False, True]),
        (lambda: jet_invert(Jet1(bp, [[0.0, 1.0, 0.5], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0]])),
         NonInvertibleJet, [False, True, False]),
    ):
        with pytest.raises(error) as exc:
            call()
        assert exc.value.rows.tolist() == rows
    # at a single point, where the tests read a numpy scalar, each raises with no rows
    at = lambda c: Jet1(0.3, c)
    for call, error in (
        (lambda: jet_log(at(f.coeffs[2])), DivisionByZeroJet),
        (lambda: at(f.coeffs[0]) / at(f.coeffs[2]), DivisionByZeroJet),
        (lambda: jet_log(at(f.coeffs[1])), BranchError),
        (lambda: jet_pow(at(f.coeffs[1]), Fraction(1, 2)), BranchError),
        (lambda: jet_pow(at(f.coeffs[1]), 0.25), BranchError),
        (lambda: jet_invert(at([0.0, 0.0, 1.0])), NonInvertibleJet),
        (lambda: jet_compose(Jet1(0.5, [1.0, 2.0, 3.0]), at([0.7, 1.0, 0.0])), BasepointMismatch),
    ):
        with pytest.raises(error) as exc:
            call()
        assert exc.value.rows is None
    # the real odd root of a negative row keeps its sign
    cube = jet_pow(f + 1.0, Fraction(1, 3))
    assert cube.value()[1] == pytest.approx(-1.0)


# --- operands and results ---------------------------------------------------

SCALAR_OPERANDS = {
    "int": (3, 3.0),
    "float": (0.7, 0.7),
    "fraction": (Fraction(1, 3), 1.0 / 3.0),
    "numpy_float32": (np.float32(0.1), float(np.float32(0.1))),
    "numpy_int": (np.int64(-2), -2.0),
    "complex": (0.5 - 2.0j, 0.5 - 2.0j),
}
BINARY_OPERATORS = {
    "add": lambda f, x: f + x,
    "radd": lambda f, x: x + f,
    "sub": lambda f, x: f - x,
    "rsub": lambda f, x: x - f,
    "mul": lambda f, x: f * x,
    "rmul": lambda f, x: x * f,
    "div": lambda f, x: f / x,
    "rdiv": lambda f, x: x / f,
}


def _assert_same_jet(got, want):
    assert isinstance(got, Jet1)
    assert got.coeffs.dtype in (np.float64, np.complex128)
    assert got.coeffs.dtype == want.coeffs.dtype
    assert np.array_equal(got.coeffs, want.coeffs)


@pytest.mark.parametrize("op", BINARY_OPERATORS)
@pytest.mark.parametrize("operand", SCALAR_OPERANDS)
def test_scalar_operands_act_as_their_float(op, operand):
    # every operand type, Fraction among them, gives the float (or complex) operand's jet
    fn = BINARY_OPERATORS[op]
    x, as_float = SCALAR_OPERANDS[operand]
    for f in (Jet1(0.4, [1.5, -0.5, 0.25, 2.0]), Jet1(0.4, [1.5 + 0.5j, -0.5, 0.25j, 2.0])):
        _assert_same_jet(fn(f, x), fn(f, as_float))
    # and one number per row of a stack, as an int, float, Fraction or complex array
    f = Jet1(np.array([0.1, 0.2, 0.3]), [[1.5, -0.5, 0.25], [-2.0, 0.3, 1.0], [0.7, 0.0, -1.0]])
    rows = np.array([x, 2 * x, -x])
    _assert_same_jet(fn(f, rows), fn(f, rows.astype(type(as_float))))


def _kernel_operands(n):
    """(x0, f, g) at one point (n None) or on n rows: f, g positive, with f' != 0."""
    rng = np.random.default_rng(20)
    shape = () if n is None else (n,)
    x0 = rng.uniform(0.1, 0.9, shape)
    f = Jet1(x0, np.concatenate([rng.uniform(1.0, 2.0, shape + (1,)),
                                 rng.uniform(0.5, 1.0, shape + (1,)),
                                 rng.normal(size=shape + (MAX_ORDER - 1,))], axis=-1))
    g = Jet1(x0, np.concatenate([rng.uniform(1.0, 2.0, shape + (1,)),
                                 rng.normal(size=shape + (MAX_ORDER,))], axis=-1))
    return x0, f, g


# kernel -> the order of its result, from the operands' order MAX_ORDER
RESULT_KERNELS = {
    "add": (lambda f, g: f + g, MAX_ORDER),
    "neg": (lambda f, g: -f, MAX_ORDER),
    "mul": (lambda f, g: f * g, MAX_ORDER),
    "div": (lambda f, g: f / g, MAX_ORDER),
    "derivative": (lambda f, g: f.derivative(), MAX_ORDER - 1),
    "antiderivative": (lambda f, g: f.truncate(4).antiderivative(0.5), 5),
    "exp": (lambda f, g: jet_exp(g), MAX_ORDER),
    "log": (lambda f, g: jet_log(f), MAX_ORDER),
    "pow_frac": (lambda f, g: jet_pow(f, Fraction(1, 3)), MAX_ORDER),
    "pow_float": (lambda f, g: jet_pow(f, 2.5), MAX_ORDER),
    "abs_pow": (lambda f, g: jet_abs_pow(f, 0.75), MAX_ORDER),
    "sqrt": (lambda f, g: jet_pow(f, Fraction(1, 2)), MAX_ORDER),
    "compose": (lambda f, g: jet_compose(g, f - f.value() + g.basepoint), MAX_ORDER),
    "invert": (lambda f, g: jet_invert(f), MAX_ORDER),
}


@pytest.mark.parametrize("kernel, kind", [(k, "real") for k in RESULT_KERNELS]
                         + [(k, "complex") for k in RESULT_KERNELS if not k.startswith("abs_pow")])
@pytest.mark.parametrize("n", [None, 7])
def test_kernel_results_keep_the_jet_invariants(kernel, kind, n):
    # results are built without Jet1's coercion: each is still a float64 or complex128 array
    fn, order = RESULT_KERNELS[kernel]
    x0, f, g = _kernel_operands(n)
    if kind == "complex":
        f, g = f + 0.25j * f.derivative().antiderivative(), g + 0.1j
    out = fn(f, g)
    assert isinstance(out, Jet1)
    assert out.coeffs.dtype == (np.complex128 if kind == "complex" else np.float64)
    assert out.coeffs.shape == np.shape(x0) + (order + 1,)
    assert out.order == order
    assert np.shape(out.basepoint) == np.shape(x0)


def test_caller_supplied_jets_are_still_checked():
    with pytest.raises(ValueError):
        Jet1(0.0, [])
    with pytest.raises(ValueError):
        jet_var(0.3, 4).truncate(-1)
    assert Jet1(0.0, [1, 2]).coeffs.dtype == np.float64
    assert Jet1(0.0, [Fraction(1, 3), 2]).coeffs.tolist() == [1.0 / 3.0, 2.0]
