"""Tests for the 4-metric potential data, its twistor coordinate change and the certificates."""

from fractions import Fraction

import numpy as np
import pytest

from c235 import cli, dist, geometry
from c235.dist import catalog, get_spec
from c235.errors import InvalidParam
from c235.jets import jet_const, jet_var
from c235.twistor import g2_certificate

import oracles
from oracles import (
    PlebanskiData,
    connection_forms,
    coordinate_change_mismatch,
    frame_connection_check,
    metric_compatibility_error,
    plebanski_metric,
    twistor_annihilators,
)


def quadratic_data(x0: float = 0.7, xi: float = 0.3) -> PlebanskiData:
    H = jet_var(x0, 8) ** 2
    return PlebanskiData(H, point4=(0.2, x0, -0.4, 0.6), xi=xi)


# --- metric and connection --------------------------------------------------


def test_plebanski_data_compares_by_identity():
    # it holds a jet, whose arrays' == has no truth value: each equals only itself
    d = quadratic_data()
    assert d != quadratic_data() and not d == quadratic_data()
    assert d == d
    assert hash(d) == hash(d)


def test_metric_components_are_exact():
    d = quadratic_data()
    g = plebanski_metric(d)
    G = g.value
    assert G[0, 1] == 0.5 and G[1, 0] == 0.5
    assert G[2, 3] == 0.5 and G[3, 2] == 0.5
    assert G[3, 3] == pytest.approx(d.H.value(), rel=0, abs=0)
    # g_zz depends on x only
    grad = g.grad[:, 3, 3]
    assert grad[1] == pytest.approx(d.H.deriv(1))
    assert grad[0] == grad[2] == grad[3] == 0.0
    zero_slots = [(0, 0), (1, 1), (2, 2), (0, 2), (0, 3), (1, 2), (1, 3)]
    for a, b in zero_slots:
        assert G[a, b] == 0.0


def test_metric_reads_the_coefficients_of_H():
    # the data holds H itself: an order-8 H keeps its order, and the metric
    # jet carries its Taylor coefficients bit for bit
    d = PlebanskiData.from_spec(get_spec("H-two-pole"), 0.3)
    assert d.H.order == 8
    g = plebanski_metric(d)
    c = d.H.coeffs
    assert (g.value[3, 3], g.grad[1, 3, 3], g.hess[1, 1, 3, 3]) == (c[0], c[1], 2.0 * c[2])


def test_zero_H_metric_is_flat():
    d = PlebanskiData(jet_const(0.0, 0.5, 8))
    assert d.point4 == (0.0, 0.5, 0.0, 0.0)
    rep = geometry.curvature(plebanski_metric(d))
    assert rep.maxAbsRicci == 0.0
    assert rep.maxAbsWeyl == 0.0


def test_quadratic_H_is_ricci_flat_with_weyl():
    d = quadratic_data()
    rep = geometry.curvature(plebanski_metric(d))
    assert rep.maxAbsRicci < 1e-13
    assert rep.maxAbsWeyl > 1e-3


def test_metric_compatibility():
    d = quadratic_data()
    assert metric_compatibility_error(plebanski_metric(d)) < 1e-13


def test_connection_forms_display():
    d = quadratic_data()
    forms = connection_forms(d)
    assert set(forms) == {"Gamma^1_1", "Gamma^1_3", "Gamma^3_1", "Gamma^3_3"}
    for name in ("Gamma^1_1", "Gamma^1_3", "Gamma^3_3"):
        assert all(c.value() == 0.0 for c in forms[name])
    row = forms["Gamma^3_1"]
    assert all(c.value() == 0.0 for c in row[:3])
    assert row[3].value() == pytest.approx(d.H.deriv(1))


def test_frame_connection_oracle():
    for d in (quadratic_data(), PlebanskiData(jet_var(1.1, 8) ** 3)):
        assert frame_connection_check(d) < 1e-12


def test_frame_connection_oracle_sees_a_wrong_display(monkeypatch):
    # the oracle compares against connection_forms itself, so a display whose
    # Gamma^3_1 is off by 1e-3 must show
    def shifted(d):
        forms = connection_forms(d)
        *row, dz = forms["Gamma^3_1"]
        return {**forms, "Gamma^3_1": (*row, dz + 1e-3)}

    monkeypatch.setattr(oracles, "connection_forms", shifted)
    assert frame_connection_check(quadratic_data()) >= 5e-4


# --- annihilators and the coordinate change ---------------------------------


def test_coordinate_change_is_an_exact_identity():
    # the annihilators become the dual-picture ones as polynomials in
    # (A, B, xi, t): for every H, every basepoint and every fibre point
    assert coordinate_change_mismatch(twistor_annihilators()) == []


def test_coordinate_check_sees_a_wrong_annihilator():
    forms = twistor_annihilators()
    forms[0][3] += Fraction(1, 1000)  # the dz coefficient of dxi - A dz, off by 1/1000
    assert coordinate_change_mismatch(forms) != []


# --- certificates ------------------------------------------------------------


def test_g2_certificates_over_catalog():
    for spec in catalog():
        lo, hi = spec.domain
        t0 = 0.5 * (lo + hi) if hi < 2 else lo + 0.4
        out = g2_certificate(spec.id, t0)
        assert out["id"] == spec.id
        assert out["route"] == ("direct" if spec.picture == "H_of_t" else "legendre")
        if spec.expect_fail:
            assert out["residual"] > 1e-3, spec.id
        else:
            assert out["residual"] < 1e-8, (spec.id, out["residual"])


@pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.id)
def test_g2_certificate_is_verify_dual_residual(spec):
    # one route for the dual residual: the certificate at each point's lambda
    # reads what verify reports there (direct) or the dual residual of the
    # stacked F jet (legendre), up to the round-off that separates a stacked
    # jet from a single-point one
    lams = np.array([p[4] for p in geometry.sample_points(spec, 20, 5)])
    if spec.picture == "H_of_t":
        case = cli._verify_case(spec, 20, cli.DEFAULT_TOL, 5)
        expected = [c["value"] for c in case["checks"] if c["name"] == "ode_residual_H"]
    else:
        expected = dist.dual_residual(spec, dist.F_jet(spec, lams)).tolist()
    assert len(expected) == 20
    for lam, value in zip(lams, expected):
        out = g2_certificate(spec.id, lam)
        assert out["route"] == ("direct" if spec.picture == "H_of_t" else "legendre")
        assert abs(out["residual"] - value) <= 1e-14, (spec.id, lam)


# --- guards -------------------------------------------------------------------


def test_from_spec_rejects_non_dual_entries():
    with pytest.raises(InvalidParam):
        PlebanskiData.from_spec(get_spec("F-power-2"), 1.0)


def test_basepoint_mismatch_rejected():
    with pytest.raises(InvalidParam):
        PlebanskiData(jet_var(0.5, 8), (0.0, 0.9, 0.0, 0.0), 0.0)
