"""Circle-twistor construction over a split-signature 4-metric.

A second-heavenly potential Theta depending on x alone produces the
metric g = dw dx + dz dy + H(x) dz^2 with H = -Theta_xx. The rank-2
distribution on the circle bundle (fibre coordinate xi) is annihilated
by three 1-forms; after a coordinate change these become the dual-picture
coframe annihilators with A = -H'(t), B = -H(t). Flatness of the
corresponding 5D metric is therefore governed by the same sixth-order
ODE in H, which is what g2_certificate evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chazy import residual_ds6
from .dist import SolutionSpec, F_jet, get_spec, legendre_transform
from .errors import InvalidParam
from .jets import Jet1
from . import geometry

M4_COORDS = ("w", "x", "y", "z")
T5_COORDS = ("w", "x", "y", "z", "xi")


@dataclass(frozen=True)
class PlebanskiData:
    """Potential data for the 4-metric and its circle bundle.

    theta_x: the potential Theta as a jet in x (all other partials
    vanish). point4 = (w, x, y, z) with x equal to the jet basepoint.
    """

    theta_x: Jet1
    point4: tuple
    xi: float

    def __post_init__(self):
        if abs(float(self.point4[1]) - float(self.theta_x.basepoint)) > 1e-12:
            raise InvalidParam("point4 x-coordinate must equal the Theta basepoint")

    @property
    def H(self) -> Jet1:
        """H(x) = -Theta_xx as a jet in x."""
        return -self.theta_x.derivative().derivative()

    @staticmethod
    def from_H(H: Jet1, point4=None, xi: float = 0.0) -> "PlebanskiData":
        """Theta = -(double antiderivative of H), constants zero."""
        theta = (-H).antiderivative(0.0).antiderivative(0.0)
        x0 = float(H.basepoint)
        if point4 is None:
            point4 = (0.0, x0, 0.0, 0.0)
        return PlebanskiData(theta, tuple(float(v) for v in point4), float(xi))

    @staticmethod
    def from_spec(spec: SolutionSpec, param_point: float, point4=None, xi: float = 0.0) -> "PlebanskiData":
        if spec.picture != "H_of_t":
            raise InvalidParam("the 4-metric potential needs a dual-picture entry")
        return PlebanskiData.from_H(F_jet(spec, param_point), point4, xi)


def plebanski_metric(d: PlebanskiData) -> geometry.MetricJet:
    """g = dw dx + dz dy + H(x) dz^2 as an order-2 jet in (w, x, y, z)."""
    dim = 4
    value = np.zeros((dim, dim))
    grad = np.zeros((dim, dim, dim))
    hess = np.zeros((dim, dim, dim, dim))
    value[0, 1] = value[1, 0] = value[2, 3] = value[3, 2] = 0.5
    c = d.H.coeffs  # H depends on x alone, the coordinate of index 1
    value[3, 3], grad[1, 3, 3], hess[1, 1, 3, 3] = c[0], c[1], 2.0 * c[2]
    return geometry.MetricJet(value, grad, hess)


def connection_forms(d: PlebanskiData) -> dict:
    """The four displayed connection 1-forms as coefficient rows.

    Rows are coefficients against (dw, dx, dy, dz), each a jet in x.
    With an x-only potential all y-partials vanish, so only the dz
    coefficient of Gamma^3_1 survives: -Theta_xxx.
    """
    x0 = float(d.theta_x.basepoint)
    n = max(d.theta_x.order - 3, 0)
    zero = Jet1(x0, [0.0] * (n + 1))
    theta_xxx = d.theta_x.derivative().derivative().derivative()
    return {
        "Gamma^1_1": (zero, zero, zero, zero),
        "Gamma^1_3": (zero, zero, zero, zero),
        "Gamma^3_1": (zero, zero, zero, -theta_xxx),
        "Gamma^3_3": (zero, zero, zero, zero),
    }


def frame_connection_check(d: PlebanskiData) -> float:
    """Levi-Civita oracle for the displayed connection forms.

    Builds the null frame e_1 = dx-dual, ..., computes
    Gamma^i_j(e_c) = theta^i(nabla_{e_c} e_j) from coordinate
    Christoffel symbols, and returns the max mismatch against the
    displayed forms.
    """
    g = plebanski_metric(d)
    rep = geometry.curvature(g)
    Gam = rep.christoffel
    H0 = d.H.value()
    H1 = d.H.deriv(1)
    theta_xxx0 = float(d.theta_x.deriv(3))
    # frame vectors in coordinates (w, x, y, z)
    e = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],  # e_1, dual to theta^1 = dx
            [1.0, 0.0, 0.0, 0.0],  # e_2, dual to theta^2 = dw
            [0.0, 0.0, 1.0, 0.0],  # e_3, dual to theta^3 = dy + H dz
            [0.0, 0.0, -H0, 1.0],  # e_4, dual to theta^4 = dz
        ]
    )
    # coframe rows theta^i_a
    th = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, H0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    # d_b e_j^a: only e_4^y = -H(x) varies, in x (coordinate index 1)
    de = np.zeros((4, 4, 4))  # [b, j, a]
    de[1, 3, 2] = -H1
    # Gamma^i_j(e_c) = theta^i_a e_c^b (d_b e_j^a + Gam[a,b,d] e_j^d)
    nabla = np.einsum("cb,bja->cja", e, de) + np.einsum(
        "cb,abd,jd->cja", e, Gam, e
    )
    conn = np.einsum("ia,cja->ijc", th, nabla)  # Gamma^i_j on e_c
    expected = np.zeros((4, 4, 4))
    expected[2, 0, 3] = -theta_xxx0  # Gamma^3_1(e_4)
    pairs = [(0, 0), (0, 2), (2, 0), (2, 2)]  # the displayed (i, j)
    err = max(
        float(np.max(np.abs(conn[i, j] - expected[i, j]))) for i, j in pairs
    )
    return err


def metric_compatibility_error(g: geometry.MetricJet) -> float:
    """Max |nabla g| for the Levi-Civita connection computed from g."""
    Gam = geometry.curvature(g).christoffel
    G = g.value
    nabla = (geometry.padded_grad(g) - np.einsum("dca,db->cab", Gam, G)
             - np.einsum("dcb,ad->cab", Gam, G))
    return float(np.max(np.abs(nabla)))


def annihilator_polynomials(d: PlebanskiData):
    """(A coefficients, B coefficients) as polynomials in xi.

    A = Theta_xxx + 3 Theta_yxx xi + 3 Theta_yyx xi^2 + Theta_yyy xi^3;
    B = Theta_xx + 2 Theta_xy xi + Theta_yy xi^2. With an x-only
    potential only the constant terms survive.
    """
    t = d.theta_x
    A = (float(t.deriv(3)), 0.0, 0.0, 0.0)
    B = (float(t.deriv(2)), 0.0, 0.0)
    return A, B


def twistor_annihilators(d: PlebanskiData):
    """The three annihilator 1-forms over (w, x, y, z, xi).

    Returns rows of coefficients: dxi - A dz, xi dz + dw, and
    dy - xi dx - B dz.
    """
    A_coeffs, B_coeffs = annihilator_polynomials(d)
    xi = d.xi
    A = sum(c * xi**k for k, c in enumerate(A_coeffs))
    B = sum(c * xi**k for k, c in enumerate(B_coeffs))
    w3 = (0.0, 0.0, 0.0, -A, 1.0)
    w4 = (1.0, 0.0, 0.0, xi, 0.0)
    w5 = (0.0, -xi, 1.0, -B, 0.0)
    return w3, w4, w5


def twistor_coordinate_check(d: PlebanskiData) -> float:
    """Coefficient mismatch after the coordinate change to the dual picture.

    Substitutes x -> t, w -> y', z -> x', -xi -> p', y -> z' - p' t,
    reduces the third form modulo the first, and compares against
    (-dp' - A' dx', -p' dx' + dy', dz' + (t A' - B') dx') with
    A' = -H'(t), B' = -H(t). Returns the max coefficient mismatch.
    """
    w3, w4, w5 = twistor_annihilators(d)
    t0 = float(d.point4[1])
    p0 = -d.xi
    # new-coordinate coefficient rows over (x', y', z', p', t):
    # dw = dy', dx = dt, dy = dz' - p' dt - t dp', dz = dx', dxi = -dp'
    def pullback(row):
        cw, cx, cy, cz, cxi = row
        out = np.zeros(5)
        out[1] += cw          # dy'
        out[4] += cx          # dt
        out[2] += cy          # dz'
        out[4] += -p0 * cy    # -p' dt
        out[3] += -t0 * cy    # -t dp'
        out[0] += cz          # dx'
        out[3] += -cxi        # -dp'
        return out

    f3, f4, f5 = pullback(w3), pullback(w4), pullback(w5)
    f5 = f5 - t0 * f3  # eliminate the dp' term using the first form
    A_t = -float(d.H.deriv(1))
    B_t = -float(d.H.value())
    target3 = np.array([-A_t, 0.0, 0.0, -1.0, 0.0])
    target4 = np.array([-p0, 1.0, 0.0, 0.0, 0.0])
    target5 = np.array([t0 * A_t - B_t, 0.0, 1.0, 0.0, 0.0])
    return float(
        max(
            np.max(np.abs(f3 - target3)),
            np.max(np.abs(f4 - target4)),
            np.max(np.abs(f5 - target5)),
        )
    )


def g2_certificate(case_id: str, param_point: float, order: int = 8) -> dict:
    """The sixth-order ODE residual of the dual-picture H for a catalog entry.

    Dual-picture entries evaluate H directly; F-picture entries pass
    through the Legendre transform first. A small residual certifies the
    flatness of the associated 5D metric and hence, by the
    correspondence, the maximal symmetry of the lifted distribution.
    """
    spec = get_spec(case_id)
    if spec.picture == "H_of_t":
        H = F_jet(spec, param_point, order)
        route = "direct"
    else:
        F = F_jet(spec, param_point, order)
        _, H = legendre_transform(F)
        route = "legendre"
    res = residual_ds6(H)
    return {
        "id": spec.id,
        "route": route,
        "residual": float(res),
        "expectFail": spec.expect_fail,
    }
