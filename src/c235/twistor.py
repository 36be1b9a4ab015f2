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

import numpy as np

from .dist import SolutionSpec, F_jet, dual_residual, get_spec
from .errors import InvalidParam
from .jets import Jet1
from . import geometry


@dataclass(frozen=True)
class PlebanskiData:
    """Data for the 4-metric and its circle bundle.

    H: H(x) = -Theta_xx as a jet in x (every other partial of the potential
    vanishes). point4 = (w, x, y, z), by default (0, x0, 0, 0), with x equal
    to the basepoint x0 of H; xi is the fibre coordinate.
    """

    H: Jet1
    point4: tuple | None = None
    xi: float = 0.0

    def __post_init__(self):
        x0 = float(self.H.basepoint)
        point4 = (0.0, x0, 0.0, 0.0) if self.point4 is None else tuple(float(v) for v in self.point4)
        if abs(point4[1] - x0) > 1e-12:
            raise InvalidParam("point4 x-coordinate must equal the basepoint of H")
        object.__setattr__(self, "point4", point4)
        object.__setattr__(self, "xi", float(self.xi))

    @staticmethod
    def from_spec(spec: SolutionSpec, param_point: float, point4=None, xi: float = 0.0) -> "PlebanskiData":
        if spec.picture != "H_of_t":
            raise InvalidParam("the 4-metric potential needs a dual-picture entry")
        return PlebanskiData(F_jet(spec, param_point), point4, xi)


def plebanski_metric(d: PlebanskiData) -> geometry.MatrixJet:
    """g = dw dx + dz dy + H(x) dz^2 as an order-2 jet in (w, x, y, z)."""
    dim = 4
    value = np.zeros((dim, dim))
    grad = np.zeros((dim, dim, dim))
    hess = np.zeros((dim, dim, dim, dim))
    value[0, 1] = value[1, 0] = value[2, 3] = value[3, 2] = 0.5
    c = d.H.coeffs  # H depends on x alone, the coordinate of index 1
    value[3, 3], grad[1, 3, 3], hess[1, 1, 3, 3] = c[0], c[1], 2.0 * c[2]
    return geometry.MatrixJet(value, grad, hess)


def connection_forms(d: PlebanskiData) -> dict:
    """The four displayed connection 1-forms as coefficient rows.

    Rows are coefficients against (dw, dx, dy, dz), each a jet in x.
    With an x-only potential all y-partials vanish, so only the dz
    coefficient of Gamma^3_1 survives: -Theta_xxx = H'.
    """
    H1 = d.H.derivative()
    zero = Jet1(H1.basepoint, np.zeros_like(H1.coeffs))
    return {
        "Gamma^1_1": (zero, zero, zero, zero),
        "Gamma^1_3": (zero, zero, zero, zero),
        "Gamma^3_1": (zero, zero, zero, H1),
        "Gamma^3_3": (zero, zero, zero, zero),
    }


def frame_connection_check(d: PlebanskiData) -> float:
    """Levi-Civita oracle for the displayed connection forms.

    Builds the null frame e_1 = dx-dual, ..., computes
    Gamma^i_j(e_c) = theta^i(nabla_{e_c} e_j) from coordinate
    Christoffel symbols, and returns the max mismatch against
    `connection_forms` evaluated on the same frame.
    """
    Gam = geometry.curvature(plebanski_metric(d)).christoffel
    H0 = d.H.value()
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
    de[1, 3, 2] = -d.H.deriv(1)
    # Gamma^i_j(e_c) = theta^i_a e_c^b (d_b e_j^a + Gam[a,b,d] e_j^d)
    nabla = np.einsum("cb,bja->cja", e, de) + np.einsum(
        "cb,abd,jd->cja", e, Gam, e
    )
    conn = np.einsum("ia,cja->ijc", th, nabla)  # Gamma^i_j on e_c
    forms = connection_forms(d)
    slots = {"Gamma^1_1": (0, 0), "Gamma^1_3": (0, 2), "Gamma^3_1": (2, 0), "Gamma^3_3": (2, 2)}
    return max(
        float(np.max(np.abs(conn[i, j] - e @ [c.value() for c in forms[name]])))
        for name, (i, j) in slots.items()
    )


def metric_compatibility_error(g: geometry.MatrixJet) -> float:
    """Max |nabla g| for the Levi-Civita connection computed from g."""
    Gam = geometry.curvature(g).christoffel
    G = g.value
    nabla = (geometry.padded_grad(g) - np.einsum("dca,db->cab", Gam, G)
             - np.einsum("dcb,ad->cab", Gam, G))
    return float(np.max(np.abs(nabla)))


def twistor_annihilators(d: PlebanskiData):
    """The three annihilator 1-forms over (w, x, y, z, xi).

    Returns rows of coefficients: dxi - A dz, xi dz + dw, and
    dy - xi dx - B dz, with A and B polynomials in xi:
    A = Theta_xxx + 3 Theta_yxx xi + 3 Theta_yyx xi^2 + Theta_yyy xi^3,
    B = Theta_xx + 2 Theta_xy xi + Theta_yy xi^2. An x-only potential has
    no y-partials, so only the constant terms survive: A = -H', B = -H.
    """
    A, B, xi = -float(d.H.deriv(1)), -float(d.H.value()), d.xi
    return (0.0, 0.0, 0.0, -A, 1.0), (1.0, 0.0, 0.0, xi, 0.0), (0.0, -xi, 1.0, -B, 0.0)


def twistor_coordinate_check(d: PlebanskiData) -> float:
    """Coefficient mismatch after the coordinate change to the dual picture.

    Substitutes x -> t, w -> y', z -> x', -xi -> p', y -> z' - p' t,
    reduces the third form modulo the first, and compares against
    (-dp' - A' dx', -p' dx' + dy', dz' + (t A' - B') dx') with
    A' = -H'(t), B' = -H(t). Returns the max coefficient mismatch.
    """
    t0, p0 = d.point4[1], -d.xi
    # d(w, x, y, z, xi) against d(x', y', z', p', t)
    jac = np.array([[0.0, 1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.0, 1.0, -t0, -p0],
                    [1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, -1.0, 0.0]])
    f = np.array(twistor_annihilators(d)) @ jac
    f[2] -= t0 * f[0]  # eliminate the dp' term using the first form
    A, B = -d.H.deriv(1), -d.H.value()
    target = np.array([[-A, 0.0, 0.0, -1.0, 0.0],
                       [-p0, 1.0, 0.0, 0.0, 0.0],
                       [t0 * A - B, 0.0, 1.0, 0.0, 0.0]])
    return float(np.max(np.abs(f - target)))


def g2_certificate(case_id: str, param_point: float) -> dict:
    """The sixth-order ODE residual of the dual-picture H for a catalog entry.

    It is dist.dual_residual, as in c235 verify. A small residual certifies
    the flatness of the associated 5D metric and hence, by the
    correspondence, the maximal symmetry of the lifted distribution.
    """
    spec = get_spec(case_id)
    return {
        "id": spec.id,
        "route": "direct" if spec.picture == "H_of_t" else "legendre",
        "residual": float(dual_residual(spec, F_jet(spec, param_point))),
        "expectFail": spec.expect_fail,
    }
