"""Symmetry certificates for the circle-twistor construction.

A second-heavenly potential Theta depending on x alone produces the
split-signature 4-metric g = dw dx + dz dy + H(x) dz^2 with H = -Theta_xx.
The rank-2 distribution on its circle bundle becomes, after a coordinate
change that holds for every H, the dual-picture distribution of H; that
change is proved once, as an exact polynomial identity, in the tests. So
the split G2 symmetry of the lifted distribution is the flatness of H,
which g2_certificate certifies per catalog entry.
"""

from __future__ import annotations

from .dist import F_jet, dual_residual, get_spec


def g2_certificate(case_id: str, param_point: float) -> dict:
    """The sixth-order ODE residual of the dual-picture H for a catalog entry.

    It is dist.dual_residual: of H itself (route `direct`, as c235 verify
    reports it), or of the Legendre transform of F (route `legendre`). A
    small residual certifies the flatness of the associated 5D metric and
    hence, by the correspondence, the maximal symmetry of the lifted
    distribution.
    """
    spec = get_spec(case_id)
    return {
        "id": spec.id,
        "route": "direct" if spec.picture == "H_of_t" else "legendre",
        "residual": float(dual_residual(spec, F_jet(spec, param_point))),
        "expectFail": spec.expect_fail,
    }
