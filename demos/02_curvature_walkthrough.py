"""From a solution jet to the 5D metric and its curvature.

Builds the signature-(2,3) metric for the elementary closed-form family,
shows that its Ricci tensor in the r coordinate is 6/(r^2 - 1) on the
dr x dr slot, and that the displayed conformal rescaling makes the
metric Ricci-flat. Also sweeps the Weyl-flatness ratio for one flat
entry and one control: `c235 verify` certifies flatness by the ODE
residual alone, since the one frame Weyl component is exactly the
sixth-order left side over -100 F''^4, but the ratio shows it in the metric.
"""

from dataclasses import replace
from fractions import Fraction

from c235.dist import get_spec
from c235.geometry import (
    build_coframe,
    conformal_rescale_check,
    coframe_for_spec,
    curvature,
    elementary_frame_jets,
    metric_at,
    sample_points,
    weyl_ratio,
)
from c235.jets import jet_pow, jet_var

POINT4 = (0.3, -0.2, 0.5, 0.7)
# the Weyl ratio's tolerance: it has units of 1/lam^2, and flat cases read up to 4e-9
WEYL_TOL = 1e-7
ELEMENTARY = get_spec("F-elementary-r")
# the displayed rescaling belongs to the unmixed pair (z1, z2), constants (1, 0, 0, 1)
UNMIXED = replace(ELEMENTARY, params={"constants": (1, 0, 0, 1)})

def omega_factor(r0):
    r = jet_var(r0, 8)
    num = (r * 3.0 + 1.0) * jet_pow(r - 1.0, Fraction(1, 3)) * (4.0 / 3.0)
    den = jet_pow(r - 1.0, Fraction(1, 3)) - jet_pow(r + 1.0, Fraction(1, 3))
    return num / den

def main():
    for r0 in (1.5, 2.0, 3.0):
        # the Ricci law holds for any basis mixing, the catalog's among them
        rep = curvature(metric_at(build_coframe(*elementary_frame_jets(ELEMENTARY, r0), POINT4)))
        print(f"r = {r0}: Ricci_rr = {rep.ricci[4, 4]:.12f}   "
              f"6/(r^2-1) = {6.0 / (r0 * r0 - 1.0):.12f}")
        nu = 1.0 / omega_factor(r0)
        if nu.value() < 0:
            nu = -nu
        out = conformal_rescale_check(*elementary_frame_jets(UNMIXED, r0), nu, POINT4)
        print(f"         rescaled |Ricci| = {out['ricciMax']:.3e}")
    print()
    for case in ("F-power-1/3", "F-power-3"):
        spec = get_spec(case)
        worst = max(weyl_ratio(metric_at(coframe_for_spec(spec, sample_points(spec, 5, seed=0)))))
        print(f"{case}: worst Weyl ratio over 5 points = {worst:.3e} "
              f"({'flat' if worst < WEYL_TOL else 'NOT flat'})")

if __name__ == "__main__":
    main()
