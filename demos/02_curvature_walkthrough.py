"""From a solution jet to the 5D metric and its curvature.

Builds the signature-(2,3) metric for the elementary closed-form family,
shows that its Ricci tensor in the r coordinate is 6/(r^2 - 1) on the
dr x dr slot, and that the displayed conformal rescaling makes the
metric Ricci-flat. Also sweeps the Weyl-flatness ratio for one flat
entry and one control.
"""

import numpy as np

from c235.dist import get_spec
from c235.geometry import (
    conformal_rescale_check,
    curvature,
    flatness_suite,
    reduced_metric,
    sample_points,
)
from c235.jets import jet_abs_pow, jet_var
from c235.specialfn import ClosedFormId, closed_form_solution

POINT4 = (0.3, -0.2, 0.5, 0.7)

def elementary_frame(r0):
    z1, z2 = closed_form_solution(ClosedFormId("elementary_r", (1, 0, 0, 1)), r0, 8)
    q_of = z2 / z1
    Fpp = z1 ** 3
    Fp = (Fpp * q_of.derivative()).antiderivative(0.0)
    return q_of, (Fp * q_of.derivative()).antiderivative(0.0)

def omega_factor(r0):
    r = jet_var(r0, 8)
    num = (r * 3.0 + 1.0) * jet_abs_pow(r - 1.0, 1.0 / 3.0) * (4.0 / 3.0)
    den = jet_abs_pow(r - 1.0, 1.0 / 3.0) - jet_abs_pow(r + 1.0, 1.0 / 3.0)
    return num / den

def main():
    for r0 in (1.5, 2.0, 3.0):
        q_of, F_of = elementary_frame(r0)
        rep = curvature(reduced_metric(q_of, F_of, POINT4))
        print(f"r = {r0}: Ricci_rr = {rep.ricci[4, 4]:.12f}   "
              f"6/(r^2-1) = {6.0 / (r0 * r0 - 1.0):.12f}")
        nu = 1.0 / omega_factor(r0)
        if nu.value() < 0:
            nu = -nu
        out = conformal_rescale_check(q_of, F_of, nu, POINT4)
        print(f"         rescaled |Ricci| = {out['ricciMax']:.3e}")
    print()
    for case in ("F-power-1/3", "F-power-3"):
        spec = get_spec(case)
        out = flatness_suite(spec, sample_points(spec, 5, seed=0))
        worst = max(r["weylRatio"] for r in out["results"])
        print(f"{case}: worst Weyl ratio over 5 points = {worst:.3e} "
              f"({'flat' if out['pass'] else 'NOT flat'})")

if __name__ == "__main__":
    main()
