"""The 4-metric potential picture and its certificates.

For any H(x) the split-signature metric g = dw dx + dz dy + H(x) dz^2
carries a circle bundle of null 2-planes whose horizontal lifts form a
rank-2 distribution. Its annihilator 1-forms become, under an explicit
coordinate change, exactly the dual-picture coframe data of H; that change
is an identity for every H, proved once and exactly by
`coordinate_change_mismatch` in tests/oracles.py. So maximal symmetry
reduces to the sixth-order ODE residual of H, which this demo prints for
every catalog case.
"""

from c235.dist import catalog
from c235.twistor import g2_certificate

def main():
    print("symmetry certificates (residual of the sixth-order ODE on H):")
    for spec in sorted(catalog(), key=lambda s: s.id):
        lo, hi = spec.domain
        t0 = 0.5 * (lo + hi) if hi < 2 else lo + 0.4
        out = g2_certificate(spec.id, t0)
        tag = " (control, expected to fail)" if out["expectFail"] else ""
        print(f"  {spec.id:30s} via {out['route']:8s} residual = {out['residual']:.3e}{tag}")

if __name__ == "__main__":
    main()
