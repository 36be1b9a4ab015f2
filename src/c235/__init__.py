"""Verification library for a catalog of flat rank-2 distributions in
dimension five, their sixth-order ODE characterisations, and the
associated split-signature geometry.

Submodules:
    jets       truncated univariate Taylor arithmetic and order-2 jets
               in the frame variable lam
    specialfn  hypergeometric series, closed-form solution pairs, and
               classical transformation identities
    chazy      ODE residual evaluators and solution builders for the
               Chazy-type equations
    dist       the solution catalog and the Legendre duality between
               the two pictures
    geometry   coframes, metric assembly, curvature certification
    twistor    the split G2 symmetry certificates of the circle-twistor
               construction over split-signature 4-metrics
    cli        the ``c235`` command-line driver
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .jets import Jet1, MJet2, jet_var, jet_const  # noqa: F401
from .dist import catalog, get_spec, F_jet, legendre_transform  # noqa: F401
