"""Bi-orthogonal polynomial systems on the unit circle.

Builds the full data stack of a regular semi-classical weight: moments,
Toeplitz determinants, the two polynomial families with their associated
functions, the spectral polynomials of the first-order matrix system,
canonical coordinates with their Hamiltonians, and the coupled discrete
recurrences in the level index - with every quantity reachable by two
independent routes so the identity lattice doubles as a test suite.
"""

from .bops import BopsLevel, ToeplitzOracle, toeplitz_det
from .deform import deformation_residuals, rational_workspace
from .discrete_garnier import (DGState, dg_from_spectral, dg_initial,
                               dg_invert, dg_step, dg_trajectory, tau_recovery)
from .garnier import (GarnierPoint, canonical_transform,
                      coordinates_from_spectral, hamiltonian)
from .moments import MomentSequence, UPoly, build_U, moment_quadrature
from .spectral import SpectralData, SpectralWorkspace, spectral_from_oracle
from .weights import (PolyPair, WeightData, build_poly_pair, build_weight,
                      eval_weight_on_circle)

__all__ = [
    "BopsLevel", "DGState", "GarnierPoint", "MomentSequence", "PolyPair",
    "SpectralData", "SpectralWorkspace", "ToeplitzOracle", "UPoly",
    "WeightData", "build_U", "build_poly_pair", "build_weight",
    "canonical_transform", "coordinates_from_spectral",
    "deformation_residuals", "dg_from_spectral", "dg_initial", "dg_invert",
    "dg_step", "dg_trajectory", "eval_weight_on_circle", "hamiltonian",
    "moment_quadrature", "rational_workspace", "spectral_from_oracle",
    "tau_recovery", "toeplitz_det",
]

__version__ = "0.1.0"
