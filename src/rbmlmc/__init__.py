"""Random-bit multilevel Monte Carlo quadrature for SDEs.

Counted random-bit sampling of quantized normals, coupled Euler schemes,
multilevel estimators with classical, bit, and pairwise-independent
(Bakhvalov) randomness, exact enumeration oracles, and a cost ledger.
"""

from .bitsource import BitSource
from .errors import FeasibilityError
from .ledger import CostLedger
from .qnormal import normal_quantile, quantize_normal
from .sde import SDEProblem, preset
from .euler import bit_increments, classical_increments
from .functionals import Functional, preset_functional
from .bakhvalov import exact_pairwise_check, find_nonuniform_tuple
from .mlmc import MLMCParams, MLMCReport, params_for_eps, run
from .oracle import exact_level_values

__version__ = "0.1.0"
