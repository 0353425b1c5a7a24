"""Resource accounting for estimator runs.

Four counters are tracked separately and never converted into each other:
information cost (functional evaluations, charged m+1 per evaluation on an
m-step path), random bits, calls to a continuous random number generator
(normal draws), and drift/diffusion evaluations.
"""

from dataclasses import dataclass


@dataclass
class CostLedger:
    info_cost: int = 0
    bit_count: int = 0
    coin_count: int = 0
    coeff_evals: int = 0
