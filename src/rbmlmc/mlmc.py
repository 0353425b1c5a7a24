"""Multilevel Euler estimators driven by normals or counted random bits.

Four variants of the telescoping estimator

    A(f) = mean_i f(X_{1,i}) + sum_{l=1..L} mean_i [f(X_{2^l,i}) - f(X~_{2^{l-1},i})]

differ in one decision only, how a level draws its N_l replications, and
VARIANTS holds that decision as one row per variant:

* classical: i.i.d. Brownian increments, one RNG call counted per normal;
* bit:       N_l independent q-bit quantized normals per increment;
* bbit:      2 x ceil(sqrt(N_l)) q-bit generators per increment, which the
             quadratic family combines into pairwise independent ones;
* bbit_log:  2 x ceil(log2 N_l) generators, the logarithmic family; one
             generator, its own output, at N_l == 1.

Parameter schedules for a target accuracy eps in (0, 1/2):
L = ceil(log2(eps^-2) + log2(log2(eps^-2))), N_l = ceil((L+1) 2^-l max(l,1)
eps^-2), q = L; N_l is exact through Fraction.
The closed-form bit, coin and information-cost counts of a schedule close
the module; work_model is their sum, and cost-report tabulates them.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bakhvalov import logarithmic_outputs, quadratic_outputs
from .bitsource import BitSource
from .errors import FeasibilityError
from .euler import (bit_increments, classical_increments, coarse_from_fine,
                    euler_paths_batch)
from .functionals import Functional
from .ledger import CostLedger
# normal_quantile is unused here but stays bound: benchmark tracers patch it.
from .qnormal import MAX_DEPTH, normal_quantile, quantized_normals
from .sde import SDEProblem


@dataclass(frozen=True)
class Variant:
    """How a level draws N replications: normals, or per time index and
    component q-bit numerators of shape block(N), which combine(g, q, N)
    turns into N outputs; combine None: each numerator is a replication."""
    normals: bool
    block: Callable
    combine: Callable | None = None


# a combine looks its family up at call time: benchmark tracers patch it
VARIANTS = {
    "classical": Variant(True, lambda N: (N,)),
    "bit": Variant(False, lambda N: (N,)),
    "bbit": Variant(False, lambda N: (2, math.isqrt(N - 1) + 1),
                    lambda *a: quadratic_outputs(*a)),
    "bbit_log": Variant(False, lambda N: (2, (N - 1).bit_length()) if N > 1
                        else (1, 1), lambda *a: logarithmic_outputs(*a)),
}


@dataclass(frozen=True)
class MLMCParams:
    """A schedule: variant, finest level L, replications N_l, depth q."""
    variant: str
    L: int
    N: tuple
    q: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.L < 0 or len(self.N) != self.L + 1:
            raise ValueError("N must list one replication count per level")
        if any(x < 1 for x in self.N):
            raise ValueError("replication counts must be >= 1")
        if not self.row.normals and (self.q is None or self.q < 1):
            raise ValueError("bit-based variants require q >= 1")

    @property
    def row(self) -> Variant:
        return VARIANTS[self.variant]

    @property
    def n(self) -> tuple:
        """n_l, the least with n_l^2 >= N_l: the bbit block is (2, n_l)."""
        return tuple(VARIANTS["bbit"].block(Nl)[1] for Nl in self.N)

    @property
    def nhat(self) -> tuple:
        """nhat_l, the least with 2^nhat_l >= N_l, as a float: half the
        bbit_log row's generators, so 0.5 at N_l == 1, one generator."""
        return tuple(math.prod(VARIANTS["bbit_log"].block(Nl)) / 2
                     for Nl in self.N)


def params_for_eps(epsilon: float, variant: str) -> MLMCParams:
    """Schedules L, N_l, q for a target accuracy in (0, 1/2)."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    x = 1 / (Fraction(epsilon) ** 2)  # eps^-2, exact
    if x > np.finfo(float).max:
        raise ValueError(f"epsilon^-2 exceeds the float range, got epsilon "
                         f"= {epsilon!r}")
    lx = math.log2(float(x))
    L = math.ceil(lx + math.log2(lx))
    N = tuple(
        -(-((L + 1) * max(l, 1) * x.numerator) // (x.denominator << l))
        for l in range(L + 1))
    row = VARIANTS.get(variant)  # MLMCParams rejects an unknown name
    return MLMCParams(variant, L, N, q=None if row and row.normals else L)


@dataclass(frozen=True)
class LevelStats:
    mean: float
    variance: float


@dataclass(frozen=True)
class MLMCReport:
    estimate: float
    levels: tuple
    ledger: CostLedger
    params: MLMCParams


def _level_increments(p: SDEProblem, params: MLMCParams, level: int,
                      seed: int, ledger: CostLedger) -> np.ndarray:
    """Increment batch (N_l, 2^level, d), drawn as the variant's row says."""
    m = 1 << level
    N = params.N[level]
    d = p.d
    row = params.row
    if row.normals:
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, level], dtype=np.uint64)))
        v = classical_increments(rng, m, d, n=N)
        ledger.coin_count += v.size
        return v
    src = BitSource(seed, stream_id=level)
    q = params.q
    if row.combine is None:
        v = bit_increments(src, m, q, d, n=N)
    else:
        # blocks are drawn time first; folding time into the coordinate
        # axis combines every time index in one call
        block = row.block(N)
        g = src.draw_dyadic_numerators(q, (m, *block, d))
        g = np.moveaxis(g, 0, -2).reshape(*block, m * d)
        nums = row.combine(g, q, N).reshape(N, m, d)
        v = quantized_normals(nums, q) / math.sqrt(m)
    ledger.bit_count += src.bits_consumed
    return v


def level_values(p: SDEProblem, f: Functional, v: np.ndarray, coupled: bool,
                 ledger: CostLedger | None = None) -> np.ndarray:
    """The one coupled-level kernel, (n,): f at the fine paths of v (n, m, d),
    minus f at the coarse paths of coarse_from_fine(v) if coupled. Charges
    information cost m+1 per fine path and m/2+1 per coarse one."""
    n, m, _ = v.shape
    vals = f.eval_batch(euler_paths_batch(p, v, ledger=ledger))
    if coupled:
        coarse = euler_paths_batch(p, coarse_from_fine(v), ledger=ledger)
        vals = vals - f.eval_batch(coarse)
    if ledger is not None:
        ledger.info_cost += n * (m + 1 + (m // 2 + 1 if coupled else 0))
    return vals


def run(p: SDEProblem, f: Functional, params: MLMCParams,
        seed: int) -> MLMCReport:
    """Evaluate the multilevel estimator; deterministic in (seed, params)."""
    if params.q is not None and params.q > MAX_DEPTH:
        raise ValueError(f"quantization depth q = {params.q} exceeds "
                         f"{MAX_DEPTH}")
    # a level's largest array, increments or paths, must fit numpy's index
    for level, N in enumerate(params.N):
        nbytes = N * ((1 << level) + 1) * max(p.d, p.r) * 8
        if nbytes > np.iinfo(np.intp).max:
            raise FeasibilityError(f"level {level} needs one array of about "
                                   f"2^{nbytes.bit_length() - 1} bytes")
    ledger = CostLedger()
    levels = []
    estimate = 0.0
    for level, N in enumerate(params.N):
        v = _level_increments(p, params, level, seed, ledger)
        vals = level_values(p, f, v, level > 0, ledger)
        mean = float(np.mean(vals))
        var = float(np.var(vals, ddof=1)) if N > 1 else 0.0
        levels.append(LevelStats(mean=mean, variance=var))
        estimate += mean
    return MLMCReport(estimate=estimate, levels=tuple(levels), ledger=ledger,
                      params=params)


# ---------------------------------------------------------------------------
# Closed-form resource schedules (no simulation involved).

def _draws(params: MLMCParams, d: int) -> int:
    """Normals or numerators drawn: sum_l prod(block(N_l)) m_l d."""
    return d * sum(math.prod(params.row.block(N)) << l
                   for l, N in enumerate(params.N))


def bit_count_formula(params: MLMCParams, d: int = 1) -> int:
    """Exact random-bit budget: q bits per drawn numerator."""
    return 0 if params.row.normals else params.q * _draws(params, d)


def coin_count_formula(params: MLMCParams, d: int = 1) -> int:
    """Normal draws of a schedule whose row draws normals."""
    return _draws(params, d) if params.row.normals else 0


def info_cost_formula(params: MLMCParams) -> int:
    """Functional-evaluation charge: fine m+1 per replication, coarse m/2+1,
    as level_values charges it."""
    return sum(N * ((1 << l) + 1 + ((1 << l) // 2 + 1 if l else 0))
               for l, N in enumerate(params.N))


def work_model(params: MLMCParams, d: int = 1) -> int:
    """Cost of a schedule in ledger units, one rule for every variant: the
    analysis's information cost plus its random bits or normal draws at
    unit cost each, the sum of the counters a run at dimension d measures."""
    return (info_cost_formula(params) + bit_count_formula(params, d)
            + coin_count_formula(params, d))
