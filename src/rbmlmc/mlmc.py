"""Multilevel Euler estimators driven by normals or counted random bits.

Four variants of the telescoping estimator

    A(f) = mean_i f(X_{1,i}) + sum_{l=1..L} mean_i [f(X_{2^l,i}) - f(X~_{2^{l-1},i})]

differing only in how the level-l increment batches are produced:

* classical: i.i.d. Brownian increments, one RNG call counted per normal;
* bit:       quantized normals at depth q, d*q bits per increment,
             replications independent;
* bbit:      per time index one quadratic pairwise-independent family built
             from 2*ceil(sqrt(N_l)) generator draws, replications pairwise
             independent at a reduced bit budget;
* bbit_log:  same with the logarithmic family from 2*ceil(log2 N_l)
             generators.

Parameter schedules for a target accuracy eps in (0, 1/2):
L = ceil(log2(eps^-2) + log2(log2(eps^-2))), N_l = ceil((L+1) 2^-l max(l,1)
eps^-2), q = L; N_l is exact through Fraction.
The closed-form bit, coin, information-cost and work counts of a schedule
close the module; cost-report tabulates them.
"""

import math
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

VARIANTS = ("classical", "bit", "bbit", "bbit_log")


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
        if self.variant != "classical" and (self.q is None or self.q < 1):
            raise ValueError("bit-based variants require q >= 1")

    @property
    def n(self) -> tuple:
        """bbit draws 2 n_l generators, n_l the least with n_l^2 >= N_l."""
        return tuple(math.isqrt(Nl - 1) + 1 for Nl in self.N)

    @property
    def nhat(self) -> tuple:
        """bbit_log draws 2 nhat_l generators, nhat_l the least with
        2^nhat_l >= N_l, as a float; 0.5 encodes N_l == 1, one generator."""
        return tuple(float((Nl - 1).bit_length()) or 0.5 for Nl in self.N)


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
    return MLMCParams(variant, L, N, q=None if variant == "classical" else L)


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
    """Increment batch of shape (N_l, 2^level, d) for the given variant."""
    m = 1 << level
    N = params.N[level]
    d = p.d
    if params.variant == "classical":
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, level], dtype=np.uint64)))
        v = classical_increments(rng, m, d, n=N)
        ledger.coin_count += v.size
        return v
    src = BitSource(seed, stream_id=level)
    q = params.q
    if params.variant == "bit":
        v = bit_increments(src, m, q, d, n=N)
    else:
        bbit = params.variant == "bbit"
        if not bbit and N == 1:  # bbit_log's one generator is the output
            nums = src.draw_dyadic_numerators(q, (1, m, d))
        else:
            # Both families draw two rows of k generators per time index,
            # time first; folding time into the coordinate axis combines
            # every time index in one call.
            k = params.n[level] if bbit else int(params.nhat[level])
            g = src.draw_dyadic_numerators(q, (m, 2, k, d))
            g = np.moveaxis(g, 0, 2).reshape(2, k, m * d)
            nums = (quadratic_outputs(g[0], g[1], q, N) if bbit
                    else logarithmic_outputs(g, q, N)).reshape(N, m, d)
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

def bit_count_formula(params: MLMCParams, d: int = 1) -> int:
    """Exact random-bit budget of a schedule, by variant."""
    if params.variant == "classical":
        return 0
    q = params.q
    if params.variant == "bit":
        return sum(N * (1 << l) * d * q for l, N in enumerate(params.N))
    if params.variant == "bbit":
        return sum(2 * n * (1 << l) * q * d for l, n in enumerate(params.n))
    # 2*nhat is 1 for the single-replication edge case, an even int otherwise
    return d * sum((1 << l) * q * int(round(2 * nh))
                   for l, nh in enumerate(params.nhat))


def coin_count_formula(params: MLMCParams, d: int = 1) -> int:
    """Normal draws of the classical schedule."""
    if params.variant != "classical":
        return 0
    return sum(N * (1 << l) * d for l, N in enumerate(params.N))


def info_cost_formula(params: MLMCParams) -> int:
    """Functional-evaluation charge: fine m+1 per replication, coarse m/2+1."""
    total = 0
    for l, N in enumerate(params.N):
        m = 1 << l
        total += N * (m + 1)
        if l > 0:
            total += N * (m // 2 + 1)
    return total


def work_model(params: MLMCParams) -> int:
    """Order-of-cost surrogate from the analysis, by variant, with base =
    sum_l N_l m_l: classical is base; bit is q * base, with no base term;
    bbit is base + q sum_l n_l m_l, which counts half of its 2 n_l
    generators; bbit_log is base + q sum_l 2 nhat_l m_l, which counts all
    of them."""
    base = sum(N * (1 << l) for l, N in enumerate(params.N))
    if params.variant == "classical":
        return base
    q = params.q
    if params.variant == "bit":
        return q * base
    if params.variant == "bbit":
        return base + sum(n * (1 << l) * q for l, n in enumerate(params.n))
    return base + sum(int(round(2 * nh)) * (1 << l) * q
                      for l, nh in enumerate(params.nhat))
