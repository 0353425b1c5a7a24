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
eps^-2), q = L; dyadic eps values are handled in exact integer arithmetic.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bakhvalov import logarithmic_outputs, quadratic_outputs
from .bitsource import BitSource
from .euler import (bit_increments, classical_increments, coarse_from_fine,
                    euler_paths_batch)
from .functionals import Functional
from .ledger import CostLedger
# normal_quantile is unused here but stays bound: benchmark tracers patch it.
from .qnormal import normal_quantile, quantized_normals
from .sde import SDEProblem

VARIANTS = ("classical", "bit", "bbit", "bbit_log")


@dataclass(frozen=True)
class MLMCParams:
    variant: str
    L: int
    N: tuple
    q: int | None = None
    n: tuple | None = None       # generator counts per level (bbit)
    nhat: tuple | None = None    # log-variant counts; 0.5 encodes N_l == 1
    epsilon: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.L < 0 or len(self.N) != self.L + 1:
            raise ValueError("N must list one replication count per level")
        if any(x < 1 for x in self.N):
            raise ValueError("replication counts must be >= 1")
        if self.variant != "classical" and (self.q is None or self.q < 1):
            raise ValueError("bit-based variants require q >= 1")
        if self.variant == "bbit":
            if self.n is None or any(nl * nl < Nl
                                     for nl, Nl in zip(self.n, self.N)):
                raise ValueError("bbit requires n_l with n_l^2 >= N_l")
        if self.variant == "bbit_log":
            if self.nhat is None:
                raise ValueError("bbit_log requires nhat per level")
            for nh, Nl in zip(self.nhat, self.N):
                if Nl >= 2 and (1 << int(nh)) < Nl:
                    raise ValueError(
                        f"family capacity 2^{int(nh)} < N_l = {Nl}")


def _ceil_sqrt(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def params_for_eps(epsilon: float, variant: str) -> MLMCParams:
    """Schedules L, N_l, q, n_l / nhat_l for a target accuracy in (0, 1/2)."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    x = 1 / (Fraction(epsilon) ** 2)  # eps^-2, exact
    if x.denominator == 1 and x.numerator & (x.numerator - 1) == 0:
        t = x.numerator.bit_length() - 1  # log2(eps^-2), exact integer
        L = t + (t - 1).bit_length()      # ceil(t + log2 t)
    else:
        lx = math.log2(float(x))
        L = math.ceil(lx + math.log2(lx))
    N = tuple(
        -(-((L + 1) * max(l, 1) * x.numerator) // (x.denominator << l))
        for l in range(L + 1))
    if variant == "classical":
        return MLMCParams(variant=variant, L=L, N=N, epsilon=epsilon)
    q = L
    if variant == "bit":
        return MLMCParams(variant=variant, L=L, N=N, q=q, epsilon=epsilon)
    if variant == "bbit":
        n = tuple(_ceil_sqrt(Nl) for Nl in N)
        return MLMCParams(variant=variant, L=L, N=N, q=q, n=n,
                          epsilon=epsilon)
    nhat = tuple(0.5 if Nl == 1 else float((Nl - 1).bit_length()) for Nl in N)
    return MLMCParams(variant=variant, L=L, N=N, q=q, nhat=nhat,
                      epsilon=epsilon)


@dataclass(frozen=True)
class LevelStats:
    level: int
    m: int
    count: int
    mean: float
    variance: float


@dataclass(frozen=True)
class MLMCReport:
    estimate: float
    levels: tuple
    ledger: CostLedger
    params: MLMCParams
    seed: int


def _level_increments(p: SDEProblem, params: MLMCParams, level: int,
                      seed: int, ledger: CostLedger) -> np.ndarray:
    """Increment batch of shape (N_l, 2^level, d) for the given variant."""
    m = 1 << level
    N = params.N[level]
    d = p.d
    if params.variant == "classical":
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, level], dtype=np.uint64)))
        return classical_increments(rng, m, d, n=N, ledger=ledger)
    src = BitSource(seed, stream_id=level)
    q = params.q
    before = src.bits_consumed
    if params.variant == "bit":
        return bit_increments(src, m, q, d, n=N, ledger=ledger)
    # Generators are drawn time index first; folding time into the
    # coordinate axis combines every time index in one call.
    if params.variant == "bbit":
        n = params.n[level]
        g = src.draw_dyadic_numerators(q, (m, 2 * n, d))
        g = np.moveaxis(g, 0, 1).reshape(2 * n, m * d)
        nums = quadratic_outputs(g[:n], g[n:], q)[:N].reshape(N, m, d)
    elif N == 1:  # bbit_log
        nums = src.draw_dyadic_numerators(q, (1, m, d))
    else:
        nh = int(params.nhat[level])
        g = src.draw_dyadic_numerators(q, (m, 2, nh, d))
        g = np.moveaxis(g, 0, 2).reshape(2, nh, m * d)
        nums = logarithmic_outputs(g, q)[:N].reshape(N, m, d)
    ledger.bit_count += src.bits_consumed - before
    return quantized_normals(nums, q) / math.sqrt(m)


def run(p: SDEProblem, f: Functional, params: MLMCParams,
        seed: int) -> MLMCReport:
    """Evaluate the multilevel estimator; deterministic in (seed, params)."""
    ledger = CostLedger()
    levels = []
    estimate = 0.0
    for level in range(params.L + 1):
        m = 1 << level
        N = params.N[level]
        v = _level_increments(p, params, level, seed, ledger)
        fine = euler_paths_batch(p, v, ledger=ledger)
        vals = f.eval_batch(fine)
        ledger.info_cost += N * (m + 1)
        if level > 0:
            coarse = euler_paths_batch(p, coarse_from_fine(v), ledger=ledger)
            vals = vals - f.eval_batch(coarse)
            ledger.info_cost += N * (m // 2 + 1)
        mean = float(np.mean(vals))
        var = float(np.var(vals, ddof=1)) if N > 1 else 0.0
        levels.append(LevelStats(level=level, m=m, count=N, mean=mean,
                                 variance=var))
        estimate += mean
    return MLMCReport(estimate=estimate, levels=tuple(levels), ledger=ledger,
                      params=params, seed=seed)


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


def work_model(params: MLMCParams, d: int = 1) -> int:
    """Order-of-cost surrogate from the analysis, by variant."""
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


@dataclass(frozen=True)
class BitcountRow:
    epsilon: float
    bits_bit: int
    bits_bbit: int
    bits_bbit_log: int
    ratio_bbit: float
    ratio_bbit_log: float


@dataclass(frozen=True)
class BitcountTable:
    rows: tuple
    band_bbit: float       # max/min of bits_bbit / (eps^-2 (log2 eps^-1)^2.5)
    band_bbit_log: float   # max/min vs eps^-2 (log2 eps^-1)^2 log2 log2 eps^-1


def bitcount_bound_check(eps_grid, d: int = 1) -> BitcountTable:
    """Exact schedule bit counts and their asymptotic-normalizer ratios.

    Normalizers use base-2 logarithms, matching the dyadic schedules.
    """
    eps_grid = list(eps_grid)
    if len(eps_grid) < 5:
        raise ValueError("need a grid of at least 5 epsilon values")
    rows = []
    for eps in eps_grid:
        if not 0.0 < eps < 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {eps}")
        bits = {v: bit_count_formula(params_for_eps(eps, v), d)
                for v in ("bit", "bbit", "bbit_log")}
        le = math.log2(1.0 / eps)
        rows.append(BitcountRow(
            epsilon=eps,
            bits_bit=bits["bit"],
            bits_bbit=bits["bbit"],
            bits_bbit_log=bits["bbit_log"],
            ratio_bbit=bits["bbit"] / (eps ** -2 * le ** 2.5),
            ratio_bbit_log=bits["bbit_log"] / (eps ** -2 * le ** 2
                                               * math.log2(le)),
        ))
    rb = [r.ratio_bbit for r in rows]
    rl = [r.ratio_bbit_log for r in rows]
    return BitcountTable(rows=tuple(rows), band_bbit=max(rb) / min(rb),
                         band_bbit_log=max(rl) / min(rl))
