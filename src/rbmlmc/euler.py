"""Euler schemes on [0,1], random-bit increments, and fine/coarse couplings.

All schemes share one batched kernel: given increments of shape (n, m, d) it
produces n piecewise-linear paths with breakpoints k/m, stored as an array of
shape (n, m+1, r). The coarse path of a coupling is driven by pairwise sums
of the SAME fine increments, so a coupled pair costs no extra randomness.
"""

import math

import numpy as np

from .bitsource import BitSource
from .ledger import CostLedger
# normal_quantile is unused here but stays bound: benchmark tracers patch it.
from .qnormal import normal_quantile, quantize_normal, quantized_normals
from .sde import SDEProblem


def euler_paths_batch(p: SDEProblem, increments: np.ndarray,
                      ledger: CostLedger | None = None) -> np.ndarray:
    """Batched Euler recursion; increments (n, m, d) -> values (n, m+1, r)."""
    increments = np.asarray(increments, dtype=float)
    n, m, d = increments.shape
    if d != p.d:
        raise ValueError(f"driving dimension mismatch: {d} != {p.d}")
    out = np.empty((n, m + 1, p.r), dtype=float)
    x = np.broadcast_to(p.x0, (n, p.r)).copy()
    out[:, 0, :] = x
    for k in range(m):
        a = p.drift(x)
        b = p.diffusion(x)
        x = x + a / m + np.einsum("nrd,nd->nr", b, increments[:, k, :])
        out[:, k + 1, :] = x
    if ledger is not None:
        ledger.coeff_evals += 2 * n * m
    return out


def classical_increments(rng: np.random.Generator, m: int, d: int,
                         n: int | None = None,
                         ledger: CostLedger | None = None) -> np.ndarray:
    """Brownian increments over steps of width 1/m: i.i.d. N(0, I_d/m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    shape = (m, d) if n is None else (n, m, d)
    if ledger is not None:
        ledger.coin_count += int(np.prod(shape, dtype=np.int64))
    return rng.standard_normal(shape) / math.sqrt(m)


def bit_increments(src: BitSource, m: int, q: int, d: int,
                   n: int | None = None,
                   ledger: CostLedger | None = None) -> np.ndarray:
    """Quantized-normal increments m^{-1/2} Y^(q); exactly (n*)d*m*q bits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    shape = (m, d) if n is None else (n, m, d)
    before = src.bits_consumed
    nums = src.draw_dyadic_numerators(q, shape)
    if ledger is not None:
        ledger.bit_count += src.bits_consumed - before
    return quantized_normals(nums, q) / math.sqrt(m)


def coarse_from_fine(increments: np.ndarray) -> np.ndarray:
    """Pairwise sums of adjacent fine increments; (..., m, d) -> (..., m/2, d)."""
    m = increments.shape[-2]
    if m % 2 != 0:
        raise ValueError("fine step count must be even")
    shape = increments.shape[:-2] + (m // 2, 2, increments.shape[-1])
    return increments.reshape(shape).sum(axis=-2)


def quantized_increments_from_normals(normals: np.ndarray, m: int,
                                      q: int) -> np.ndarray:
    """Common-randomness coupling: quantize scaled normals m^{1/2} V to depth q.

    Given classical increments V = m^{-1/2} Y this returns m^{-1/2} Y^(q),
    i.e. the bit-scheme increments driven by the same underlying normals.
    """
    y = np.asarray(normals, dtype=float) * math.sqrt(m)
    return quantize_normal(y, q) / math.sqrt(m)


def bit_vs_classical_sup_sq(p: SDEProblem, m: int, q: int, reps: int,
                            seed: int) -> float:
    """Mean squared sup-distance between the classical and bit schemes when
    both are driven by the SAME normals (V = m^-1/2 Y vs m^-1/2 Y^(q))."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, q], dtype=np.uint64)))
    y = rng.standard_normal((reps, m, p.d))
    v_c = y / math.sqrt(m)
    v_bit = quantized_increments_from_normals(v_c, m, q)
    a = euler_paths_batch(p, v_c)
    b = euler_paths_batch(p, v_bit)
    return float(np.mean(sup_distance_batch(a, b) ** 2))


def gbm_strong_error_vs_exact(mu: float, sigma: float, x0: float, m: int,
                              reps: int, seed: int,
                              refine: int = 16) -> float:
    """Mean squared sup-distance between the closed-form GBM path and its
    m-step Euler scheme, both built from one Brownian path.

    The "exact" path is the closed-form solution evaluated on a refine-times
    finer grid from refined increments; the remaining discretization of the
    sup introduces a bias of order (m*refine)^-1/2, well below the m^-1/2
    Euler error for the refine used here.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, m], dtype=np.uint64)))
    mf = m * refine
    dw = rng.standard_normal((reps, mf)) / math.sqrt(mf)
    w = np.concatenate([np.zeros((reps, 1)), np.cumsum(dw, axis=1)], axis=1)
    t = np.arange(mf + 1) / mf
    exact = x0 * np.exp((mu - 0.5 * sigma * sigma) * t + sigma * w)
    v = dw.reshape(reps, m, refine).sum(axis=2)
    x = np.empty((reps, m + 1))
    x[:, 0] = x0
    for k in range(m):
        x[:, k + 1] = x[:, k] * (1.0 + mu / m + sigma * v[:, k])
    # Euler path linearly interpolated onto the fine grid.
    k_idx = np.minimum((t * m).astype(np.int64), m - 1)
    wgt = t * m - k_idx
    euler_fine = (1.0 - wgt) * x[:, k_idx] + wgt * x[:, k_idx + 1]
    return float(np.mean(np.max(np.abs(exact - euler_fine), axis=1) ** 2))


def sup_distance_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-path sup distance for two batches on the SAME breakpoint grid.

    Both paths of a pair are piecewise linear on that grid, so their
    distance over [0,1] attains its maximum at a breakpoint.
    """
    if a.shape != b.shape:
        raise ValueError("batches must share shape (n, m+1, r)")
    return np.max(np.linalg.norm(a - b, axis=-1), axis=-1)
