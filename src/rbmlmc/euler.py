"""Euler schemes on [0,1], random-bit increments, and fine/coarse couplings.

All schemes share one batched kernel: given increments of shape (n, m, d) it
produces n piecewise-linear paths with breakpoints k/m, stored as an array of
shape (n, m+1, r). The coarse path of a coupling is driven by pairwise sums
of the SAME fine increments, so a coupled pair costs no extra randomness.
"""

import math
from functools import reduce
from operator import add

import numpy as np

from .bitsource import BitSource
from .ledger import CostLedger
# normal_quantile is unused here but stays bound: benchmark tracers patch it.
from .qnormal import normal_quantile, quantize_normal, quantized_normals
from .sde import SDEProblem


# The scan runs time chunks of T = min(m, _SCAN_STEPS) steps over balanced
# row blocks of at most _SCAN_ELEMS // T paths, which bounds its scratch
# memory (tracemalloc peak 7.3 MiB for d = r = 2, 3.1 MiB for gbm). T follows
# from m alone and paths are independent, so a path's floats do not depend
# on the batch it is run in.
_SCAN_STEPS = 1 << 10
_SCAN_ELEMS = 1 << 16


def euler_paths_batch(p: SDEProblem, increments: np.ndarray,
                      ledger: CostLedger | None = None) -> np.ndarray:
    """Batched Euler recursion; increments (n, m, d) -> values (n, m+1, r)."""
    increments = np.asarray(increments, dtype=float)
    n, m, d = increments.shape
    if d != p.d:
        raise ValueError(f"driving dimension mismatch: {d} != {p.d}")
    out = np.empty((n, m + 1, p.r), dtype=float)
    out[:, 0, :] = p.x0
    chunk = max(1, min(m, _SCAN_STEPS))
    blocks = -(-n // (_SCAN_ELEMS // chunk))
    plan = _scan_plan(p, m)
    for i in range(blocks):
        rows = slice(i * n // blocks, (i + 1) * n // blocks)
        _affine_scan(plan, increments[rows], out[rows], chunk)
    if ledger is not None:
        ledger.coeff_evals += 2 * n * m
    return out


def _scan_plan(p: SDEProblem, m: int):
    """The scan's terms that are not identically zero. Column r of a map
    [M_k | c_k] is c_k = a0/m + b0 dW_k. M_k's pattern is closed under
    products (prefix maps fill entries in), c's rows under c <- M c + c.
    Per entry (i, k): constant, noise terms (b, j), the l of its products;
    per row: its pattern columns below r, and whether c is nonzero there."""
    nz = np.eye(p.r, dtype=bool) | (p.A != 0) | (p.B != 0).any(axis=1)
    nz = np.linalg.matrix_power(nz, p.r)
    nz = np.c_[nz, nz @ ((p.a0 != 0) | (p.b0 != 0).any(axis=1))]
    const = np.c_[np.eye(p.r) + p.A / m, p.a0 / m]
    slope = np.concatenate([p.B, p.b0[:, :, None]], axis=2)
    rows = [(np.flatnonzero(z[:-1]).tolist(), z[-1]) for z in nz]
    maps = [(i, k, const[i, k],
             [(b, j) for j, b in enumerate(slope[i, :, k]) if b],
             [l for l in rows[i][0] if nz[l, k]])
            for i in range(p.r) for k in np.flatnonzero(nz[i]).tolist()]
    return maps, rows


def _fold(pairs, plus=None):
    """a0 b0 + a1 b1 + ..., added left to right, + plus if given."""
    acc = reduce(add, (a * b for a, b in pairs))
    if plus is not None:
        acc += plus
    return acc


def _recur(terms):
    """For steps j = 1, 2, ... in turn, each term (out, pairs, plus) sets
    out[j] to the _fold of a[j-1] b[j-1] over its pairs (a, b), + plus[j-1]
    if plus is not None; all are sequences over steps, read as lists."""
    terms = [(list(out), [(list(a), list(b)) for a, b in pairs],
              plus is not None and list(plus)) for out, pairs, plus in terms]
    for j in range(1, len(terms[0][0])):
        for out, pairs, plus in terms:
            a, b = pairs[0]
            acc = np.multiply(a[j - 1], b[j - 1], out=out[j])
            for a, b in pairs[1:]:
                acc += a[j - 1] * b[j - 1]
            if plus:
                acc += plus[j - 1]


def _affine_scan(plan, increments: np.ndarray, out: np.ndarray,
                 chunk: int) -> None:
    """Fill out[:, 1:] from out[:, 0] with the Euler step written as an
    affine map x_{k+1} = M_k x_k + c_k, M_k = I + A/m + sum_j B[:, j] dW_kj.
    Each time chunk of T steps is split into blocks of about sqrt(T) steps:
    prefix maps are composed inside every block at once, the block start
    states are carried, and every state is filled in, in about 2 sqrt(T)
    Python iterations. Floats are reassociated, so states agree with the
    loop x + a(x)/m + b(x) dW_k to about T * 1e-16 relative. Only the terms
    of `_scan_plan` are formed, each sum in the order of the dense sum over
    all components, so states are the dense scan's bit for bit, except that
    an exact-zero state may change sign (zero_noise from x0 = -0.0 stays
    -0.0; adding c = +0.0 gave +0.0) and that an absent term's 0 * inf = nan
    is not formed (a gbm step with dW = inf gives inf, not nan).
    """
    maps, rows = plan
    n, m, d = increments.shape
    r = len(rows)
    for k0 in range(0, m, chunk):
        t = min(chunk, m - k0)
        s = 1 << (t.bit_length() // 2)          # steps per block
        nb = -(-t // s)                          # blocks in the chunk
        # dw: (d, s, n, nb). Padding steps only follow the chunk's last
        # state, so they change nothing that is kept.
        dw = increments[:, k0:k0 + t]
        if t < nb * s:
            dw = np.concatenate([dw, np.zeros((n, nb * s - t, d))], axis=1)
        dw = dw.reshape(n, nb, s, d).transpose(3, 2, 0, 1).copy()
        # one-step maps S: (s, n, nb) planes, or s constants; in-block prefix
        # maps M: (r, r + 1, s, n, nb), summed plane by plane, as numpy is
        # slow on many tiny matrices
        S = {(i, k): _fold([(b, dw[j]) for b, j in noise], const or None)
             if noise else [const] * s for i, k, const, noise, _ in maps}
        M = np.empty((r, r + 1, s, n, nb))
        for i, k, *_ in maps:
            M[i, k, 0] = S[i, k][0]
        _recur([(M[i, k], [(S[i, l][1:], M[l, k]) for l in ls],
                 S[i, k][1:] if k == r else None)
                for i, k, _, _, ls in maps])
        # block start states xs: (r, n, nb), carried over the blocks
        xs = np.empty((r, n, nb))
        xs[:, :, 0] = out[:, k0].T
        _recur([(xs[i].T, [(M[i, k, -1].T, xs[k].T) for k in ks],
                 M[i, r, -1].T if c else None)
                for i, (ks, c) in enumerate(rows)])
        for i, (ks, c) in enumerate(rows):
            x = _fold([(M[i, k], xs[k]) for k in ks], M[i, r] if c else None)
            out[:, k0 + 1:k0 + 1 + t, i] = \
                x.transpose(1, 2, 0).reshape(n, nb * s)[:, :t]


def classical_increments(rng: "np.random.Generator", m: int, d: int,
                         n: int) -> np.ndarray:
    """Brownian increments (n, m, d) over steps 1/m: i.i.d. N(0, I_d/m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return rng.standard_normal((n, m, d)) / math.sqrt(m)


def bit_increments(src: BitSource, m: int, q: int, d: int,
                   n: int) -> np.ndarray:
    """Quantized-normal increments m^{-1/2} Y^(q); exactly n*m*d*q bits."""
    if m < 1:
        raise ValueError("m must be >= 1")
    nums = src.draw_dyadic_numerators(q, (n, m, d))
    return quantized_normals(nums, q) / math.sqrt(m)


def coarse_from_fine(increments: np.ndarray) -> np.ndarray:
    """Pairwise sums of adjacent fine increments; (..., m, d) -> (..., m/2, d).

    (0.0 + even) + odd step planes: bit for bit numpy's sum over a length-2
    axis, which starts from its identity (-0.0 + -0.0 gives +0.0).
    """
    if increments.shape[-2] % 2 != 0:
        raise ValueError("fine step count must be even")
    out = 0.0 + increments[..., 0::2, :]
    out += increments[..., 1::2, :]
    return out


def quantized_increments_from_normals(normals: np.ndarray, m: int,
                                      q: int) -> np.ndarray:
    """Common-randomness coupling: given the standard normals Y behind the
    classical increments V = m^{-1/2} Y, return m^{-1/2} Y^(q), the
    bit-scheme increments quantized to depth q from the same normals.
    """
    v = quantize_normal(normals, q)
    v /= math.sqrt(m)
    return v


# Normals per block of bit_vs_classical_sup_sq: a block's quantizer, scaling
# and sup passes work on 2 MiB arrays, about one L2 cache.
_STRONG_NORMALS = 1 << 18


def bit_vs_classical_sup_sq(p: SDEProblem, m: int, q: int, reps: int,
                            seed: int) -> float:
    """Mean squared sup-distance between the classical and bit schemes when
    both are driven by the SAME normals (V = m^-1/2 Y vs m^-1/2 Y^(q)).
    Replications run in blocks of about _STRONG_NORMALS normals Y, drawn in
    order, and the one mean is taken over all their sup distances.

    Y and V of every block live in one allocation, 4 MiB for full blocks.
    Freed at the end of a call, it lifts glibc's mmap threshold to its size
    and the heap trim threshold to twice that, so later calls mostly reuse
    the heap instead of trimming it and faulting it back in every block.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, q], dtype=np.uint64)))
    sups = np.empty(reps)
    size = min(reps, max(1, _STRONG_NORMALS // (m * p.d)))
    y_buf, v_buf = np.empty((2, size, m, p.d))
    for i in range(0, reps, size):
        y = rng.standard_normal(out=y_buf[:min(size, reps - i)])
        v = np.divide(y, math.sqrt(m), out=v_buf[:len(y)])
        sups[i:i + size] = sup_distance_batch(
            euler_paths_batch(p, v),
            euler_paths_batch(p, quantized_increments_from_normals(y, m, q)))
    return float(np.mean(sups ** 2))


# Replications per block of gbm_strong_error_vs_exact: its arrays are
# (block, _REFINE m + 1), so memory does not grow with the replication count.
_STRONG_BLOCK = 32
_REFINE = 16


def gbm_strong_error_vs_exact(p: SDEProblem, m: int, reps: int,
                              seed: int) -> float:
    """Mean squared sup-distance between the closed-form path of the GBM
    problem p (mu = A, sigma = B, x0) and its m-step Euler scheme, both
    built from one Brownian path.

    The "exact" path is the closed-form solution evaluated on a
    _REFINE-times finer grid from refined increments; the remaining
    discretization of the sup introduces a bias of order (m*_REFINE)^-1/2,
    well below the m^-1/2 Euler error. Replications are drawn in order in
    blocks of _STRONG_BLOCK, and their squared sups are summed in block
    order.
    """
    if p.r != 1 or p.d != 1 or p.a0.any() or p.b0.any():
        raise ValueError(f"{p.label} has no gbm closed form: need r = d = 1 "
                         f"and a0 = b0 = 0")
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, m], dtype=np.uint64)))
    mu, sigma, x0 = p.A[0, 0], p.B[0, 0, 0], p.x0[0]
    mf = m * _REFINE
    t = np.arange(mf + 1) / mf
    # Euler path linearly interpolated onto the fine grid.
    k_idx = np.minimum((t * m).astype(np.int64), m - 1)
    wgt = t * m - k_idx
    total = 0.0
    for start in range(0, reps, _STRONG_BLOCK):
        n = min(_STRONG_BLOCK, reps - start)
        dw = rng.standard_normal((n, mf)) / math.sqrt(mf)
        w = np.concatenate([np.zeros((n, 1)), np.cumsum(dw, axis=1)], axis=1)
        exact = x0 * np.exp((mu - 0.5 * sigma * sigma) * t + sigma * w)
        v = dw.reshape(n, m, _REFINE, 1).sum(axis=2)
        x = euler_paths_batch(p, v)[:, :, 0]
        euler_fine = (1.0 - wgt) * x[:, k_idx] + wgt * x[:, k_idx + 1]
        sups = sup_distance_batch(exact[..., None], euler_fine[..., None])
        total += float(np.sum(sups ** 2))
    return total / reps


def sup_distance_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The one sup-distance kernel: per path of a batch a (..., m+1, r), the
    max over breakpoints of the Euclidean distance to b, a batch of a's
    shape on the SAME grid or one point (r,). Piecewise-linear paths attain
    their sup distance at a breakpoint. Squares add over component planes
    in numpy's norm order, (s0 + s1) + s2 ..., and sqrt is monotone, so the
    floats are those of max_k |a_k - b_k|, bit for bit.
    """
    if b.shape != a.shape and b.shape != a.shape[-1:]:
        raise ValueError("b must have the shape of a, or (r,)")
    sq = reduce(add, ((a[..., i] - b[..., i]) ** 2
                      for i in range(a.shape[-1])))
    return np.sqrt(np.max(sq, axis=-1))
