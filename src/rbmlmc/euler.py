"""Euler schemes on [0,1], random-bit increments, and fine/coarse couplings.

All schemes share one batched kernel: given increments of shape (n, m, d) it
produces n piecewise-linear paths with breakpoints k/m, returned as an
(n, m+1, r) view of time-major (m+1, r, n) storage, the path index fastest,
as the scan computes them. The coarse path of a coupling is driven by
pairwise sums of the SAME fine increments, so a coupled pair costs no extra
randomness.
"""

import math
from functools import reduce
from operator import add

import numpy as np

from .bitsource import TOP_STREAM, BitSource, generator
from .errors import FeasibilityError, check_indexable
from .ledger import CostLedger
from .qnormal import (MAX_DEPTH, normal_quantile, quantize_normal,
                      quantized_increments)
from .sde import SDEProblem


# The scan runs time chunks of T = min(m, _SCAN_STEPS) steps over balanced
# row blocks of at most _SCAN_ELEMS // T paths, which bounds its scratch
# memory at any m (tracemalloc peak 3.2 MiB for linear2d, 1.6 MiB for
# gbm). T follows from m alone and paths are independent, so a path's floats
# do not depend on the batch it is run in.
_SCAN_STEPS = 1 << 10
_SCAN_ELEMS = 1 << 16


def euler_paths_batch(p: SDEProblem, increments: np.ndarray,
                      ledger: CostLedger | None = None) -> np.ndarray:
    """Batched Euler recursion; increments (n, m, d), in either layout ->
    values (n, m+1, r), the view of time-major (m+1, r, n) states."""
    increments = np.asarray(increments, dtype=float)
    n, m, d = increments.shape
    if d != p.d:
        raise ValueError(f"driving dimension mismatch: {d} != {p.d}")
    chunk = max(1, min(m, _SCAN_STEPS))
    # the last chunk's last block may end up to s - 1 steps past m (never
    # for a power-of-two m): those states go to rows past m + 1
    t = (m - 1) % chunk + 1
    s, nb = _blocking(t)
    states = np.empty((m + 1 + nb * s - t, p.r, n), dtype=float)
    states[0] = p.x0[:, None]
    blocks = -(-n // (_SCAN_ELEMS // chunk))
    plan = _scan_plan(p, m)
    for i in range(blocks):
        rows = slice(i * n // blocks, (i + 1) * n // blocks)
        _affine_scan(plan, increments[rows], states[:, :, rows], chunk)
    if ledger is not None:
        ledger.coeff_evals += 2 * n * m
    return states[:m + 1].transpose(2, 0, 1)


def _blocking(t: int) -> tuple[int, int]:
    """A time chunk of t steps as nb blocks of s steps, s about sqrt(t)."""
    s = 1 << (t.bit_length() // 2)
    return s, -(-t // s)


def _scan_plan(p: SDEProblem, m: int):
    """The scan's terms that are not identically zero, per strongly
    connected component of the one-step pattern, after the ones it reads.
    Per component: its rows; per entry (i, k) of [M_k | c_k]: constant,
    noise terms (b, j), the l of its products (M_k's pattern is closed under
    them), for k = r the (l, constant, noise terms) of the earlier rows read;
    per row: its columns below r, and whether c (closed under c <- M c + c)
    is nonzero there. c_k = a0/m + b0 dW_k comes after the earlier terms."""
    step = np.eye(p.r, dtype=bool) | (p.A != 0) | (p.B != 0).any(axis=1)
    reach = np.linalg.matrix_power(step, p.r)
    own = (p.a0 != 0) | (p.b0 != 0).any(axis=1)
    const = np.c_[np.eye(p.r) + p.A / m, p.a0 / m]
    slope = np.concatenate([p.B, p.b0[:, :, None]], axis=2)

    def terms(i, k):
        return const[i, k], [(b, j) for j, b in enumerate(slope[i, :, k]) if b]

    plan = []
    for comp in sorted({tuple(np.flatnonzero(z).tolist())
                        for z in reach & reach.T},
                       key=lambda c: (reach[c[0]].sum(), c)):
        cross = [[(l, *terms(i, l)) for l in np.flatnonzero(step[i]).tolist()
                  if l not in comp] for i in comp]
        nz = reach[np.ix_(comp, comp)]
        nz = np.c_[nz, nz @ [own[i] or x != [] for i, x in zip(comp, cross)]]
        rows = [(np.flatnonzero(z[:-1]).tolist(), z[-1]) for z in nz]
        cols, r = comp + (p.r,), len(comp)
        plan.append((list(comp), [
            (i, k, *terms(comp[i], cols[k]),
             [l for l in rows[i][0] if nz[l, k]], cross[i] if k == r else [])
            for i in range(r) for k in np.flatnonzero(nz[i]).tolist()], rows))
    return plan


def _fold(pairs, plus=None, out=None):
    """a0 b0 + a1 b1 + ..., added left to right, + plus if given; written
    into out if given."""
    (a, b), *rest = pairs
    acc = np.multiply(a, b, out=out)
    for a, b in rest:
        acc += a * b
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


def _affine_scan(plan, increments: np.ndarray, states: np.ndarray,
                 chunk: int) -> None:
    """Fill states[1:] (time-major, (steps, r, n)) from states[0] with the
    Euler step written as an affine map x_{k+1} = M_k x_k + c_k,
    M_k = I + A/m + sum_j B[:, j] dW_kj, for increments (n, m, d).
    Each time chunk of T steps is split into blocks of about sqrt(T) steps
    and runs the plan's components in order, each reading earlier rows,
    already filled, as terms of its c: prefix maps are composed inside
    every block at once, the block start states are carried, and every
    state is filled in, in about 2 sqrt(T) Python iterations. Floats are
    reassociated, so states agree with the loop x + a(x)/m + b(x) dW_k to
    about T * 1e-16 relative. Only the terms of `_scan_plan` are formed,
    each sum in the order of the dense sum over the component's rows, so
    states are the dense scan's run per component bit for bit, except that
    an exact-zero state may change sign (a zero problem from x0 = -0.0
    stays -0.0; adding c = +0.0 gave +0.0) and that an absent term's
    0 * inf = nan is not formed (a gbm step with dW = inf gives inf, not
    nan). The last chunk's padding steps need states rows up to its last
    block's end.
    """
    n, m, d = increments.shape

    def planes(k, i, s, nb):
        # state row i from step k on as (s, nb, n): first two axes swapped
        return states[k:k + nb * s, i].reshape(nb, s, n).transpose(1, 0, 2)

    for k0 in range(0, m, chunk):
        t = min(chunk, m - k0)
        s, nb = _blocking(t)
        # every plane is (s, nb, n), step in block, block, path, as the
        # states are stored. dw: (d, s, nb, n). Padding steps only follow
        # the chunk's last state, so they change nothing that is kept.
        dw = increments[:, k0:k0 + t]
        if t < nb * s:
            dw = np.concatenate([dw, np.zeros((n, nb * s - t, d))], axis=1)
        dw = dw.reshape(n, nb, s, d).transpose(3, 2, 1, 0).copy()
        for idx, maps, rows in plan:
            r = len(rows)
            # one-step maps S: planes, or s constants; in-block prefix maps
            # M: (r, r + 1, s, nb, n), summed plane by plane, as numpy is
            # slow on many tiny matrices; column r only if some row has a c
            S = {}
            for i, k, const, noise, _, cross in maps:
                pairs = [(_fold([(b, dw[j]) for b, j in bs], a or None)
                          if bs else a, planes(k0, l, s, nb))
                         for l, a, bs in cross]
                pairs += [(b, dw[j]) for b, j in noise]
                S[i, k] = _fold(pairs, const or None) if pairs else [const] * s
            M = np.empty((r, r + any(c for _, c in rows), s, nb, n))
            for i, k, *_ in maps:
                M[i, k, 0] = S[i, k][0]
            _recur([(M[i, k], [(S[i, l][1:], M[l, k]) for l in ls],
                     S[i, k][1:] if k == r else None)
                    for i, k, _, _, ls, _ in maps])
            # block start states xs: (r, nb, n), carried over the blocks
            xs = np.empty((r, nb, n))
            xs[:, 0] = states[k0, idx]
            _recur([(xs[i], [(M[i, k, -1], xs[k]) for k in ks],
                     M[i, r, -1] if c else None)
                    for i, (ks, c) in enumerate(rows)])
            # each state straight into its row
            for i, (ks, c) in enumerate(rows):
                _fold([(M[i, k], xs[k]) for k in ks], M[i, r] if c else None,
                      out=planes(k0 + 1, idx[i], s, nb))
            # the next scratch is built after this one's is freed
            del S, M, xs
        del dw


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
    return quantized_increments(nums, q, m)


def coarse_from_fine(increments: np.ndarray) -> np.ndarray:
    """Pairwise sums of adjacent fine increments; (..., m, d) -> (..., m/2, d).

    (0.0 + even) + odd steps, one component plane at a time (long strided
    loops instead of runs of d) into an output laid out as the increments
    are: bit for bit numpy's sum over a length-2 axis, which starts from
    its identity (-0.0 + -0.0 gives +0.0).
    """
    if increments.shape[-2] % 2 != 0:
        raise ValueError("fine step count must be even")
    out = np.empty_like(increments[..., 0::2, :],
                        np.result_type(increments, 0.0))
    for j in range(increments.shape[-1]):
        plane = np.add(0.0, increments[..., 0::2, j], out=out[..., j])
        plane += increments[..., 1::2, j]
    return out


def quantized_increments_from_normals(normals: np.ndarray, m: int, q: int,
                                      cells) -> np.ndarray:
    """Common-randomness coupling: given the standard normals Y behind the
    classical increments V = m^{-1/2} Y, return m^{-1/2} Y^(q), the
    bit-scheme increments quantized to depth q from the same normals.
    cells=(k, depth) are Y's cells at some depth >= q, as quantize_normal
    takes them.
    """
    v = quantize_normal(normals, q, cells=cells)
    v /= math.sqrt(m)
    return v


# Normals per block of bit_vs_classical_sup_sq: a block's quantizer, scaling
# and sup passes work on 2 MiB arrays, about one L2 cache.
_STRONG_NORMALS = 1 << 18


def bit_vs_classical_sup_sq(p: SDEProblem, m: int, qs, reps: int,
                            seed: int) -> list[float]:
    """Mean squared sup-distance between the classical and bit schemes when
    both are driven by the SAME bits, one mean per depth q of the sequence
    qs.

    Each normal is one MAX_DEPTH-bit numerator k of the bit stream
    TOP_STREAM. The classical side is driven by the depth-MAX_DEPTH
    quantized normal Y = quantile((k + 1/2) / 2^MAX_DEPTH), the finest grid
    binary64 holds, and depth q by the atom at k >> (MAX_DEPTH - q), the
    top q bits of k. Replications run in blocks of about _STRONG_NORMALS
    normals, drawn in order; each block runs the classical path once and
    the bit path once per q. One mean per q is taken over all its sup
    distances, so each mean is independent of the block size and of the
    other depths in qs and their order.
    """
    # sups and a block's paths must fit numpy's index, refused by reps or m
    size = min(reps, max(1, _STRONG_NORMALS // (m * p.d)))
    check_indexable(len(qs) * reps * 8, f"quantization sweep reps = {reps}")
    check_indexable(size * (m + 1) * max(p.d, p.r) * 8,
                    f"quantization sweep m = {m}")
    src = BitSource(seed, TOP_STREAM)
    sups = np.empty((len(qs), reps))
    for i in range(0, reps, size):
        k = src.draw_dyadic_numerators(MAX_DEPTH,
                                       (min(size, reps - i), m, p.d))
        y = normal_quantile((k + 0.5) / 2.0 ** MAX_DEPTH)
        classical = euler_paths_batch(p, y / math.sqrt(m))
        for row, q in zip(sups, qs):
            # unnamed, a depth's arrays are freed before the next quantizes
            row[i:i + size] = sup_distance_batch(classical, euler_paths_batch(
                p, quantized_increments_from_normals(
                    y, m, q, cells=(k, MAX_DEPTH))))
    return [float(np.mean(row ** 2)) for row in sups]


# Replications per block of gbm_strong_error_vs_exact: at most _STRONG_BLOCK
# paths and _REFINED_NORMALS refined normals, so that its (block, _REFINE m
# + 1) arrays grow neither with the replication count nor with m.
_STRONG_BLOCK = 32
_REFINED_NORMALS = 1 << 19
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
    blocks, and one mean is taken over all their sup distances, so the row
    does not depend on the block size.
    """
    if p.r != 1 or p.d != 1 or p.a0.any() or p.b0.any():
        raise ValueError(f"{p.label} has no gbm closed form: need r = d = 1 "
                         f"and a0 = b0 = 0")
    mu, sigma, x0 = p.A[0, 0], p.B[0, 0, 0], p.x0[0]
    mf = m * _REFINE
    # the grid t, the largest array once blocks hold one path, and the reps
    # sup distances must fit numpy's index: refused before the grid and the
    # stream, so no stream id TOP_STREAM - m of such an m (m >= 2^56) is formed
    check_indexable((mf + 1) * 8, f"discretization row m = {m}")
    check_indexable(reps * 8, f"discretization row m = {m}, reps = {reps}")
    # below that a row may still not fit this machine: say which row
    try:
        t = np.arange(mf + 1) / mf
        rng = generator(seed, TOP_STREAM - m)
        # Euler path linearly interpolated onto the fine grid.
        k_idx = np.minimum((t * m).astype(np.int64), m - 1)
        wgt = t * m - k_idx
        sups = np.empty(reps)
        size = min(_STRONG_BLOCK, max(1, _REFINED_NORMALS // mf))
        for i in range(0, reps, size):
            n = min(size, reps - i)
            dw = rng.standard_normal((n, mf)) / math.sqrt(mf)
            w = np.concatenate([np.zeros((n, 1)), np.cumsum(dw, axis=1)],
                               axis=1)
            exact = x0 * np.exp((mu - 0.5 * sigma * sigma) * t + sigma * w)
            v = dw.reshape(n, m, _REFINE, 1).sum(axis=2)
            x = euler_paths_batch(p, v)[:, :, 0]
            euler_fine = (1.0 - wgt) * x[:, k_idx] + wgt * x[:, k_idx + 1]
            sups[i:i + n] = sup_distance_batch(exact[..., None],
                                               euler_fine[..., None])
    except MemoryError as exc:
        raise FeasibilityError(f"discretization row m = {m}: out of memory: "
                               f"{exc}") from exc
    return float(np.mean(sups ** 2))


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
