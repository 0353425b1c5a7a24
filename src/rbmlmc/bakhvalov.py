"""Pairwise-independent dyadic uniforms from few independent generators.

Two constructions, both exact on numerators mod 2^q (the shifted sum of two
cell midpoints is again a midpoint, so no float arithmetic is involved):

* quadratic trick: 2n independent generators yield n^2 outputs
  out[(j1-1)n + j2] = G[j1] + G[n + j2] + 2^-(q+1) mod 1, i.e. numerator
  (g[j1] + g[n+j2] + 1) mod 2^q;
* logarithmic variant: 2n generators G[i][j] (i in {1,2}, j = 1..n) yield
  2^n outputs indexed by (i_1..i_n), numerator (sum_j g[i_j][j] + n-1) mod 2^q.

Each output is uniform on the midpoint grid and the family is pairwise
independent, which is checkable exactly by enumerating all generator
realizations for small n*q.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bitsource import enumerate_numerators


def quadratic_outputs(g_left: np.ndarray, g_right: np.ndarray,
                      q: int) -> np.ndarray:
    """Combine generator numerators (..., n, d) x (..., n, d) -> (..., n^2, d),
    index (j1-1)*n + j2 running over j1 major, j2 minor."""
    n = g_left.shape[-2]
    out = (g_left[..., :, None, :] + g_right[..., None, :, :] + 1) % (1 << q)
    return out.reshape(out.shape[:-3] + (n * n, -1))


def logarithmic_outputs(g: np.ndarray, q: int) -> np.ndarray:
    """Combine generator numerators (..., 2, n, d) -> (..., 2^n, d); output
    index i selects generator row bit_j(i) in slot j (bit 0 = slot 0)."""
    n = g.shape[-2]
    idx = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(g.shape[:-3] + (1 << n, g.shape[-1]), dtype=np.int64)
    for j in range(n):  # slot by slot: no (..., 2^n, n, d) temporary
        out += g[..., (idx >> j) & 1, j, :]
    return (out + n - 1) % (1 << q)


def _all_outputs(n: int, q: int, variant: str) -> np.ndarray:
    """Outputs (R, count) over every generator realization, d = 1.

    Realization r draws its 2n generators from the bit string r, in the
    order a BitSource draws them: the first n (the quadratic left factor,
    the logarithmic row 0), then the next n.
    """
    if variant not in ("quadratic", "logarithmic"):
        raise ValueError(f"unknown variant {variant!r}")
    g = enumerate_numerators(2 * n, q)[:, :, None]
    if variant == "quadratic":
        return quadratic_outputs(g[:, :n], g[:, n:], q)[:, :, 0]
    return logarithmic_outputs(g.reshape(-1, 2, n, 1), q)[:, :, 0]


@dataclass(frozen=True)
class PairwiseCheckReport:
    variant: str
    n: int
    q: int
    count: int
    realizations: int
    passed: bool
    failures: tuple

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.variant} n={self.n} q={self.q}: {self.count} outputs, "
                f"{self.realizations} realizations enumerated -> {status}"
                + (f" failures={self.failures}" if self.failures else ""))


def exact_pairwise_check(n: int, q: int, variant: str) -> PairwiseCheckReport:
    """Exhaustively verify uniform marginals and pairwise-joint uniformity."""
    outs = _all_outputs(n, q, variant)
    big_r, count = outs.shape
    atoms = 1 << q
    failures = []
    expect_marginal = big_r // atoms
    for i in range(count):
        c = np.bincount(outs[:, i], minlength=atoms)
        if not np.all(c == expect_marginal):
            failures.append(("marginal", i))
    expect_joint = big_r // (atoms * atoms)
    for i, j in combinations(range(count), 2):
        c = np.bincount(outs[:, i] * atoms + outs[:, j],
                        minlength=atoms * atoms)
        if not np.all(c == expect_joint):
            failures.append(("pair", i, j))
    return PairwiseCheckReport(variant=variant, n=n, q=q, count=count,
                               realizations=big_r, passed=not failures,
                               failures=tuple(failures))


def joint_is_uniform(n: int, q: int, variant: str, indices) -> bool:
    """Exact check whether the outputs at the given indices are jointly
    uniform on the midpoint grid to the power len(indices)."""
    outs = _all_outputs(n, q, variant)
    big_r = outs.shape[0]
    atoms = 1 << q
    cells = atoms ** len(indices)
    if big_r % cells != 0:
        return False
    idx = np.zeros(big_r, dtype=np.int64)
    for i in indices:
        idx = idx * atoms + outs[:, i]
    return bool(np.all(np.bincount(idx, minlength=cells) == big_r // cells))


def find_nonuniform_tuple(n: int, q: int, variant: str,
                          size: int) -> tuple | None:
    """First index tuple of the given size whose exact joint is not uniform."""
    count = n * n if variant == "quadratic" else 1 << n
    for t in combinations(range(count), size):
        if not joint_is_uniform(n, q, variant, t):
            return t
    return None


def find_nonuniform_triple(n: int, q: int,
                           variant: str = "quadratic") -> tuple | None:
    """First triple of output indices whose exact joint is not uniform.

    Returns None if every triple is jointly uniform. For the quadratic
    construction that is in fact always the case: a character-sum argument
    needs every generator to appear with exponents summing to zero, which
    three distinct cells of the (j1, j2) grid cannot achieve, so the first
    dependent sets are 4-tuples (see find_nonuniform_tuple with size 4).
    The same holds for the logarithmic construction: some slot j splits
    three distinct indices 1|2, leaving one of its two generators alone.
    """
    return find_nonuniform_tuple(n, q, variant, 3)
