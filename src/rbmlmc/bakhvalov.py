"""Pairwise-independent dyadic uniforms from few independent generators.

Both families are one slot sum, exact on numerators mod 2^q. S slots each
hold r independent generators; output i picks in slot j the generator at
base-r digit j of i (digit 0 least significant) and has numerator
(sum of the picks + S - 1) mod 2^q. For midpoints G = (g + 1/2) 2^-q that is
sum_j G_j + (S - 1) 2^-(q+1) mod 1, again a midpoint: no float arithmetic.

* quadratic trick: 2n generators in two rows, S = 2 slots of r = n
  (constant +1), row 1 the minor digit: out[(j1-1)n + j2] = G[j1] +
  G[n + j2] + 2^-(q+1) mod 1, n^2 outputs;
* logarithmic variant: 2n generators G[i][j], S = n slots of r = 2
  (constant n - 1), 2^n outputs; bit j of the index picks row i of slot j.

Each slot is the next more significant digit and takes only the digit
values the requested count reaches, so a level builds only the outputs it
uses. Two distinct indices differ in some slot, whose two generators are
independent of each other and of every other pick, so each output pair is
jointly uniform; small n*q are checked exactly by enumerating all
generator realizations.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bitsource import ENUMERATION_BIT_CAP, enumerate_numerators
from .errors import FeasibilityError


def _slot_sums(slots: np.ndarray, q: int, count: int | None) -> np.ndarray:
    """Slot sums of generators (S, ..., r, d) -> (..., count, d); count None
    means all r^S outputs."""
    n_slots, radix = slots.shape[0], slots.shape[-2]
    if count is not None and not 1 <= count <= radix ** n_slots:
        raise ValueError(f"count must lie in [1, {radix ** n_slots}], "
                         f"got {count}")
    out = np.full(slots.shape[1:-2] + (1, slots.shape[-1]), n_slots - 1,
                  dtype=np.int64)
    for s in slots:  # next more significant digit, up to the count
        k = radix if count is None else min(radix, -(-count // out.shape[-2]))
        out = s[..., :k, None, :] + out[..., None, :, :]
        out = out.reshape(out.shape[:-3] + (-1, out.shape[-1]))
    return out[..., :count, :] & ((1 << q) - 1)


def quadratic_outputs(g: np.ndarray, q: int,
                      count: int | None = None) -> np.ndarray:
    """Combine generator numerators (..., 2, n, d) -> (..., n^2, d), row 0
    the left factor; index (j1-1)*n + j2 runs over j1 major, j2 minor;
    count keeps the first count outputs."""
    return _slot_sums(np.moveaxis(g, -3, 0)[::-1], q, count)


def logarithmic_outputs(g: np.ndarray, q: int,
                        count: int | None = None) -> np.ndarray:
    """Combine generator numerators (..., 2, n, d) -> (..., 2^n, d); output
    index i selects generator row bit_j(i) in slot j (bit 0 = slot 0);
    count keeps the first count outputs."""
    return _slot_sums(np.moveaxis(g, -2, 0), q, count)


def _all_outputs(n: int, q: int, variant: str) -> np.ndarray:
    """Outputs (R, count) over every generator realization, d = 1.

    Realization r draws its generator rows 0 (the quadratic left factor)
    and 1 from the bit string r, in the order a BitSource draws them.
    """
    if variant not in ("quadratic", "logarithmic"):
        raise ValueError(f"unknown variant {variant!r}")
    g = enumerate_numerators(2 * n, q).reshape(-1, 2, n, 1)
    if variant == "quadratic":
        return quadratic_outputs(g, q)[:, :, 0]
    return logarithmic_outputs(g, q)[:, :, 0]


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
    """Exhaustively verify uniform marginals and pairwise-joint uniformity.

    Every output and every output pair costs one bincount over all 2^(2nq)
    realizations, so a check whose realizations x (outputs + pairs) exceed
    2^ENUMERATION_BIT_CAP raises FeasibilityError before any work.
    """
    bits = 2 * n * q
    if bits <= ENUMERATION_BIT_CAP:  # wider enumerations are refused anyway
        count = n * n if variant == "quadratic" else 1 << n
        work = (count * (count + 1) // 2) << bits
        if work > 1 << ENUMERATION_BIT_CAP:
            raise FeasibilityError(
                f"{variant} n={n} q={q}: 2^{bits} realizations x {count} "
                f"outputs and their pairs exceed 2^{ENUMERATION_BIT_CAP}")
    outs = _all_outputs(n, q, variant)
    big_r, count = outs.shape
    failures = [("marginal",) + t for t in _nonuniform_tuples(outs, q, 1)]
    failures += [("pair",) + t for t in _nonuniform_tuples(outs, q, 2)]
    return PairwiseCheckReport(variant=variant, n=n, q=q, count=count,
                               realizations=big_r, passed=not failures,
                               failures=tuple(failures))


def joint_is_uniform(n: int, q: int, variant: str, indices) -> bool:
    """Exact check whether the outputs at the given indices are jointly
    uniform on the midpoint grid to the power len(indices)."""
    return _jointly_uniform(_all_outputs(n, q, variant), q, indices)


def _jointly_uniform(outs: np.ndarray, q: int, indices) -> bool:
    big_r = outs.shape[0]
    atoms = 1 << q
    cells = atoms ** len(indices)
    if big_r % cells != 0:
        return False
    idx = np.zeros(big_r, dtype=np.int64)
    for i in indices:
        idx = idx * atoms + outs[:, i]
    return bool(np.all(np.bincount(idx, minlength=cells) == big_r // cells))


def _nonuniform_tuples(outs: np.ndarray, q: int, size: int):
    """Index tuples of a size, in order, whose exact joint is not uniform."""
    return (t for t in combinations(range(outs.shape[1]), size)
            if not _jointly_uniform(outs, q, t))


def find_nonuniform_tuple(n: int, q: int, variant: str,
                          size: int) -> tuple | None:
    """First index tuple of the given size whose exact joint is not uniform."""
    return next(_nonuniform_tuples(_all_outputs(n, q, variant), q, size), None)


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
