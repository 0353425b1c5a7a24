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

The sums run in the narrowest unsigned type that holds q bits: uint8 for
q <= 8, uint16, uint32, and uint64 above 32. Its modulus is a multiple of
2^q, so sums that wrap around are still exact mod 2^q; the mask is applied
only when q is below the type's width, and the outputs are returned as
int64. Depths outside 1..63, the range of the bit draw, raise ValueError.
"""

from collections import namedtuple
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
    if not 1 <= q <= 63:
        raise ValueError(f"depth q = {q} is outside 1..63")
    mask = (1 << q) - 1
    dtype = np.min_scalar_type(mask)  # 2^q divides its modulus
    slots = slots.astype(dtype)
    out = np.full(slots.shape[1:-2] + (1, slots.shape[-1]),
                  (n_slots - 1) & mask, dtype=dtype)
    for s in slots:  # next more significant digit, up to the count
        k = radix if count is None else min(radix, -(-count // out.shape[-2]))
        out = s[..., :k, None, :] + out[..., None, :, :]
        out = out.reshape(out.shape[:-3] + (-1, out.shape[-1]))
    out = out[..., :count, :]
    if q < 8 * dtype.itemsize:
        out &= mask
    return out.astype(np.int64)


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


# a family's combine and the (n, q) checks bakhvalov-check runs by default
Family = namedtuple("Family", "combine checks")
FAMILIES = {"quadratic": Family(quadratic_outputs, ((2, 1), (2, 2), (3, 1))),
            "logarithmic": Family(logarithmic_outputs, ((2, 1), (3, 1)))}


def _family(variant: str):
    if variant not in FAMILIES:
        raise ValueError(f"unknown variant {variant!r}")
    return FAMILIES[variant].combine


def _all_outputs(n: int, q: int, variant: str) -> np.ndarray:
    """Outputs (R, count) over every generator realization, d = 1.

    Realization r draws its generator rows 0 (the quadratic left factor)
    and 1 from the bit string r, in the order a BitSource draws them.
    """
    combine = _family(variant)
    g = enumerate_numerators(2 * n, q).reshape(-1, 2, n, 1)
    return combine(g, q)[:, :, 0]


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
        count = len(_family(variant)(np.zeros((2, n, 1), np.int64), q))
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
    """First index tuple of the given size whose exact joint is not uniform.

    Returns None if every tuple of that size is jointly uniform. Whether a
    dependent triple exists is a property of the family:
    * quadratic: none. A character-sum argument needs every generator to
      appear with exponents summing to zero, which three distinct cells of
      the (j1, j2) grid cannot achieve; the first dependent set is the
      4-tuple (0, 1, 2, 3).
    * logarithmic: none. Some slot j splits three distinct indices 1|2,
      leaving one of its two generators alone.
    """
    return next(_nonuniform_tuples(_all_outputs(n, q, variant), q, size), None)
