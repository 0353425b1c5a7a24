"""Standard normal quantile and the dyadic quantization of normals.

The quantized normal at depth q is obtained by pushing a standard normal
through the CDF, rounding to the midpoint of its dyadic cell of width 2^-q,
and pulling back through the quantile function. Its distribution is uniform
over the 2^q atoms quantile((k + 1/2) / 2^q), k = 0..2^q-1, so q fair bits
suffice to sample it.

The CDF and quantile are scipy's ndtr and ndtri: atoms are within a few ulps
and odd bit for bit. For q <= 20 they are read from one cached, read-only
table per depth, grid_atoms(q); deeper ones come from the quantile itself.
scipy.special is imported inside the two functions that call it, so only
the commands that map normals pay for loading it.
"""

import functools

import numpy as np

from .errors import FeasibilityError


def normal_quantile(u):
    """Inverse of the standard normal CDF (scipy's ndtr) on (0,1); raises
    for non-interior arguments."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal_quantile requires 0 < u < 1")
    from scipy.special import ndtri  # lazy: loading it takes ~0.25 s
    return ndtri(arr)


def _round_numerators(x: np.ndarray, q: int) -> np.ndarray:
    """Vectorized cell index of x in [0,1]; x == 1.0 is clamped to the top cell."""
    # 2^q is a power of two, so the scaling is exact and floor is safe on
    # cell boundaries (a boundary value goes to the upper cell).
    k = np.floor(x * (1 << q)).astype(np.int64)
    return np.minimum(k, (1 << q) - 1)


def quantize_normal(y, q: int):
    """Quantized normal: quantile(round(cdf(y))) on the 2^q-atom grid."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    from scipy.special import ndtr  # lazy, as ndtri in normal_quantile
    return quantized_normals(
        _round_numerators(ndtr(np.asarray(y, dtype=float)), q), q)


_MAX_GRID_Q = 20
# Midpoints (k+1/2)/2^q are exact in binary64 up to q = 52; deeper grids
# mean nothing.
MAX_DEPTH = 52


def quantized_normals(nums, q: int) -> np.ndarray:
    """Atoms quantile((k + 1/2) / 2^q) at numerators k: for q <= 20 a lookup
    into the cached grid_atoms(q) table (the same floats), else the formula."""
    if q <= _MAX_GRID_Q:
        return grid_atoms(q)[nums]
    return normal_quantile((nums + 0.5) / 2.0 ** q)


@functools.cache
def grid_atoms(q: int) -> np.ndarray:
    """The 2^q equiprobable atoms of the quantized normal, ascending: one
    read-only table per q, built on first use."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > _MAX_GRID_Q:
        raise FeasibilityError(f"grid enumeration infeasible for q={q} > {_MAX_GRID_Q}")
    u = (np.arange(1 << q, dtype=np.float64) + 0.5) / (1 << q)
    atoms = normal_quantile(u)
    atoms.flags.writeable = False
    return atoms
