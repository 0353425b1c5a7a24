"""Standard normal quantile and the dyadic quantization of normals.

The quantized normal at depth q is obtained by pushing a standard normal
through the CDF, rounding to the midpoint of its dyadic cell of width 2^-q,
and pulling back through the quantile function. Its distribution is uniform
over the 2^q atoms quantile((k + 1/2) / 2^q), k = 0..2^q-1, so q fair bits
suffice to sample it.

The CDF and quantile are scipy's ndtr and ndtri: atoms are within a few ulps
and odd bit for bit. For q <= 20 they are read from one cached, read-only
table per depth, grid_atoms(q); deeper ones come from the quantile itself.

quantize_normal finds the cell k = floor(ndtr(y) 2^q) of most y without
ndtr when q <= _MAX_TABLE_Q. It buckets y on the grid of width 2^-12 over
[-9, 9) and reads k from a table of cells per bucket. A bucket holds a cell
only where both of its ends, pushed outwards by a margin of 1e-12 in ndtr,
floor to that cell. The margin is far above ndtr's error and above the
rounding of the bucket index, and floor is monotone, so every y in such a
bucket has that cell. The y of other buckets, y outside [-9, 9) and every
y at depths above the cap take ndtr, so each k is the one ndtr gives. Only
the last depth's table is kept (147 KB of int16).

scipy.special is imported inside the functions that call it, so only the
commands that map normals pay for loading it.
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


def _cells(y: np.ndarray, q: int) -> np.ndarray:
    """Cell index floor(ndtr(y) 2^q) of each y; ndtr(y) == 1.0 is clamped
    to the top cell."""
    from scipy.special import ndtr  # lazy, as ndtri in normal_quantile
    # 2^q is a power of two, so the scaling is exact and floor is safe on
    # cell boundaries (a boundary value goes to the upper cell).
    x = ndtr(y)
    x *= 1 << q
    k = np.floor(x, out=x).astype(np.int64)
    return np.minimum(k, (1 << q) - 1, out=k)


def quantize_normal(y, q: int):
    """Quantized normal: quantile(round(cdf(y))) on the 2^q-atom grid; a
    NaN in y raises ValueError."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    y = np.asarray(y, dtype=float)
    # min propagates NaN; initial keeps an empty y valid
    if np.isnan(np.min(y, initial=0.0)):
        raise ValueError("quantize_normal: y contains NaN")
    flat = y.reshape(-1)
    if q > _MAX_TABLE_Q:
        atoms = quantized_normals(_cells(flat, q), q)
    else:
        pos = flat * _BUCKETS_PER_UNIT
        pos += _BUCKET_OFFSET
        np.clip(pos, 0, _BUCKETS + 1, out=pos)
        i = pos.astype(np.intp)
        k = _cell_table(q).take(i)
        far = k < 0
        if far.any():
            k[far] = _cells(flat[far], q)
        # reuse i for the cells and pos for the atoms
        i[...] = k
        atoms = grid_atoms(q).take(i, out=pos)
    # [()] gives a float for a 0-d y and the array itself otherwise
    return atoms.reshape(y.shape)[()]


_MAX_GRID_Q = 20
# Above this depth quantize_normal skips the bucket table: with buckets
# 2^-12 wide, about 2^q 0.28 2^-12 of normals (3.5% at q = 9, 28% at
# q = 12) fall in a bucket that straddles a cell boundary and take ndtr
# after the lookup. Per normal of a 2^18 block (2 vCPU Xeon) the table
# took 11, 15, 18 and 25 ns at q = 9..12, and ndtr 22-23 ns.
_MAX_TABLE_Q = 11
# Midpoints (k+1/2)/2^q are exact in binary64 up to q = 52; deeper grids
# mean nothing.
MAX_DEPTH = 52

# Bucket b in 1.._BUCKETS holds y in [(b - _BUCKET_OFFSET) 2^-12,
# (b - _BUCKET_OFFSET + 1) 2^-12); buckets 0 and _BUCKETS + 1 hold every y
# below and above [-9, 9).
_BUCKETS_PER_UNIT = 1 << 12
_TABLE_RANGE = 9
_BUCKETS = 2 * _TABLE_RANGE * _BUCKETS_PER_UNIT
_BUCKET_OFFSET = _TABLE_RANGE * _BUCKETS_PER_UNIT + 1
_CELL_MARGIN = 1e-12


@functools.lru_cache(maxsize=1)
def _cell_table(q: int) -> np.ndarray:
    """The cell of every y in each bucket at depth q, or -1 where a bucket
    may hold two cells or lies outside [-9, 9)."""
    from scipy.special import ndtr
    top = (1 << q) - 1
    edges = ndtr(np.arange(-_TABLE_RANGE * _BUCKETS_PER_UNIT,
                           _TABLE_RANGE * _BUCKETS_PER_UNIT + 1)
                 / _BUCKETS_PER_UNIT)
    lo = np.clip(np.floor((edges[:-1] - _CELL_MARGIN) * (1 << q)), 0, top)
    hi = np.clip(np.floor((edges[1:] + _CELL_MARGIN) * (1 << q)), 0, top)
    table = np.full(_BUCKETS + 2, -1, dtype=np.int16)
    table[1:-1] = np.where(lo == hi, lo, -1)
    table.flags.writeable = False
    return table


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
