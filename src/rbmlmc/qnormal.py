"""Standard normal quantile and the dyadic quantization of normals.

The quantized normal at depth q is obtained by pushing a standard normal
through the CDF, rounding to the midpoint of its dyadic cell of width 2^-q,
and pulling back through the quantile function. Its distribution is uniform
over the 2^q atoms quantile((k + 1/2) / 2^q), k = 0..2^q-1, so q fair bits
suffice to sample it.

quantize_normal finds the cell k = min(floor(ndtr(y) 2^q), 2^q - 1) of y,
an intp like every other numerator, and reads the atom there. Cells nest.
Scaling by 2^q is exact in binary64, so floor(x 2^q') >> (q' - q) =
floor(x 2^q) for q <= q', and the clamp to the top cell commutes with the
shift: the depth-q cell is the depth-q' cell without its last q' - q bits,
and cells=(k, q') hands them to quantize_normal.

The CDF and quantile are scipy's ndtr and ndtri: atoms are within a few ulps
and odd bit for bit. quantized_increments is the one map from cells to atoms:
for q <= 20 it reads one cached, read-only table per depth, grid_atoms(q),
and deeper ones come from the quantile itself.

scipy.special is imported inside the functions that call it, so only the
commands that map normals pay for loading it.
"""

import functools

import numpy as np

from .errors import FeasibilityError


def normal_quantile(u):
    """Inverse of the standard normal CDF (scipy's ndtr) on (0,1); raises
    for non-interior arguments and NaN."""
    arr = np.asarray(u, dtype=float)
    # min and max propagate NaN; initial keeps an empty u valid
    if not (0.0 < np.min(arr, initial=0.5) and np.max(arr, initial=0.5) < 1.0):
        raise ValueError("normal_quantile requires 0 < u < 1")
    from scipy.special import ndtri  # lazy: loading it takes ~0.25 s
    return ndtri(arr)


def quantize_normal(y, q: int, cells=None):
    """Quantized normal: quantile(round(cdf(y))) on the 2^q-atom grid, the
    atom at y's cell, ndtr(y) == 1.0 clamped to the top cell; a NaN in y
    raises ValueError. cells=(k, depth), y's cells at some depth >= q, skips
    finding them: the depth-q cells are k >> (depth - q)."""
    if cells is None:
        if not 1 <= q <= MAX_DEPTH:
            raise ValueError(f"quantization depth q = {q} is outside "
                             f"1..{MAX_DEPTH}")
        y = np.asarray(y, dtype=float)
        # min propagates NaN; initial keeps an empty y valid
        if np.isnan(np.min(y, initial=0.0)):
            raise ValueError("y contains NaN")
        from scipy.special import ndtr  # lazy, as ndtri in normal_quantile
        # 2^q is a power of two, so the scaling is exact and floor is safe on
        # cell boundaries (a boundary value goes to the upper cell).
        k = np.minimum(np.floor(ndtr(y) * (1 << q)),
                       (1 << q) - 1).astype(np.intp)
    else:
        k, depth = cells
        if not 1 <= q <= depth:
            raise ValueError(f"cells of depth {depth} cannot give depth {q}")
        k = k >> (depth - q)
    # [()] gives a float for a 0-d y and the array itself otherwise
    return quantized_increments(k, q, 1)[()]


_MAX_GRID_Q = 20
# Midpoints (k+1/2)/2^q are exact in binary64 up to q = 52; deeper grids
# mean nothing.
MAX_DEPTH = 52


def quantized_increments(nums, q: int, m: int) -> np.ndarray:
    """Increments m^{-1/2} Y^(q) over steps 1/m at numerators nums, laid out
    in memory as nums is: for q <= 20 one gather from grid_atoms(q) /
    sqrt(m), one division per atom, else the atoms divided in place; the
    same floats either way. Dividing by sqrt(1) is exact, so m = 1 gathers
    Y^(q) from the cached table itself. Depths outside 1..MAX_DEPTH raise
    ValueError naming q."""
    if not 1 <= q <= MAX_DEPTH:
        raise ValueError(f"quantization depth q = {q} is outside "
                         f"1..{MAX_DEPTH}")
    if q <= _MAX_GRID_Q:
        atoms = grid_atoms(q)
        return (atoms if m == 1 else atoms / np.sqrt(m))[nums]
    v = normal_quantile((nums + 0.5) / 2.0 ** q)
    v /= np.sqrt(m)
    return v


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
