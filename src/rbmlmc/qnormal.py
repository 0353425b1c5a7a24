"""Standard normal CDF/quantile and the dyadic quantization of normals.

The quantized normal at depth q is obtained by pushing a standard normal
through the CDF, rounding to the midpoint of its dyadic cell of width 2^-q,
and pulling back through the quantile function. Its distribution is uniform
over the 2^q atoms quantile((k + 1/2) / 2^q), k = 0..2^q-1, so q fair bits
suffice to sample it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import FeasibilityError

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Acklam's rational approximation to the normal quantile (|err| ~ 1e-9),
# sharpened below by one Halley step to ~1e-15 self-consistency.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(x):
    """Standard normal distribution function; scalars in, scalar out."""
    if np.isscalar(x):
        return float(ndtr(x))
    return ndtr(np.asarray(x, dtype=float))


def _normal_pdf(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def _acklam(u):
    u = np.asarray(u, dtype=float)
    z = np.empty_like(u)
    lo = u < _P_LOW
    hi = u > 1.0 - _P_LOW
    mid = ~(lo | hi)
    if np.any(mid):
        r = u[mid] - 0.5
        s = r * r
        num = ((((_A[0] * s + _A[1]) * s + _A[2]) * s + _A[3]) * s + _A[4]) * s + _A[5]
        den = ((((_B[0] * s + _B[1]) * s + _B[2]) * s + _B[3]) * s + _B[4]) * s + 1.0
        z[mid] = r * num / den
    for mask, sign, p in ((lo, 1.0, u[lo]), (hi, -1.0, 1.0 - u[hi])):
        if np.any(mask):
            t = np.sqrt(-2.0 * np.log(p))
            num = ((((_C[0] * t + _C[1]) * t + _C[2]) * t + _C[3]) * t + _C[4]) * t + _C[5]
            den = (((_D[0] * t + _D[1]) * t + _D[2]) * t + _D[3]) * t + 1.0
            z[mask] = sign * num / den
    return z


def normal_quantile(u):
    """Inverse of normal_cdf on (0,1); raises for non-interior arguments."""
    scalar = np.isscalar(u)
    arr = np.asarray(u, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("normal_quantile requires 0 < u < 1")
    z = _acklam(arr)
    # One Halley step on F(z) = cdf(z) - u.
    t = (ndtr(z) - arr) / _normal_pdf(z)
    z = z - t / (1.0 + 0.5 * z * t)
    return float(z) if scalar else z


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
    scalar = np.isscalar(y)
    arr = np.asarray(y, dtype=float)
    z = quantized_normals(_round_numerators(ndtr(arr), q), q)
    return float(z) if scalar else z


_MAX_GRID_Q = 20


@functools.cache
def _atom_table(q: int) -> np.ndarray:
    atoms = grid_atoms(q)
    atoms.flags.writeable = False
    return atoms


def quantized_normals(nums, q: int) -> np.ndarray:
    """Atoms quantile((k + 1/2) / 2^q) at numerators k: for q <= 20 a lookup
    into the cached grid_atoms(q) table (the same floats), else the formula."""
    if q <= _MAX_GRID_Q:
        return _atom_table(q)[nums]
    return normal_quantile((nums + 0.5) / 2.0 ** q)


@dataclass(frozen=True)
class GridMoments:
    """Exact moments of the depth-q quantized normal (up to quantile precision)."""

    q: int
    mean: float
    second_moment: float

    def abs_moment(self, r: float) -> float:
        atoms = grid_atoms(self.q)
        return float(np.mean(np.abs(atoms) ** r))


def grid_atoms(q: int) -> np.ndarray:
    """The 2^q equiprobable atoms of the quantized normal, ascending."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > _MAX_GRID_Q:
        raise FeasibilityError(f"grid enumeration infeasible for q={q} > {_MAX_GRID_Q}")
    u = (np.arange(1 << q, dtype=np.float64) + 0.5) / (1 << q)
    return normal_quantile(u)


def exact_grid_moments(q: int) -> GridMoments:
    """Mean and second moment by averaging over the 2^q grid atoms."""
    atoms = grid_atoms(q)
    return GridMoments(q=q, mean=float(np.mean(atoms)),
                       second_moment=float(np.mean(atoms * atoms)))
