"""Exact ground truth for bit-driven quantities by enumerating bit strings.

A bit-Euler path with m steps, d driving dimensions and depth q is a function
of m*d*q fair bits, so its expectation is the equal-weight average over all
2^(m*d*q) bit strings. bitsource.enumerate_numerators reads them as a
BitSource draws: the j-th q-bit field of a bit string is the numerator of
the j-th dyadic uniform drawn, fields ordered step-major,
component-minor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bitsource import enumerate_numerators
from .errors import FeasibilityError
from .functionals import Functional
from .mlmc import level_values
from .qnormal import grid_atoms, quantized_normals
from .sde import SDEProblem


def enumerate_bit_increments(m: int, q: int, d: int) -> np.ndarray:
    """All increment arrays, shape (2^(m*d*q), m, d), each equally likely."""
    nums = enumerate_numerators(m * d, q)
    return quantized_normals(nums, q).reshape(-1, m, d) / math.sqrt(m)


def exact_expectation_bit_euler(p: SDEProblem, f: Functional, m: int,
                                q: int) -> tuple[float, float]:
    """Exact (mean, variance) of f at the m-step depth-q bit-Euler path."""
    vals = level_values(p, f, enumerate_bit_increments(m, q, p.d), False)
    return float(np.mean(vals)), float(np.var(vals))


def exact_level_difference(p: SDEProblem, f: Functional, m: int,
                           q: int) -> tuple[float, float]:
    """Exact (mean, variance) of f(fine) - f(coarse) under the coupling."""
    if m % 2 != 0:
        raise ValueError("m must be even for a coupled pair")
    diff = level_values(p, f, enumerate_bit_increments(m, q, p.d), True)
    return float(np.mean(diff)), float(np.var(diff))


@dataclass(frozen=True)
class MismatchReport:
    """Coupled coarse increment vs. directly drawn coarse increment, m = 2."""

    q: int
    direct_support: np.ndarray
    direct_probs: np.ndarray
    coupled_support: np.ndarray
    coupled_probs: np.ndarray
    tv_distance: float
    direct_mean: float
    coupled_mean: float


def coarse_distribution_mismatch(q: int) -> MismatchReport:
    """Exact distributions of the two coarse-increment constructions.

    The coupled coarse increment is the sum of two independent fine m=2
    increments 2^-1/2 Y^(q); the direct one is the m=1 increment Y^(q).
    Their laws differ (positive total-variation distance) although both
    have mean zero.
    """
    if q > 8:
        raise FeasibilityError("q must be <= 8 for the mismatch enumeration")
    atoms = grid_atoms(q)
    direct = atoms.copy()
    direct_probs = np.full(atoms.size, 1.0 / atoms.size)
    pair_sum = (atoms[:, None] + atoms[None, :]).ravel() / math.sqrt(2.0)
    # Group numerically equal atoms (the sum map has collisions, e.g. 0).
    key = np.round(pair_sum, 12)
    support, inv = np.unique(key, return_inverse=True)
    probs = np.bincount(inv).astype(float) / pair_sum.size
    dkey = np.round(direct, 12)
    union = np.unique(np.concatenate([support, dkey]))
    pc = np.zeros(union.size)
    pd = np.zeros(union.size)
    pc[np.searchsorted(union, support)] = probs
    pd[np.searchsorted(union, dkey)] = direct_probs
    tv = 0.5 * float(np.abs(pc - pd).sum())
    return MismatchReport(
        q=q, direct_support=direct, direct_probs=direct_probs,
        coupled_support=support, coupled_probs=probs, tv_distance=tv,
        direct_mean=float(direct @ direct_probs),
        coupled_mean=float(support @ probs))
