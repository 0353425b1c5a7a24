"""Exact ground truth for bit-driven quantities by enumerating bit strings.

A bit-Euler path with m steps, d driving dimensions and depth q is a function
of m*d*q fair bits, so its expectation is the equal-weight average over all
2^(m*d*q) bit strings. bitsource.enumerate_numerators reads them as a
BitSource draws: the j-th q-bit field of a bit string is the numerator of
the j-th dyadic uniform drawn, fields ordered step-major,
component-minor. Two exact quantities are computed this way: the mean and
variance of f at one path, and of one level's fine-minus-coarse difference
under the coupling the estimator runs (mlmc.level_values).
"""

import math

import numpy as np

from .bitsource import enumerate_numerators
from .functionals import Functional
from .mlmc import level_values
from .qnormal import quantized_normals
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
