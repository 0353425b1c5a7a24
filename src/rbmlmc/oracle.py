"""Exact ground truth for bit-driven quantities by enumerating bit strings.

A bit-Euler path with m steps, d driving dimensions and depth q is a function
of m*d*q fair bits, so its expectation is the equal-weight average over all
2^(m*d*q) bit strings. bitsource.enumerate_numerators reads them as a
BitSource draws: the j-th q-bit field of a bit string is the numerator of
the j-th dyadic uniform drawn, fields ordered step-major,
component-minor. exact_level_values gives the mean and variance of what
mlmc.level_values returns: f at one path, or one level's fine-minus-coarse
difference under the coupling the estimator runs.
"""

import numpy as np

from .bitsource import enumerate_numerators
from .functionals import Functional
from .mlmc import level_values
from .qnormal import quantized_increments
from .sde import SDEProblem


def enumerate_bit_increments(m: int, q: int, d: int) -> np.ndarray:
    """All increment arrays, shape (2^(m*d*q), m, d), each equally likely."""
    nums = enumerate_numerators(m * d, q)
    return quantized_increments(nums, q, m).reshape(-1, m, d)


def exact_level_values(p: SDEProblem, f: Functional, m: int, q: int,
                       coupled: bool) -> tuple[float, float]:
    """Exact (mean, variance) of f at the m-step depth-q bit-Euler path, or
    with coupled of f(fine) - f(coarse); a coupled pair needs an even m."""
    vals = level_values(p, f, enumerate_bit_increments(m, q, p.d), coupled)
    return float(np.mean(vals)), float(np.var(vals))
