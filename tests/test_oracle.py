import math

import numpy as np
import pytest

from rbmlmc import oracle
from rbmlmc.errors import FeasibilityError
from rbmlmc.euler import bit_increments, coarse_from_fine, euler_paths_batch
from rbmlmc.bitsource import BitSource
from rbmlmc.functionals import make_constant, preset_functional
from rbmlmc.oracle import enumerate_bit_increments, exact_level_values
from rbmlmc.qnormal import grid_atoms, normal_quantile
from rbmlmc.sde import make_gbm, preset

Q3 = 0.674489750196082  # quantile at u = 3/4, the q=1 grid atom


def test_enumeration_m1_q1_d1():
    v = enumerate_bit_increments(1, 1, 1)
    assert v.shape == (2, 1, 1)
    np.testing.assert_allclose(np.sort(v.ravel()), [-Q3, Q3], atol=1e-12)


def test_enumeration_field_order_matches_bitsource():
    # realization code 0b(10 01) at m=2, q=2: step 0 gets numerator 2,
    # step 1 gets numerator 1, scaled by 1/sqrt(2)
    v = enumerate_bit_increments(2, 2, 1)
    atoms = grid_atoms(2)
    code = 0b1001
    np.testing.assert_allclose(
        v[code, :, 0], np.array([atoms[2], atoms[1]]) / math.sqrt(2),
        atol=1e-15)


def test_enumeration_weights_are_uniform_atoms():
    v = enumerate_bit_increments(2, 2, 2)
    assert v.shape == (1 << 8, 2, 2)
    vals, counts = np.unique(np.round(v, 12), return_counts=True)
    assert vals.size == 4  # +-atoms of q=2 over sqrt(2)
    assert np.all(counts == counts[0])


def test_enumeration_cap():
    with pytest.raises(FeasibilityError):
        enumerate_bit_increments(4, 4, 2)  # 32 bits
    # only the bit cap binds: q = 21 is past the atom table, not the cap
    v = enumerate_bit_increments(1, 21, 1)
    assert v.shape == (1 << 21, 1, 1)
    assert v[-1, 0, 0] == -v[0, 0, 0] == -normal_quantile(2.0 ** -22)


def test_exact_expectation_constant():
    mean, var = exact_level_values(make_gbm(), make_constant(2.0),
                                   m=2, q=3, coupled=False)
    assert mean == 2.0 and var == 0.0


def test_exact_expectation_zero_noise():
    # zero drift and diffusion: the path never leaves x0
    p = make_gbm(0.0, 0.0)
    mean, var = exact_level_values(p, preset_functional("terminal"),
                                   m=4, q=2, coupled=False)
    assert mean == 1.0
    assert var == pytest.approx(0.0, abs=1e-28)


def test_exact_expectation_gbm_m1_hand_value():
    # X_1 = x0 (1 + mu + sigma v), E over v in {+-Q3} -> x0 (1 + mu)
    mean, var = exact_level_values(make_gbm(), preset_functional(
        "terminal"), m=1, q=1, coupled=False)
    assert mean == pytest.approx(1.0 * (1 + 0.05), abs=1e-12)
    assert var == pytest.approx((0.2 * Q3) ** 2, abs=1e-12)


def test_oracle_matches_monte_carlo():
    p = preset("gbm")
    f = preset_functional("running_max")
    mean, var = exact_level_values(p, f, m=4, q=2, coupled=False)
    src = BitSource(99, 0)
    reps = 200_000
    from rbmlmc.euler import euler_paths_batch
    v = bit_increments(src, 4, 2, 1, n=reps)
    vals = f.eval_batch(euler_paths_batch(p, v))
    z = (vals.mean() - mean) / math.sqrt(var / reps)
    assert abs(z) < 4.0


def test_exact_level_difference_zero_for_constant():
    mean, var = exact_level_values(make_gbm(), make_constant(1.0),
                                   m=4, q=2, coupled=True)
    assert mean == 0.0 and var == 0.0


def test_exact_level_difference_requires_even_m(monkeypatch):
    # refused before any bit string is enumerated: (m, q) = (3, 8) took
    # 2.9 s to raise when the coarse sums refused it
    def enumerate_bit_increments(*a):
        raise AssertionError("enumerated an odd m")
    monkeypatch.setattr(oracle, "enumerate_bit_increments",
                        enumerate_bit_increments)
    for m, q in ((1, 2), (3, 8)):
        with pytest.raises(ValueError, match=f"even m, got m = {m}"):
            exact_level_values(make_gbm(), preset_functional("terminal"),
                               m=m, q=q, coupled=True)


def test_level_difference_mean_matches_expectation_gap():
    # E[f(fine) - f(coarse)] under the coupling; for the terminal functional
    # the coarse marginal of the coupling differs from a direct m/2 path,
    # so compare against the coupled enumeration itself re-aggregated.
    p = make_gbm()
    f = preset_functional("terminal")
    mean, var = exact_level_values(p, f, m=2, q=2, coupled=True)
    fine_mean, _ = exact_level_values(p, f, m=2, q=2, coupled=False)
    v = enumerate_bit_increments(2, 2, 1)
    coarse_mean = float(np.mean(f.eval_batch(
        euler_paths_batch(p, coarse_from_fine(v)))))
    assert mean == pytest.approx(fine_mean - coarse_mean, abs=1e-14)
    assert var > 0.0


def _tv(a, b):
    """Total-variation distance of two equally weighted samples, values
    grouped by exact float equality."""
    union, inv = np.unique(np.concatenate([a.ravel(), b.ravel()]),
                           return_inverse=True)
    pa = np.bincount(inv[:a.size], minlength=union.size) / a.size
    pb = np.bincount(inv[a.size:], minlength=union.size) / b.size
    return 0.5 * float(np.abs(pa - pb).sum())


def _coarse_increments(q):
    """The direct m = 1 increment and the coupled coarse one, the sum of
    two fine m = 2 increments, over every bit string, as the estimator
    builds them."""
    return (enumerate_bit_increments(1, q, 1).ravel(),
            coarse_from_fine(enumerate_bit_increments(2, q, 1)).ravel())


def test_coarse_distribution_mismatch_q1():
    direct, coupled = _coarse_increments(1)
    support, counts = np.unique(coupled, return_counts=True)
    # pair sums of {+-Q3}/sqrt(2): {-2Q3, 0, 2Q3}/sqrt(2) w.p. 1/4,1/2,1/4
    np.testing.assert_allclose(
        support, np.array([-2 * Q3, 0.0, 2 * Q3]) / math.sqrt(2), atol=1e-11)
    assert counts.tolist() == [1, 2, 1]
    assert _tv(direct, coupled) > 0.4
    assert np.mean(direct) == pytest.approx(0.0, abs=1e-15)
    assert np.mean(coupled) == pytest.approx(0.0, abs=1e-12)


def test_coarse_distribution_mismatch_supports_disjoint():
    # the coupled support is a sqrt(2)-scaled sumset of quantile atoms and
    # never meets the direct atoms, so the distance is exactly one
    for q in (1, 3, 5):
        direct, coupled = _coarse_increments(q)
        assert _tv(direct, coupled) == 1.0
        assert np.intersect1d(direct, coupled).size == 0
        assert np.unique(coupled).size > 1 << q
