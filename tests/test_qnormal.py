import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmlmc.bitsource import BitSource
from rbmlmc.errors import FeasibilityError
from rbmlmc.euler import bit_increments
from rbmlmc.qnormal import (_atom_table, exact_grid_moments, grid_atoms,
                            normal_cdf, normal_quantile, quantize_normal,
                            quantized_normals)

# Reference CDF values frozen from a 30-digit mpmath computation.
CDF_REFS = {
    0.5: 0.691462461274013104,
    1.0: 0.841344746068542949,
    2.0: 0.977249868051820793,
    -1.5: 0.066807201268858066,
    3.0: 0.998650101968369905,
    -4.0: 3.16712418331199213e-05,
}


def bisect_quantile(u, tol=1e-13):
    """Independent oracle: bisection on normal_cdf."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cdf_reference_values():
    for x, ref in CDF_REFS.items():
        assert normal_cdf(x) == pytest.approx(ref, abs=1e-14)
    assert normal_cdf(0.0) == 0.5


def test_cdf_symmetry_and_monotonicity():
    xs = np.linspace(-6, 6, 201)
    c = normal_cdf(xs)
    assert np.all(np.diff(c) > 0)
    assert np.allclose(c + normal_cdf(-xs), 1.0, atol=1e-15)


def test_quantile_against_bisection_oracle():
    for u in (0.75, 0.625, 0.9, 0.09375, 0.5):
        assert normal_quantile(u) == pytest.approx(bisect_quantile(u),
                                                   abs=5e-12)
    # in the far tail the cdf's ulp over the small density limits bisection
    # to roughly 1e-10 of positional resolution
    for u in (1e-6, 1 - 1e-6):
        assert normal_quantile(u) == pytest.approx(bisect_quantile(u),
                                                   abs=1e-9)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    assert normal_quantile(0.75) == pytest.approx(0.674489750196081743,
                                                  abs=1e-12)
    assert normal_quantile(0.625) == pytest.approx(0.318639363964375163,
                                                   abs=1e-12)


def test_quantile_self_consistency():
    u = np.random.default_rng(0).uniform(1e-9, 1 - 1e-9, 10 ** 5)
    err = np.abs(normal_cdf(normal_quantile(u)) - u)
    assert err.max() <= 1e-12


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(bad)


def test_round_dyadic_examples():
    # quantize_normal rounds cdf(y) to the midpoint of its dyadic cell
    assert quantize_normal(normal_quantile(0.3), 1) == pytest.approx(
        normal_quantile(0.25), abs=1e-14)
    assert quantize_normal(normal_quantile(0.9), 2) == pytest.approx(
        normal_quantile(0.875), abs=1e-14)
    for q in (1, 3, 7):
        assert quantize_normal(-40.0, q) == pytest.approx(
            normal_quantile(2.0 ** -(q + 1)), abs=1e-12)
    # cdf(0) = 1/2 is an exact cell boundary and rounds into the upper cell
    assert quantize_normal(0.0, 1) == normal_quantile(0.75)


@given(y=st.floats(min_value=-10.0, max_value=10.0), q=st.integers(1, 20))
@settings(max_examples=200, deadline=None)
def test_round_dyadic_is_nearest_midpoint(y, q):
    z = quantize_normal(y, q)
    assert math.isfinite(z)
    # the 1e-12 slack is the cdf(quantile(u)) == u self-consistency bound
    assert abs(normal_cdf(z) - normal_cdf(y)) <= 2.0 ** -(q + 1) + 1e-12


def test_quantize_normal_examples():
    assert quantize_normal(1.0, 1) == pytest.approx(0.674489750196, abs=1e-9)
    assert quantize_normal(-0.5, 1) == pytest.approx(-0.674489750196,
                                                     abs=1e-9)
    assert quantize_normal(0.1, 2) == pytest.approx(
        normal_quantile(0.625), abs=1e-14)


def test_quantize_normal_odd_symmetry():
    y = np.random.default_rng(1).standard_normal(1000)
    for q in (1, 3, 5):
        # skip points whose CDF sits exactly on a cell boundary (none here
        # with probability one, but guard the comparison anyway)
        a = quantize_normal(y, q)
        b = -quantize_normal(-y, q)
        assert np.allclose(a, b, atol=1e-12)


def test_quantize_normal_support_size():
    y = np.random.default_rng(2).standard_normal(20000)
    for q in (1, 2, 3):
        vals = np.unique(np.round(quantize_normal(y, q), 12))
        assert len(vals) == 2 ** q


def test_sample_quantized_normal_atoms_and_counting():
    # one step (m = 1) of bit increments is a d-vector of quantized normals
    src = BitSource(0, 5)
    v = bit_increments(src, 1, 2, 3)
    assert v.shape == (1, 3)
    assert src.bits_consumed == 6
    atoms = grid_atoms(2)
    for x in v[0]:
        assert np.min(np.abs(atoms - x)) < 1e-12
    # q=1: single bit maps to +-quantile(3/4)
    x = bit_increments(BitSource(1, 0), 1, 1, 1)[0, 0]
    assert abs(abs(x) - 0.674489750196082) < 1e-12


def test_grid_moments_q1():
    gm = exact_grid_moments(1)
    assert gm.mean == 0.0
    assert gm.second_moment == pytest.approx(0.674489750196082 ** 2,
                                             abs=1e-12)
    assert gm.abs_moment(1) == pytest.approx(0.674489750196082, abs=1e-12)


def test_grid_mean_zero_all_q():
    for q in range(1, 17):
        assert abs(exact_grid_moments(q).mean) <= 1e-12


def test_second_moment_monotone_to_one():
    sm = [exact_grid_moments(q).second_moment for q in range(1, 17)]
    assert all(a < b for a, b in zip(sm, sm[1:]))
    assert abs(sm[-1] - 1.0) <= 1e-3


def test_grid_moments_feasibility_cap():
    with pytest.raises(FeasibilityError):
        exact_grid_moments(21)


def test_quantization_rms_decay_ratio():
    y = np.random.default_rng(3).standard_normal(10 ** 5)

    def rms(q):
        return math.sqrt(np.mean((y - quantize_normal(y, q)) ** 2))

    for q in (2, 4, 6, 8):
        assert rms(q) / rms(q + 2) >= 1.7


def test_atom_table_equals_formula_bitwise():
    rng = np.random.default_rng(2026)
    for q in range(1, 22):  # q = 21 takes the formula path
        for shape in ((1000,), (4, 5, 3)):
            k = rng.integers(0, 1 << q, size=shape)
            got = quantized_normals(k, q)
            want = normal_quantile((k + 0.5) / 2 ** q)
            assert got.shape == shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the cached table is built once per q and cannot be written through
    table = _atom_table(3)
    assert _atom_table(3) is table
    assert np.array_equal(table, grid_atoms(3))
    with pytest.raises(ValueError):
        table[0] = 0.0
