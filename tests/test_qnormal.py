import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmlmc.bitsource import BitSource
from rbmlmc.errors import FeasibilityError
from rbmlmc.euler import bit_increments
from scipy.special import ndtr, ndtri

from rbmlmc.qnormal import (_MAX_GRID_Q, MAX_DEPTH, grid_atoms,
                            normal_quantile, quantize_normal,
                            quantized_increments)

# Reference CDF values frozen from a 30-digit mpmath computation.
CDF_REFS = {
    0.5: 0.691462461274013104,
    1.0: 0.841344746068542949,
    2.0: 0.977249868051820793,
    -1.5: 0.066807201268858066,
    3.0: 0.998650101968369905,
    -4.0: 3.16712418331199213e-05,
}

# Atoms quantile((k + 1/2) / 2^q) at k = 0, 1, 2, N/2 - 1, N/2, N - 3,
# N - 2, N - 1 (N = 2^q), frozen to 21 digits from a 50-digit mpmath
# computation.
ATOM_REFS = {
    16: (-4.32491904082604625717, -4.07620651603261787722,
         -3.95575303793049458661, -1.9124056051512083651e-05,
         1.9124056051512083651e-05, 3.95575303793049458661,
         4.07620651603261787722, 4.32491904082604625717),
    20: (-4.90096420796319301184, -4.68055288459218740859,
         -4.57472884103579721816, -1.19525350314693324257e-06,
         1.19525350314693324257e-06, 4.57472884103579721816,
         4.68055288459218740859, 4.90096420796319301184),
}


def bisect_quantile(u, tol=1e-13):
    """Independent oracle: bisection on ndtr."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ndtr(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cdf_reference_values():
    for x, ref in CDF_REFS.items():
        assert ndtr(x) == pytest.approx(ref, abs=1e-14)
    assert ndtr(0.0) == 0.5


def test_cdf_symmetry_and_monotonicity():
    xs = np.linspace(-6, 6, 201)
    c = ndtr(xs)
    assert np.all(np.diff(c) > 0)
    assert np.allclose(c + ndtr(-xs), 1.0, atol=1e-15)


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
    err = np.abs(ndtr(normal_quantile(u)) - u)
    assert err.max() <= 1e-12


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(bad)


def test_quantile_refuses_nan():
    # NaN used to pass the range check and come back as NaN; an empty u is
    # still valid
    for bad in (np.nan, [0.5, np.nan], np.array([[0.2], [np.nan]])):
        with pytest.raises(ValueError, match="0 < u < 1"):
            normal_quantile(bad)
    assert normal_quantile(np.empty((0, 3))).shape == (0, 3)
    assert normal_quantile([0.5, 0.75])[1] == normal_quantile(0.75)


def test_scalar_input_gives_a_float():
    # q = 25 takes the quantile formula instead of the atom table
    for got, arr in ((normal_quantile(0.3), normal_quantile(np.array([0.3]))),
                     (quantize_normal(0.3, 5),
                      quantize_normal(np.array([0.3]), 5)),
                     (quantize_normal(0.3, 25),
                      quantize_normal(np.array([0.3]), 25))):
        assert isinstance(got, float)
        assert got == arr[0]


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
    assert abs(ndtr(z) - ndtr(y)) <= 2.0 ** -(q + 1) + 1e-12


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
    v = bit_increments(src, 1, 2, 3, n=1)
    assert v.shape == (1, 1, 3)
    assert src.bits_consumed == 6
    atoms = grid_atoms(2)
    for x in v[0, 0]:
        assert np.min(np.abs(atoms - x)) < 1e-12
    # q=1: single bit maps to +-quantile(3/4)
    x = bit_increments(BitSource(1, 0), 1, 1, 1, n=1)[0, 0, 0]
    assert abs(abs(x) - 0.674489750196082) < 1e-12


def test_grid_moments_q1():
    atoms = grid_atoms(1)
    assert np.mean(atoms) == 0.0
    assert np.mean(atoms ** 2) == pytest.approx(0.674489750196082 ** 2,
                                                abs=1e-12)
    assert np.mean(np.abs(atoms)) == pytest.approx(0.674489750196082,
                                                   abs=1e-12)


def test_grid_mean_zero_all_q():
    for q in range(1, 17):
        assert abs(np.mean(grid_atoms(q))) <= 1e-12


def test_second_moment_monotone_to_one():
    sm = [np.mean(grid_atoms(q) ** 2) for q in range(1, 17)]
    assert all(a < b for a, b in zip(sm, sm[1:]))
    assert abs(sm[-1] - 1.0) <= 1e-3


def test_grid_moments_feasibility_cap():
    with pytest.raises(FeasibilityError):
        grid_atoms(21)


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
            got = quantized_increments(k, q, 1)
            want = normal_quantile((k + 0.5) / 2 ** q)
            assert got.shape == shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # the cached table is built once per q and cannot be written through
    table = grid_atoms(3)
    assert grid_atoms(3) is table
    assert np.array_equal(table, normal_quantile((np.arange(8) + 0.5) / 8))
    with pytest.raises(ValueError):
        table[0] = 0.0


def test_quantized_increments_are_atoms_over_sqrt_m_bitwise():
    # q <= 20 gathers from the table divided by sqrt(m), q = 21 divides the
    # formula's atoms: the formula's floats over sqrt(m), in the index's
    # shape and memory order, for a C-ordered index and a transposed view
    rng = np.random.default_rng(2030)
    for q in (1, 9, 16, 20, 21):
        k = rng.integers(0, 1 << q, size=(5, 4, 3))
        k[0, 0, :2] = 0, (1 << q) - 1
        for axes in ((0, 1, 2), (1, 2, 0)):
            nums = k.transpose(axes)
            for m in (1, 3, 32, 1024):
                got = quantized_increments(nums, q, m)
                want = normal_quantile((nums + 0.5) / 2 ** q) / np.sqrt(m)
                assert got.shape == nums.shape
                assert got.transpose(np.argsort(axes)).flags.c_contiguous
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (q, m)


def test_quantize_normal_reads_the_cached_table_at_m_1():
    # m = 1 gathers from grid_atoms(q) itself: reading one atom of the
    # 8 MiB q = 20 table builds no copy of it
    grid_atoms(20)
    quantize_normal(0.3, 20)  # scipy's first call allocates on its own
    tracemalloc.start()
    try:
        atom = quantize_normal(0.3, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert atom == _frozen_quantize(0.3, 20)
    assert peak < 64 * 1024


def test_atoms_within_4_ulps_of_references():
    for q, refs in ATOM_REFS.items():
        n = 1 << q
        ks = [0, 1, 2, n // 2 - 1, n // 2, n - 3, n - 2, n - 1]
        got = grid_atoms(q)[ks]
        ulps = np.abs(got - refs) / np.spacing(np.abs(refs))
        assert ulps.max() <= 4, (q, ulps)


def test_atom_grid_is_odd_bitwise():
    # (k + 1/2) / 2^q and its mirror 1 - (k + 1/2) / 2^q are both exact, so
    # an odd quantile gives atom k == -atom(2^q - 1 - k) bit for bit
    for q in range(1, 21):
        atoms = grid_atoms(q)
        assert np.array_equal(atoms.view(np.int64),
                              (-atoms[::-1]).view(np.int64)), q


# Frozen copy of the quantizer: the cell floor(ndtr(y) 2^q), clamped to the
# top cell, and the atom by the formula. _frozen_cells takes u = ndtr(y).
def _frozen_cells(u, q):
    return np.minimum(np.floor(u * (1 << q)).astype(np.int64), (1 << q) - 1)


def _frozen_quantize(y, q):
    return ndtri((_frozen_cells(ndtr(y), q) + 0.5) / 2 ** q)


def _assert_bitwise_frozen(y, q):
    got, want = quantize_normal(y, q), _frozen_quantize(y, q)
    assert np.array_equal(np.asarray(got).view(np.int64),
                          np.asarray(want).view(np.int64)), q


def _ulp_neighbours(x, n):
    """Every double within n ulps of each |x|, with both signs."""
    bits = np.abs(np.asarray(x, dtype=float)).view(np.int64)
    bits = (bits[:, None] + np.arange(-n, n + 1)).ravel()
    mags = bits[bits >= 0].view(np.float64)
    return np.concatenate([mags, -mags])


def test_quantize_normal_equals_frozen_copy_at_every_boundary():
    # every double within 300 ulps of a cell boundary ndtri(k / 2^q) reads
    # the frozen copy's atom, at every depth up to 11
    for q in range(1, 12):
        _assert_bitwise_frozen(
            _ulp_neighbours(ndtri(np.arange(1, 1 << q) / 2 ** q), 300), q)


def test_quantize_normal_special_values():
    tiny = np.finfo(float).tiny
    y = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324,
                  -5e-324, tiny / 3, -tiny / 3, tiny, -tiny, 9.0, -9.0,
                  np.nextafter(9.0, 0), np.nextafter(-9.0, 0), 40.0, -40.0])
    for q in (1, 2, 9, 11, 12, 25):
        _assert_bitwise_frozen(y, q)
        for x in y[:4]:
            for arg in (x, np.array(x)):
                got = quantize_normal(arg, q)
                assert isinstance(got, float)
                assert got == _frozen_quantize(x, q)


def test_quantize_normal_random_samples_equal_frozen_copy():
    rng = np.random.default_rng(19)
    y = np.concatenate([rng.standard_normal(20000),
                        rng.uniform(-12.0, 12.0, 5000)])
    for q in (1, 5, 11, 12, 16, 20, 21, 30):
        _assert_bitwise_frozen(y, q)
        _assert_bitwise_frozen(y.reshape(5, 50, 100), q)


def test_depths_above_max_depth_raise():
    # at q = 53, 8.0 quantized to 7.9916 and -8.0 to -8.0023; q = 60 warned
    # of an invalid cast and q >= 64 raised OverflowError
    for q in (MAX_DEPTH + 1, 60, 64, 100):
        with pytest.raises(ValueError, match=f"q = {q} is outside"):
            quantize_normal(8.0, q)
    assert quantize_normal(8.0, MAX_DEPTH) == -quantize_normal(-8.0, MAX_DEPTH)
    with pytest.raises(ValueError, match="cells of depth 3"):
        quantize_normal(0.5, 5, cells=(np.int64(5), 3))


def test_increment_depths_outside_1_to_max_depth_raise():
    # at q = 60 the cells 2^59, 2^59 + 1 and 2^59 + 2 all gave the atom 0.0,
    # and q = 53's top cell raised the quantile's own domain error
    for q in (0, MAX_DEPTH + 1, 60):
        with pytest.raises(ValueError, match=f"q = {q} is outside"):
            quantized_increments(np.array([1 << max(q - 1, 0)]), q, 4)
        with pytest.raises(ValueError, match=rf"q.*\b{q}\b"):
            bit_increments(BitSource(0, 0), 4, q, 1, 2)
    nums = np.array([0, 1 << 51, (1 << MAX_DEPTH) - 1])
    assert np.array_equal(quantized_increments(nums, MAX_DEPTH, 1),
                          normal_quantile((nums + 0.5) / 2.0 ** MAX_DEPTH))


def test_cells_nest():
    # y's depth-q cell is its depth-q2 cell without the last q2 - q bits:
    # quantize_normal(y, q) equals, bitwise, its read of the frozen copy's
    # depth-q2 cells, for q in 1, 13, 20, 21 and MAX_DEPTH (both sides of
    # the grid cap, 20) and every listed q2 >= q. The inputs:
    # every double within 300 ulps of each depth-13 boundary, which are
    # every boundary at depths <= 13 and boundaries at every deeper one; at
    # each deeper depth the same around its two outermost boundaries on
    # each side and 256 random ones; and special values.
    depths = [*range(1, 14), 20, _MAX_GRID_Q + 1, 30, MAX_DEPTH]
    assert _MAX_GRID_Q in depths
    rng = np.random.default_rng(24)
    bounds = [np.arange(1, 1 << 13) / 2 ** 13]
    for q in depths[13:]:
        k = np.concatenate([[1, 2, (1 << q) - 2, (1 << q) - 1],
                            rng.integers(1, 1 << q, 256)])
        bounds.append(k / 2 ** q)
    tiny = np.finfo(float).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324,
                        -5e-324, tiny / 3, -tiny / 3, tiny, -tiny])
    nines = np.array([9.0, -9.0])
    centres = np.array_split(ndtri(np.concatenate(bounds)), 12)
    inputs = (_ulp_neighbours(c, 300) for c in centres)
    last = np.concatenate([special, nines, np.nextafter(nines, 0),
                           np.nextafter(nines, 2 * nines)])
    for chunk in itertools.chain(inputs, [last]):
        u = ndtr(chunk)
        cells = {q2: _frozen_cells(u, q2) for q2 in depths}
        for q in (1, 13, 20, 21, MAX_DEPTH):
            want = quantize_normal(chunk, q).view(np.int64)
            for q2 in depths[depths.index(q):]:
                got = quantize_normal(chunk, q, cells=(cells[q2], q2))
                assert np.array_equal(got.view(np.int64), want), (q, q2)


def test_quantize_normal_rejects_nan():
    for q in (3, 12):
        for y in (np.nan, np.array([0.5, np.nan, -1.0])):
            with pytest.raises(ValueError, match="y contains NaN"):
                quantize_normal(y, q)
