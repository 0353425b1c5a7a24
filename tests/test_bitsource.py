import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from rbmlmc.bitsource import BitSource, enumerate_numerators
from rbmlmc.errors import FeasibilityError


def test_reproducible_given_seed_and_stream():
    a = BitSource(1234, 0).draw_bits(64)
    b = BitSource(1234, 0).draw_bits(64)
    assert np.array_equal(a, b)


def test_chunking_does_not_change_positions():
    whole = BitSource(5, 3).draw_bits(200)
    src = BitSource(5, 3)
    pieces = np.concatenate([src.draw_bits(n) for n in (1, 7, 64, 100, 28)])
    assert np.array_equal(whole, pieces)


def test_draw_bit_counts_one():
    src = BitSource(0)
    for i in range(10):
        b = src.draw_bits(1)
        assert b.shape == (1,) and b[0] in (0, 1)
        assert src.bits_consumed == i + 1


def test_streams_differ_in_first_64_bits():
    a = BitSource(77, 0).draw_bits(64)
    b = BitSource(77, 1).draw_bits(64)
    assert not np.array_equal(a, b)


def test_bit_mean_in_binomial_band():
    # 4 sigma band for n = 1e6 fair bits: 0.5 +- 4 * 0.5/1000
    mean = BitSource(20260826).draw_bits(10 ** 6).mean()
    assert 0.498 <= mean <= 0.502


def test_dyadic_value_formula():
    # value = (numerator + 1/2) / 2^q, e.g. bits (1,0): 1/2 + 1/8 = 0.625
    nums = BitSource(4, 2).draw_dyadic_numerators(2, 500)
    vals = BitSource(4, 2).draw_dyadic_values(2, 500)
    assert np.array_equal(vals, (nums + 0.5) / 4)
    assert vals[nums == 2][0] == 0.625
    assert set(BitSource(4, 3).draw_dyadic_values(1, 100)) == {0.25, 0.75}
    with pytest.raises(ValueError):
        BitSource(0).draw_dyadic_values(0, 3)


def test_dyadic_uniform_matches_bit_pattern():
    src = BitSource(42, 9)
    bits = BitSource(42, 9).draw_bits(6)
    nums = src.draw_dyadic_numerators(3, 2)
    assert src.bits_consumed == 6
    for j, k in enumerate(nums):
        expected = int("".join(map(str, bits[3 * j:3 * j + 3])), 2)
        assert k == expected


@given(q=st.integers(1, 12), d=st.integers(1, 5), seed=st.integers(0, 2 ** 32))
@settings(max_examples=50, deadline=None)
def test_bit_count_exactness(q, d, seed):
    src = BitSource(seed)
    src.draw_dyadic_numerators(q, d)
    assert src.bits_consumed == d * q
    src.draw_dyadic_numerators(q, (3, d))
    assert src.bits_consumed == d * q + 3 * d * q


def test_dyadic_values_open_interval():
    v = BitSource(8).draw_dyadic_values(4, 1000)
    assert np.all((v > 0) & (v < 1))
    assert len(np.unique(v)) == 16


def test_uniformity_chi_square_q3():
    n = 10 ** 6
    counts = np.bincount(BitSource(11, 0).draw_dyadic_numerators(3, n),
                         minlength=8)
    stat = ((counts - n / 8) ** 2 / (n / 8)).sum()
    assert stat < chi2.ppf(1 - 1e-3, 7)


def test_stream_independence_chi_square_q2():
    n = 10 ** 5
    a = BitSource(7, 0).draw_dyadic_numerators(2, n)
    b = BitSource(7, 1).draw_dyadic_numerators(2, n)
    counts = np.bincount(a * 4 + b, minlength=16)
    stat = ((counts - n / 16) ** 2 / (n / 16)).sum()
    assert stat < chi2.ppf(1 - 1e-3, 15)


def test_enumeration_reads_bits_like_draws():
    # row c of the enumeration is what a source draws when its bits spell c
    src = BitSource(42, 9)
    code = int("".join(map(str, BitSource(42, 9).draw_bits(12))), 2)
    table = enumerate_numerators(4, 3)
    assert table.shape == (1 << 12, 4)
    assert np.array_equal(table[code], src.draw_dyadic_numerators(3, 4))
    assert enumerate_numerators(2, 2)[0b1001].tolist() == [2, 1]
    with pytest.raises(FeasibilityError):
        enumerate_numerators(5, 5)


@given(offset=st.integers(0, 200), q=st.integers(1, 63),
       count=st.integers(1, 300), seed=st.integers(0, 2 ** 64 - 1))
@settings(max_examples=200, deadline=None)
def test_numerators_cut_from_words_match_bits(offset, q, count, seed):
    # fields are cut from 64-bit words; the reference reads the same stream
    # positions one bit at a time, most significant bit first
    src = BitSource(seed, 5)
    src.draw_bits(offset)
    nums = src.draw_dyadic_numerators(q, count)
    assert src.bits_consumed == offset + count * q
    assert nums.dtype == np.int64 and nums.shape == (count,)
    bits = BitSource(seed, 5).draw_bits(offset + count * q)[offset:]
    expected = [int("".join(map(str, bits[j * q:(j + 1) * q])), 2)
                for j in range(count)]
    assert [int(k) for k in nums] == expected


def test_numerators_straddling_words_and_depth_cap():
    src = BitSource(3, 1)
    src.draw_bits(60)  # the first 63-bit field spans blocks 0 and 1
    nums = src.draw_dyadic_numerators(63, (2, 2))
    bits = BitSource(3, 1).draw_bits(60 + 4 * 63)[60:]
    assert nums.ravel().tolist() == [
        int("".join(map(str, bits[j * 63:(j + 1) * 63])), 2)
        for j in range(4)]
    assert src.bits_consumed == 60 + 4 * 63
    with pytest.raises(ValueError):
        src.draw_dyadic_numerators(64, 1)
    assert src.bits_consumed == 60 + 4 * 63


# Frozen copy of the source before the period-column cutter: the scalar
# splitmix64 key derivation, the copying finalizer and the gather cutter that
# reads each numerator from the two blocks it may straddle.
_FROZEN_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _frozen_mix64(z):
    z = np.uint64(z) if np.isscalar(z) else z.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _frozen_numerators(seed, stream_id, position, q, shape):
    g = _FROZEN_GOLDEN
    with np.errstate(over="ignore"):
        k = _frozen_mix64(np.uint64(seed))
        key = _frozen_mix64((k + g) ^ _frozen_mix64(np.uint64(stream_id) + g))
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    total = int(np.prod(shape, dtype=np.int64)) if shape else 1
    first, off = divmod(position, 64)
    count = (off + total * q - 1) // 64 + 2
    idx = np.arange(first, first + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        blk = _frozen_mix64(key + (idx + np.uint64(1)) * g)
    s = np.arange(off, off + total * q, q, dtype=np.uint64)
    r = s & np.uint64(63)
    s >>= np.uint64(6)
    words = blk[s] << r
    words |= blk[s + 1] >> (np.uint64(64) - r)
    return (words >> np.uint64(64 - q)).astype(np.int64).reshape(shape)


_SHAPES = st.one_of(
    st.just(()), st.just((0, 4)), st.tuples(st.integers(0, 300)),
    st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)))


@given(q=st.integers(1, 63), offset=st.integers(0, 200),
       shapes=st.lists(_SHAPES, min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 64 - 1), stream=st.integers(0, 2 ** 64 - 1))
@settings(max_examples=300, deadline=None)
def test_period_columns_equal_frozen_gather_cutter(q, offset, shapes, seed,
                                                   stream):
    src = BitSource(seed, stream)
    src.draw_bits(offset)
    for shape in shapes:
        position = src.bits_consumed
        ref = _frozen_numerators(seed, stream, position, q, shape)
        out = src.draw_dyadic_numerators(q, shape)
        assert out.dtype == np.int64 and out.shape == ref.shape
        assert np.array_equal(out, ref)
        assert src.bits_consumed == position + ref.size * q


@pytest.mark.parametrize("offset", [0, 5])
@pytest.mark.parametrize("q", [1, 16, 21])
def test_numerator_draw_memory(q, offset):
    # the level-16 shape of epsilon = 2^-6: the gather cutter peaked at
    # 5.0-5.3 times the returned bytes
    src = BitSource(9, 2)
    src.draw_bits(offset)
    tracemalloc.start()
    try:
        out = src.draw_dyadic_numerators(q, (17, 65536, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * out.nbytes


@pytest.mark.parametrize("shape", [(-1,), (2, -3), -4])
def test_negative_dimension_leaves_counter_unchanged(shape):
    src = BitSource(6, 1)
    src.draw_bits(9)
    with pytest.raises(ValueError, match="non-negative"):
        src.draw_dyadic_numerators(4, shape)
    assert src.bits_consumed == 9
    assert src.draw_dyadic_numerators(4, 2).shape == (2,)
    assert src.bits_consumed == 17
