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
