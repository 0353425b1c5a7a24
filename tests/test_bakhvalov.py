import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmlmc import bakhvalov
from rbmlmc.bakhvalov import (_all_outputs, _slot_sums, exact_pairwise_check,
                              find_nonuniform_tuple,
                              joint_is_uniform, logarithmic_outputs,
                              quadratic_outputs)
from rbmlmc.bitsource import BitSource, enumerate_numerators
from rbmlmc.errors import FeasibilityError


def test_quadratic_output_count_and_q1_hand_check():
    # q=1 numerators in {0,1}; out = (a + b + 1) mod 2
    g_left = np.array([[0], [1]])
    g_right = np.array([[1], [1]])
    out = quadratic_outputs(np.stack([g_left, g_right]), 1)
    assert out.shape == (4, 1)
    assert out.ravel().tolist() == [0, 0, 1, 1]


def test_quadratic_q3_wraps_mod_8():
    out = quadratic_outputs(np.array([[[7]], [[3]]]), 3)
    assert out.ravel().tolist() == [(7 + 3 + 1) % 8]


def test_logarithmic_outputs_n2_q2():
    # g[i][j]: slot j picks row bit_j(index)
    g = np.array([[[1], [2]], [[3], [0]]])
    out = logarithmic_outputs(g, 2)
    # index 0 -> g[0][0]+g[0][1], 1 -> g[1][0]+g[0][1],
    # 2 -> g[0][0]+g[1][1], 3 -> g[1][0]+g[1][1]; plus n-1=1, mod 4
    assert out.ravel().tolist() == [(1 + 2 + 1) % 4, (3 + 2 + 1) % 4,
                                    (1 + 0 + 1) % 4, (3 + 0 + 1) % 4]


def test_family_shapes_and_midpoint_values():
    # 2n = 6 generators per component give n^2 = 9 quadratic outputs
    g = BitSource(7, 0).draw_dyadic_numerators(2, (6, 2))
    out = quadratic_outputs(g.reshape(2, 3, 2), 2)
    assert out.shape == (9, 2)
    assert out.min() >= 0 and out.max() < 4  # numerators of depth-2 midpoints
    g = BitSource(7, 1).draw_dyadic_numerators(2, (2, 3, 1))
    out = logarithmic_outputs(g, 2)
    assert out.shape == (8, 1)
    assert out.min() >= 0 and out.max() < 4


def test_family_consumes_exact_bits():
    # a family costs its 2n generator draws and nothing else
    src = BitSource(11, 4)
    g = src.draw_dyadic_numerators(3, (2 * 2, 2))
    quadratic_outputs(g.reshape(2, 2, 2), 3)
    assert src.bits_consumed == 2 * 2 * 3 * 2
    src2 = BitSource(11, 5)
    logarithmic_outputs(src2.draw_dyadic_numerators(2, (2, 4, 1)), 2)
    assert src2.bits_consumed == 2 * 4 * 2


def test_exact_pairwise_check_passes():
    for variant in ("quadratic", "logarithmic"):
        for n, q in ((2, 1), (2, 2), (3, 1)):
            rep = exact_pairwise_check(n, q, variant)
            assert rep.passed, str(rep)
            assert rep.realizations == 1 << (2 * n * q)


def test_failures_list_marginals_then_pairs(monkeypatch):
    # q = 1 over 4 realizations: columns 0 and 1 are jointly uniform,
    # column 2 is constant and column 3 repeats column 0
    outs = np.array([[0, 0, 0, 0], [1, 0, 0, 1], [0, 1, 0, 0], [1, 1, 0, 1]])
    monkeypatch.setattr(bakhvalov, "_all_outputs", lambda n, q, variant: outs)
    rep = exact_pairwise_check(2, 1, "quadratic")
    failures = (("marginal", 2), ("pair", 0, 2), ("pair", 0, 3),
                ("pair", 1, 2), ("pair", 2, 3))
    assert not rep.passed and rep.failures == failures
    assert str(rep) == ("quadratic n=2 q=1: 4 outputs, 4 realizations "
                        f"enumerated -> FAIL failures={failures}")
    assert find_nonuniform_tuple(2, 1, "quadratic", 2) == (0, 2)


def test_marginal_uniformity_sampled():
    g = BitSource(3, 0).draw_dyadic_numerators(2, (4, 1))
    out = quadratic_outputs(g.reshape(2, 2, 1), 2)
    assert set(np.unique(out)) <= {0, 1, 2, 3}


def test_every_triple_uniform_quadratic():
    assert find_nonuniform_tuple(2, 1, "quadratic", 3) is None
    assert find_nonuniform_tuple(2, 2, "quadratic", 3) is None
    assert find_nonuniform_tuple(3, 1, "quadratic", 3) is None


def test_dependence_first_appears_at_four_tuples():
    t = find_nonuniform_tuple(2, 1, "quadratic", 4)
    assert t == (0, 1, 2, 3)
    assert not joint_is_uniform(2, 1, "quadratic", t)


def test_logarithmic_triples_dependent():
    # out[0] + out[3] == out[1] + out[2] (mod 1) is a 4-tuple relation; every
    # slot splits three distinct indices 1|2, so all triples are uniform
    assert find_nonuniform_tuple(2, 1, "logarithmic", 4) == (0, 1, 2, 3)
    assert find_nonuniform_tuple(2, 1, "logarithmic", 3) is None
    assert find_nonuniform_tuple(2, 2, "logarithmic", 3) is None
    assert find_nonuniform_tuple(3, 1, "logarithmic", 3) is None


def test_enumeration_cap():
    with pytest.raises(FeasibilityError):
        exact_pairwise_check(5, 3, "quadratic")
    # the cap also bounds realizations x (outputs + output pairs):
    # 2^24 x (9 + 36), 2^16 x (256 + 32640) and 2^24 x (4 + 6) are refused,
    # 2^20 x (4 + 6) is not
    for n, q, variant in ((3, 4, "quadratic"), (8, 1, "logarithmic"),
                          (2, 6, "quadratic")):
        with pytest.raises(FeasibilityError):
            exact_pairwise_check(n, q, variant)
    assert exact_pairwise_check(2, 5, "quadratic").passed


def test_invalid_args():
    with pytest.raises(ValueError):
        exact_pairwise_check(2, 1, "cubic")


def test_combiners_take_a_leading_axis():
    # stacked generator arrays give the stack of per-realization outputs
    rng = np.random.default_rng(0)
    left, right = rng.integers(0, 8, size=(2, 5, 4, 2))
    assert np.array_equal(
        quadratic_outputs(np.stack([left, right], axis=-3), 3),
        np.stack([quadratic_outputs(np.stack([a, b]), 3)
                  for a, b in zip(left, right)]))
    g = rng.integers(0, 8, size=(5, 2, 3, 2))
    assert np.array_equal(logarithmic_outputs(g, 3),
                          np.stack([logarithmic_outputs(x, 3) for x in g]))
    # the exact checks enumerate exactly these per-realization outputs
    for n, q in ((2, 1), (3, 1)):
        gens = enumerate_numerators(2 * n, q)[:, :, None]
        quad = np.stack([quadratic_outputs(x.reshape(2, n, 1), q)[:, 0]
                         for x in gens])
        assert np.array_equal(_all_outputs(n, q, "quadratic"), quad)
        log = np.stack([logarithmic_outputs(x.reshape(2, n, 1), q)[:, 0]
                        for x in gens])
        assert np.array_equal(_all_outputs(n, q, "logarithmic"), log)


# Frozen copies of the combiners before the slot-sum kernel: a full
# broadcast and a slot-by-slot gather, each reduced with %.
def _frozen_quadratic(g_left, g_right, q):
    n = g_left.shape[-2]
    out = (g_left[..., :, None, :] + g_right[..., None, :, :] + 1) % (1 << q)
    return out.reshape(out.shape[:-3] + (n * n, -1))


def _frozen_logarithmic(g, q):
    n = g.shape[-2]
    idx = np.arange(1 << n, dtype=np.int64)
    out = np.zeros(g.shape[:-3] + (1 << n, g.shape[-1]), dtype=np.int64)
    for j in range(n):
        out += g[..., (idx >> j) & 1, j, :]
    return (out + n - 1) % (1 << q)


def _assert_same(out, ref):
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["flat", "lead"])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("q", [1, 3, 16])
def test_combiners_bitwise_equal_frozen_copies(q, d, lead):
    # every count from 1 to the family size is the frozen output's prefix;
    # the frozen quadratic cannot reshape n = 0, so it starts at n = 1
    rng = np.random.default_rng(q * 10 + d)
    for n in range(7):
        g = rng.integers(0, 1 << q, size=lead + (2, n, d))
        ref = _frozen_logarithmic(g, q)
        _assert_same(logarithmic_outputs(g, q), ref)
        for count in range(1, (1 << n) + 1):
            _assert_same(logarithmic_outputs(g, q, count), ref[..., :count, :])
        if n == 0:
            continue
        left, right = rng.integers(0, 1 << q, size=(2,) + lead + (n, d))
        ref = _frozen_quadratic(left, right, q)
        block = np.stack([left, right], axis=-3)
        _assert_same(quadratic_outputs(block, q), ref)
        for count in range(1, n * n + 1):
            _assert_same(quadratic_outputs(block, q, count),
                         ref[..., :count, :])


def test_count_range_and_slotless_family():
    g = np.zeros((2, 3, 1), dtype=np.int64)
    for count in (-1, 0, 9):
        with pytest.raises(ValueError):
            logarithmic_outputs(g, 2, count)
    for count in (-1, 0, 10):
        with pytest.raises(ValueError):
            quadratic_outputs(g, 2, count)
    # no slot: one output, the constant n - 1 = -1 mod 2^q
    out = logarithmic_outputs(np.zeros((4, 2, 0, 3), dtype=np.int64), 5)
    _assert_same(out, np.full((4, 1, 3), 31))
    _assert_same(logarithmic_outputs(np.zeros((2, 0, 1), dtype=np.int64),
                                     5, 1), np.full((1, 1), 31))
    with pytest.raises(ValueError):
        logarithmic_outputs(np.zeros((2, 0, 1), dtype=np.int64), 5, 2)


@given(variant=st.sampled_from(["quadratic", "logarithmic"]),
       n=st.integers(1, 7), lead=st.lists(st.integers(1, 3), max_size=2),
       d=st.integers(1, 4), q=st.integers(1, 20),
       frac=st.floats(0, 1), seed=st.integers(0, 2 ** 32))
@settings(max_examples=250, deadline=None)
def test_slot_sums_property(variant, n, lead, d, q, frac, seed):
    # the kernel, called on the slots as the wrappers build them, is a
    # prefix of the frozen output for any leading shape, radix and count
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 1 << q, size=tuple(lead) + (2, n, d))
    if variant == "quadratic":
        slots = np.stack([g[..., 1, :, :], g[..., 0, :, :]])
        ref = _frozen_quadratic(g[..., 0, :, :], g[..., 1, :, :], q)
    else:
        slots = np.moveaxis(g, -2, 0)
        ref = _frozen_logarithmic(g, q)
    size = ref.shape[-2]
    count = 1 + int(frac * (size - 1))
    _assert_same(_slot_sums(slots, q, count), ref[..., :count, :])
    _assert_same(_slot_sums(slots, q, None), ref)


@pytest.mark.parametrize("n, width, count", [(5, 65536, 17), (10, 4096, 32)])
def test_trimmed_combine_memory(n, width, count):
    # (5, 65536, 17) is the deepest bbit_log level at eps = 2^-6, where the
    # full gather peaked at 5.6x the returned bytes; keeping 32 of 1024
    # outputs needs the slots past the count to take one digit value only
    g = np.random.default_rng(0).integers(0, 1 << 16, size=(2, n, width))
    tracemalloc.start()
    try:
        out = logarithmic_outputs(g, 16, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (count, width)
    assert peak < 4 * out.nbytes


@pytest.mark.parametrize("variant", ["quadratic", "logarithmic"])
@pytest.mark.parametrize("q", [7, 8, 9, 15, 16, 17, 31, 32, 33, 52])
def test_narrow_slot_sums_equal_frozen_copies(q, variant):
    # the sums run in the narrowest unsigned type of q bits; generators at
    # 2^q - 1 carry past q bits, and past the type's width where q fills it
    for n in range(1, 7):
        for lead in ((), (3,)):
            g = np.full(lead + (2, n, 2), (1 << q) - 1, dtype=np.int64)
            if variant == "quadratic":
                ref = _frozen_quadratic(g[..., 0, :, :], g[..., 1, :, :], q)
            else:
                ref = _frozen_logarithmic(g, q)
            combine = bakhvalov.FAMILIES[variant].combine
            assert ref.dtype == np.int64
            _assert_same(combine(g, q), ref)
            for count in range(1, ref.shape[-2] + 1):
                _assert_same(combine(g, q, count), ref[..., :count, :])


@pytest.mark.parametrize("q", [-1, 0, 64, 65, 100])
def test_depth_outside_the_draws_range_raises(q):
    g = np.zeros((2, 3, 1), dtype=np.int64)
    for combine in (quadratic_outputs, logarithmic_outputs):
        with pytest.raises(ValueError, match=f"q = {q} is outside 1..63"):
            combine(g, q)
    # the ends of the range are kept: 1 bit, and 63 bits in uint64
    _assert_same(quadratic_outputs(g, 1), np.ones((9, 1), dtype=np.int64))
    _assert_same(logarithmic_outputs(g + ((1 << 63) - 1), 63),
                 np.full((8, 1), (1 << 63) - 1, dtype=np.int64))


@pytest.mark.parametrize("n, width, count, q",
                         [(5, 65536, 17, 16), (10, 4096, 1024, 23)])
def test_narrow_combine_memory(n, width, count, q):
    # the slot sums take q bits per output, not 64: the peak is the int64
    # result plus its narrow source (int64 sums peaked at 2.88x and 2.00x)
    g = np.random.default_rng(0).integers(0, 1 << q, size=(2, n, width))
    tracemalloc.start()
    try:
        out = logarithmic_outputs(g, q, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (count, width) and out.dtype == np.int64
    assert peak < 1.75 * out.nbytes


def test_unknown_family_raises_before_any_work():
    # n = 7 would be refused as infeasible for either family
    for n in (2, 7):
        with pytest.raises(ValueError, match="unknown variant 'cubic'"):
            exact_pairwise_check(n, 1, "cubic")
    with pytest.raises(ValueError, match="unknown variant"):
        find_nonuniform_tuple(2, 1, "cubic", 3)
