import numpy as np
import pytest

from rbmlmc.bakhvalov import (_all_outputs, exact_pairwise_check,
                              find_nonuniform_triple, find_nonuniform_tuple,
                              joint_is_uniform, logarithmic_outputs,
                              quadratic_outputs)
from rbmlmc.bitsource import BitSource, enumerate_numerators
from rbmlmc.errors import FeasibilityError


def test_quadratic_output_count_and_q1_hand_check():
    # q=1 numerators in {0,1}; out = (a + b + 1) mod 2
    g_left = np.array([[0], [1]])
    g_right = np.array([[1], [1]])
    out = quadratic_outputs(g_left, g_right, 1)
    assert out.shape == (4, 1)
    assert out.ravel().tolist() == [0, 0, 1, 1]


def test_quadratic_q3_wraps_mod_8():
    out = quadratic_outputs(np.array([[7]]), np.array([[3]]), 3)
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
    out = quadratic_outputs(g[:3], g[3:], 2)
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
    quadratic_outputs(g[:2], g[2:], 3)
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


def test_marginal_uniformity_sampled():
    g = BitSource(3, 0).draw_dyadic_numerators(2, (4, 1))
    out = quadratic_outputs(g[:2], g[2:], 2)
    assert set(np.unique(out)) <= {0, 1, 2, 3}


def test_every_triple_uniform_quadratic():
    assert find_nonuniform_triple(2, 1, "quadratic") is None
    assert find_nonuniform_triple(2, 2, "quadratic") is None
    assert find_nonuniform_triple(3, 1, "quadratic") is None


def test_dependence_first_appears_at_four_tuples():
    t = find_nonuniform_tuple(2, 1, "quadratic", 4)
    assert t == (0, 1, 2, 3)
    assert not joint_is_uniform(2, 1, "quadratic", t)


def test_logarithmic_triples_dependent():
    # out[0] + out[3] == out[1] + out[2] (mod 1) is a 4-tuple relation; every
    # slot splits three distinct indices 1|2, so all triples are uniform
    assert find_nonuniform_tuple(2, 1, "logarithmic", 4) == (0, 1, 2, 3)
    assert find_nonuniform_triple(2, 1, "logarithmic") is None
    assert find_nonuniform_triple(2, 2, "logarithmic") is None
    assert find_nonuniform_triple(3, 1, "logarithmic") is None


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
        quadratic_outputs(left, right, 3),
        np.stack([quadratic_outputs(a, b, 3) for a, b in zip(left, right)]))
    g = rng.integers(0, 8, size=(5, 2, 3, 2))
    assert np.array_equal(logarithmic_outputs(g, 3),
                          np.stack([logarithmic_outputs(x, 3) for x in g]))
    # the exact checks enumerate exactly these per-realization outputs
    for n, q in ((2, 1), (3, 1)):
        gens = enumerate_numerators(2 * n, q)[:, :, None]
        quad = np.stack([quadratic_outputs(x[:n], x[n:], q)[:, 0]
                         for x in gens])
        assert np.array_equal(_all_outputs(n, q, "quadratic"), quad)
        log = np.stack([logarithmic_outputs(x.reshape(2, n, 1), q)[:, 0]
                        for x in gens])
        assert np.array_equal(_all_outputs(n, q, "logarithmic"), log)
