import math
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbmlmc.bitsource import BitSource
from rbmlmc.euler import (_SCAN_ELEMS, _SCAN_STEPS, _STRONG_NORMALS,
                          bit_increments, bit_vs_classical_sup_sq,
                          classical_increments, coarse_from_fine,
                          euler_paths_batch, gbm_strong_error_vs_exact,
                          quantized_increments_from_normals,
                          sup_distance_batch)
from rbmlmc.ledger import CostLedger
from rbmlmc.qnormal import normal_quantile
from rbmlmc.sde import SDEProblem, make_gbm, make_zero_noise, preset

Q3 = 0.674489750196082  # quantile(3/4)


def test_zero_increments_zero_drift_constant_path():
    p = make_zero_noise(x0=2.5)
    path = euler_paths_batch(p, np.zeros((1, 4, 1)))[0]
    assert np.all(path == 2.5)


def test_gbm_one_step_recursion():
    g = preset("gbm")
    v = 0.3
    path = euler_paths_batch(g, np.array([[v]])[None])[0]
    assert path[1, 0] == pytest.approx(1.0 * (1 + 0.05 + 0.2 * v))


def test_additive_two_step_recursion():
    p = preset("additive_noise")
    v1, v2 = 0.4, -0.2
    path = euler_paths_batch(p, np.array([[v1], [v2]])[None])[0]
    expected = (1.0 * (1 - 0.5) + v1) * (1 - 0.5) + v2
    assert path[2, 0] == pytest.approx(expected)


def test_classical_increment_statistics():
    rng = np.random.default_rng(0)
    v = classical_increments(rng, 4, 1, n=250000).ravel()
    n = v.size
    assert abs(v.mean()) <= 4 * 0.5 / math.sqrt(n)
    assert 0.24 <= v.var() <= 0.26
    pair = v.reshape(-1, 2).sum(axis=1)
    assert 0.48 <= pair.var() <= 0.52


def test_bit_increments_atoms_and_count():
    src = BitSource(0, 1)
    v = bit_increments(src, 4, 1, 1, n=1)
    assert src.bits_consumed == 4
    assert np.all(np.isin(np.round(np.abs(v) * 2, 9),
                          np.round(Q3, 9)))
    src = BitSource(0, 2)
    bit_increments(src, 8, 3, 2, n=1)
    assert src.bits_consumed == 48


def test_bit_increment_single_value():
    # m=1, q=2, bits (1,0) -> numerator 2 -> u = 0.625
    src = BitSource(0, 0)
    # find a seed/stream whose first two bits are (1,0)
    while True:
        probe = BitSource(src.seed, src.stream_id)
        if tuple(probe.draw_bits(2)) == (1, 0):
            break
        src = BitSource(src.seed, src.stream_id + 1)
    v = bit_increments(src, 1, 2, 1, n=1)
    assert v[0, 0, 0] == pytest.approx(normal_quantile(0.625), abs=1e-14)


def test_coupled_bit_pair_coarse_consistency_and_bits():
    g = preset("gbm")
    src = BitSource(3, 0)
    ledger = CostLedger()
    v = bit_increments(src, 8, 3, 1, n=1)
    fine = euler_paths_batch(g, v, ledger=ledger)
    coarse = euler_paths_batch(g, coarse_from_fine(v), ledger=ledger)
    assert src.bits_consumed == 24
    assert ledger.coeff_evals == 2 * 8 + 2 * 4
    # recompute the coarse path from the summed increments: bitwise identical
    v = bit_increments(BitSource(3, 0), 8, 3, 1, n=1)
    again = euler_paths_batch(g, coarse_from_fine(v))
    assert np.array_equal(again, coarse)
    assert fine.shape == (1, 9, 1) and coarse.shape == (1, 5, 1)
    assert np.all(fine[:, 0] == g.x0)
    assert np.all(coarse[:, 0] == g.x0)


def test_coupled_coarse_increment_values_m2_q1():
    # bits (1,1): both fine increments +Q3/sqrt(2) -> coarse sum 0.9538...
    v = np.array([[[Q3 / math.sqrt(2)]], [[Q3 / math.sqrt(2)]]]).reshape(1, 2, 1)
    assert coarse_from_fine(v)[0, 0, 0] == pytest.approx(0.9538725524089396,
                                                         abs=1e-12)
    # bits (1,0): symmetric atoms cancel
    v = np.array([[Q3], [-Q3]]).reshape(1, 2, 1) / math.sqrt(2)
    assert coarse_from_fine(v)[0, 0, 0] == pytest.approx(0.0, abs=1e-15)


def test_coupled_classical_pair_variance_band():
    p = preset("additive_noise")
    rng = np.random.default_rng(7)
    coarse_incs = []
    v = classical_increments(rng, 4, 1, n=250000)
    cv = coarse_from_fine(v).ravel()
    assert 0.49 <= cv.var() * 1 <= 0.51


def test_coupled_pair_degenerate_case():
    p = make_zero_noise()
    v = classical_increments(np.random.default_rng(0), 4, 1, n=1)
    assert np.all(euler_paths_batch(p, v) == p.x0[0])
    assert np.all(euler_paths_batch(p, coarse_from_fine(v)) == p.x0[0])


def test_martingale_mean_driftless_bit_scheme():
    p = make_gbm(0.0, 0.5, 1.0)
    src = BitSource(11, 0)
    v = bit_increments(src, 4, 3, 1, n=200000)
    term = euler_paths_batch(p, v)[:, -1, 0]
    sigma = term.std() / math.sqrt(term.size)
    assert abs(term.mean() - 1.0) <= 4 * sigma


def test_fine_coarse_gap_shrinks_with_m():
    g = preset("gbm")
    gaps = []
    for i, m in enumerate((8, 32, 128, 512)):
        rng = np.random.default_rng(100 + i)
        v = classical_increments(rng, m, 1, n=4000)
        fine = euler_paths_batch(g, v)
        coarse = euler_paths_batch(g, coarse_from_fine(v))
        gaps.append(np.mean((fine[:, -1, 0] - coarse[:, -1, 0]) ** 2))
    slope = np.polyfit(np.log2([8, 32, 128, 512]), np.log2(gaps), 1)[0]
    assert -1.4 <= slope <= -0.6  # squared strong order 1/2 in the step count


def test_sup_distance_identity_and_constants():
    x = np.array([[[0.0], [1.0]]])
    assert sup_distance_batch(x, x)[0] == 0.0
    zero = np.zeros((1, 3, 1))
    c = np.full((1, 3, 1), 0.7)
    assert sup_distance_batch(zero, c)[0] == pytest.approx(0.7)


def test_sup_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        sup_distance_batch(np.zeros((1, 2, 1)), np.zeros((1, 2, 2)))
    # b is a batch of a's shape or one point (r,), nothing in between
    a = np.zeros((2, 3, 2))
    for b in (np.zeros((3, 2)), np.zeros(3), np.zeros((1, 3, 2)),
              np.zeros(())):
        with pytest.raises(ValueError):
            sup_distance_batch(a, b)


def test_sup_distance_batch_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 9, 2))
    b = rng.normal(size=(5, 9, 2))
    batch = sup_distance_batch(a, b)
    for i in range(5):
        ref = max(math.dist(a[i, k], b[i, k]) for k in range(9))
        assert batch[i] == pytest.approx(ref)


def test_coupled_pair_requires_even_m():
    with pytest.raises(ValueError):
        coarse_from_fine(np.zeros((1, 3, 1)))


# Frozen copies of the two kernels as they were before they worked on
# component planes; the planes must give the same floats, bit for bit.
def _coarse_axis_sum(increments):
    m = increments.shape[-2]
    shape = increments.shape[:-2] + (m // 2, 2, increments.shape[-1])
    return increments.reshape(shape).sum(axis=-2)


def _sup_norm(a, b):
    return np.max(np.linalg.norm(a - b, axis=-1), axis=-1)


def _mixed(rng, shape):
    """Normals over 16 binades, and about one entry in eight special."""
    x = rng.standard_normal(shape) * np.exp2(rng.integers(-8, 8, shape))
    special = rng.random(shape) < 0.125
    x[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan],
                            size=int(special.sum()))
    return x


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.int64),
                                                 y.view(np.int64))


_LEADS = [(), (7,), (4, 5)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lead", _LEADS)
def test_coarse_from_fine_bitwise_equals_axis_sum(d, lead):
    v = _mixed(np.random.default_rng(d), lead + (16, d))
    v[..., :2, :] = -0.0  # the axis sum gives +0.0 here, not -0.0 + -0.0
    with np.errstate(invalid="ignore"):
        assert _same_bits(coarse_from_fine(v), _coarse_axis_sum(v))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("lead", _LEADS)
def test_sup_distance_bitwise_equals_norm(r, lead):
    rng = np.random.default_rng(10 + r)
    shape = lead + (9, r)
    # plain normals: comparable components, so a change in the order of
    # the sum of squares shows in the last bits
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    assert _same_bits(sup_distance_batch(a, b), _sup_norm(a, b))
    a, b = _mixed(rng, shape), _mixed(rng, shape)
    point = _mixed(rng, (r,))
    with np.errstate(invalid="ignore"):
        assert _same_bits(sup_distance_batch(a, b), _sup_norm(a, b))
        assert _same_bits(sup_distance_batch(a, point), _sup_norm(a, point))


# Frozen reference: the sequential Euler loop and the preset coefficient
# closures as they were before presets became affine coefficient data. The
# blocked scan reassociates floats and must match it to a tolerance.
_LIN2D_A = np.array([[-0.5, 0.1], [0.0, -0.3]])
_LIN2D_C = np.array([[0.3, 0.05], [0.0, 0.25]])


def _lin2d_diffusion(x):
    b = np.broadcast_to(_LIN2D_C, x.shape + (2,)).copy()
    b[..., 0, 0] += 0.1 * x[..., 0]
    b[..., 1, 1] += 0.1 * x[..., 1]
    return b


REFERENCE_COEFFS = {
    "gbm": (lambda x: 0.05 * x, lambda x: 0.2 * x[..., None]),
    "additive_noise": (lambda x: -x,
                       lambda x: np.ones(x.shape + (1,), dtype=float)),
    "linear2d": (lambda x: x @ _LIN2D_A.T, _lin2d_diffusion),
    "zero_noise": (np.zeros_like,
                   lambda x: np.zeros(x.shape + (1,), dtype=float)),
}
ALL_PROBLEMS = ["gbm", "additive_noise", "linear2d", "zero_noise"]


def _problem(name):
    return make_zero_noise() if name == "zero_noise" else preset(name)


def reference_paths(p, increments):
    drift, diffusion = REFERENCE_COEFFS[p.label]
    n, m, _ = increments.shape
    out = np.empty((n, m + 1, p.r), dtype=float)
    x = np.broadcast_to(p.x0, (n, p.r)).copy()
    out[:, 0, :] = x
    for k in range(m):
        a = drift(x)
        b = diffusion(x)
        x = x + a / m + np.einsum("nrd,nd->nr", b, increments[:, k, :])
        out[:, k + 1, :] = x
    return out


def _increments(p, n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, m, p.d)) / math.sqrt(m)


# (n, m): one time chunk for m <= _SCAN_STEPS, several for larger m, m that
# are no power of two, and (3000, 256), a batch of several row blocks.
SCAN_SHAPES = [(1 + k % 7, 2 ** k) for k in range(15)] + [
    (8, 1), (16, 2), (3, 3), (24, 3), (1, 5), (40, 5), (17, 4096),
    (33, 3000), (9, 2 ** 14), (1, 12345), (9, 1), (17, 2), (25, 3), (41, 5),
    (200, 16), (600, 64), (3000, 256)]


@pytest.mark.parametrize("name", ALL_PROBLEMS)
def test_scan_matches_sequential_reference(name):
    p = _problem(name)
    for i, (n, m) in enumerate(SCAN_SHAPES):
        v = _increments(p, n, m, 1000 + i)
        got = euler_paths_batch(p, v)
        ref = reference_paths(p, v)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(np.abs(ref), 1))
    # the shapes exercise several chunks with a short tail, and more than
    # two row blocks
    assert 3000 > _SCAN_STEPS and 12345 % _SCAN_STEPS
    assert 3000 > 2 * (_SCAN_ELEMS // 256)


# (n, m, slices): batches of several row blocks, or of several time chunks
WIDTH_CASES = [(3000, 256, [(0, 1), (5, 1200), (2999, 3000)]),
               (33, 3000, [(0, 1), (3, 20), (32, 33)]),
               (9, 2 ** 14, [(0, 1), (2, 7), (8, 9)])]


@pytest.mark.parametrize("name", ALL_PROBLEMS)
def test_sub_batch_bitwise_equal_full_batch(name):
    # a path's floats do not depend on the batch it is run in
    p = _problem(name)
    for n, m, slices in WIDTH_CASES:
        v = _increments(p, n, m, 3000 + m)
        full = euler_paths_batch(p, v)
        for i, j in slices:
            part = euler_paths_batch(p, v[i:j])
            assert np.array_equal(full[i:j].view(np.int64),
                                  part.view(np.int64))


@pytest.mark.parametrize("n, m", [(3, 1000), (5000, 4)])
def test_zero_noise_exact_and_coeff_evals_on_both_paths(n, m):
    p = make_zero_noise(x0=-1.75)
    ledger = CostLedger()
    paths = euler_paths_batch(p, _increments(p, n, m, 7), ledger)
    assert np.all(paths == -1.75)
    assert ledger.coeff_evals == 2 * n * m


def test_strong_error_memory_bounded_in_reps():
    # The replications run in fixed blocks: at reps=2000, m=1024 every
    # (reps, 16 m + 1) array would be 262 MB.
    tracemalloc.start()
    try:
        msd = gbm_strong_error_vs_exact(make_gbm(0.05, 0.2, 1.0), 1024,
                                        2000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < msd < 1e-3
    assert peak < 64 * 2 ** 20


def test_strong_error_vs_exact_needs_a_gbm_problem():
    # the closed form reads mu, sigma, x0 of a scalar GBM: an OU problem used
    # to return a number (0.9158) and linear2d to fail inside the Euler scan
    for name in ("additive_noise", "linear2d"):
        with pytest.raises(ValueError, match=name):
            gbm_strong_error_vs_exact(preset(name), 16, 50, 0)
    assert gbm_strong_error_vs_exact(make_zero_noise(), 16, 50, 0) == 0.0


# Frozen copy of the dense affine scan, as it was before the scan skipped the
# terms that are identically zero: every entry of M_k and every row of c_k,
# summed over all components. The structural-zero scan must give its floats.
def _dense_scan(p, increments, out, chunk):
    n, m, d = increments.shape
    comps = range(p.r)
    I_A = (np.eye(p.r) + p.A / m)[:, :, None, None, None]
    a0 = (p.a0 / m)[:, None, None, None]
    for k0 in range(0, m, chunk):
        t = min(chunk, m - k0)
        s = 1 << (t.bit_length() // 2)
        nb = -(-t // s)
        dw = np.zeros((n, nb * s, d))
        dw[:, :t] = increments[:, k0:k0 + t]
        dw = dw.reshape(n, nb, s, d).transpose(3, 2, 0, 1).copy()
        M = I_A + reduce(add, (p.B[:, j, :, None, None, None] * dw[j]
                                for j in range(d)))
        c = a0 + reduce(add, (p.b0[:, j, None, None, None] * dw[j]
                               for j in range(d)))
        for j in range(1, s):
            mj = M[:, :, j]
            c[:, j] += reduce(add, (mj[:, k] * c[k, j - 1] for k in comps))
            M[:, :, j] = reduce(add, (mj[:, k, None] * M[k, :, j - 1]
                                      for k in comps))
        xs = np.empty((p.r, n, nb))
        xs[:, :, 0] = out[:, k0].T
        for b in range(1, nb):
            xs[:, :, b] = c[:, -1, :, b - 1] + reduce(add, (
                M[:, k, -1, :, b - 1] * xs[k, :, b - 1] for k in comps))
        x = c + reduce(add, (M[:, k] * xs[k] for k in comps))
        out[:, k0 + 1:k0 + 1 + t] = \
            x.transpose(2, 3, 1, 0).reshape(n, nb * s, p.r)[:, :t]


def _dense_paths(p, increments):
    n, m, _ = increments.shape
    out = np.empty((n, m + 1, p.r))
    out[:, 0, :] = p.x0
    chunk = max(1, min(m, _SCAN_STEPS))
    blocks = -(-n // (_SCAN_ELEMS // chunk))
    for i in range(blocks):
        rows = slice(i * n // blocks, (i + 1) * n // blocks)
        _dense_scan(p, increments[rows], out[rows], chunk)
    return out


def _sequential_paths(p, increments):
    """The Euler loop on the problem's own drift and diffusion."""
    n, m, _ = increments.shape
    out = np.empty((n, m + 1, p.r))
    out[:, 0] = p.x0
    for k in range(m):
        x = out[:, k]
        out[:, k + 1] = x + p.drift(x) / m + np.einsum(
            "nrd,nd->nr", p.diffusion(x), increments[:, k])
    return out


def _equal_up_to_zero_sign(got, ref):
    """Bitwise equal where ref is finite, but for the sign of a zero."""
    finite = np.isfinite(ref)
    return _same_bits((got + 0.0)[finite], (ref + 0.0)[finite])


def _problem_from(label, A, a0, B, b0, x0):
    return SDEProblem(label=label, r=len(x0), d=b0.shape[1], x0=x0, A=A,
                      a0=a0, B=B, b0=b0)


def _sparse(shape):
    """Arrays with a random zero pattern and nonzero entries in [-1, 1]."""
    entry = st.one_of(st.just(0.0), st.floats(-1, 1).filter(bool))
    size = int(np.prod(shape))
    return st.lists(entry, min_size=size, max_size=size).map(
        lambda v: np.array(v).reshape(shape))


@st.composite
def _affine_problems(draw):
    r, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x0 = np.array(draw(st.lists(st.floats(-2, 2).filter(bool),
                                min_size=r, max_size=r)))
    return _problem_from("random", draw(_sparse((r, r))),
                         draw(_sparse((r,))), draw(_sparse((r, d, r))),
                         draw(_sparse((r, d))), x0)


@settings(max_examples=120, deadline=None)
@given(p=_affine_problems(), shape=st.sampled_from(SCAN_SHAPES),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scan_bitwise_equals_frozen_dense_scan(p, shape, seed):
    v = _increments(p, *shape, seed)
    got, ref = euler_paths_batch(p, v), _dense_paths(p, v)
    assert got.shape == ref.shape
    assert _equal_up_to_zero_sign(got, ref)


def _chain(d=2):
    """r = 3: upper-bidiagonal A, noise only in B[2, :, 2], b0 only in row
    2. M's pattern fills in at (0, 2) only through products, and c reaches
    rows 1 and 0 only through c <- M c + c."""
    A = np.array([[-0.3, 0.7, 0.0], [0.0, -0.2, 0.5], [0.0, 0.0, -0.4]])
    B = np.zeros((3, d, 3))
    B[2, :, 2] = 0.3 / np.arange(1, d + 1)
    b0 = np.zeros((3, d))
    b0[2] = 0.2 * np.arange(1, d + 1)
    return _problem_from("chain", A, np.zeros(3), B, b0,
                         np.array([1.0, -0.5, 0.25]))


@pytest.mark.parametrize("d", [1, 2])
def test_chain_problem_fill_in(d):
    p = _chain(d)
    for i, (n, m) in enumerate(SCAN_SHAPES):
        v = _increments(p, n, m, 5000 + i)
        got = euler_paths_batch(p, v)
        assert _same_bits(got, _dense_paths(p, v))
        ref = _sequential_paths(p, v)
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(np.abs(ref), 1))
    # every row moves: the fill-in reaches row 0 through row 1
    assert np.all(got[:, -1] != p.x0)


def test_scan_zero_sign_and_nonfinite_differences():
    # An exact-zero state may change sign: the dense scan added c = +0.0.
    p = make_zero_noise(x0=-0.0)
    v = np.zeros((1, 4, 1))
    got, dense = euler_paths_batch(p, v), _dense_paths(p, v)
    assert np.array_equal(got, dense)            # -0.0 == 0.0
    assert np.all(np.signbit(got)) and not np.any(np.signbit(dense[:, 1:]))
    # A structurally absent term gave 0 * inf = nan; here it is not formed.
    g = make_gbm()
    v = np.array([[[np.inf], [0.1]]])
    with np.errstate(invalid="ignore"):
        got, dense = euler_paths_batch(g, v), _dense_paths(g, v)
    assert np.all(np.isinf(got[0, 1:])) and np.all(np.isnan(dense[0, 1:]))


# Frozen copy of the strong-error quantization kernel as it was before it
# ran in blocks of replications: every array at once, one mean.
def _one_batch_sup_sq(p, m, q, reps, seed):
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, q], dtype=np.uint64)))
    y = rng.standard_normal((reps, m, p.d))
    v_c = y / math.sqrt(m)
    v_bit = quantized_increments_from_normals(y, m, q)
    a = euler_paths_batch(p, v_c)
    b = euler_paths_batch(p, v_bit)
    return float(np.mean(sup_distance_batch(a, b) ** 2))


@pytest.mark.parametrize("name, m, reps", [
    ("gbm", 4096, 1), ("gbm", 4096, 64), ("gbm", 4096, 65),
    ("gbm", 4096, 256), ("gbm", 4096, 257), ("gbm", 4096, 600),
    ("linear2d", 2048, 1), ("linear2d", 2048, 64), ("linear2d", 2048, 65),
    ("linear2d", 2048, 513), ("linear2d", 100, 777),
    ("linear2d", 100, 1311)])
def test_strong_quantization_blocks_equal_one_batch(name, m, reps):
    # a block holds 2^18 / (m d) replications: 64 at m = 4096, d = 1 and at
    # m = 2048, d = 2; 1310 at m = 100, d = 2
    assert _STRONG_NORMALS == 1 << 18
    p = preset(name)
    for q in (2, 5):
        got = bit_vs_classical_sup_sq(p, m, q, reps, seed=9)
        assert got == _one_batch_sup_sq(p, m, q, reps, seed=9)


def test_strong_quantization_memory_bounded_in_reps():
    # At reps=16384, m=256 every (reps, m) array is 32 MiB; the blocks keep
    # the peak near a few 2 MiB arrays (13.2 MiB). The warm-up call loads
    # scipy.special and builds the q = 4 cell table outside the trace.
    bit_vs_classical_sup_sq(preset("gbm"), 256, 4, 1, 0)
    tracemalloc.start()
    try:
        msd = bit_vs_classical_sup_sq(preset("gbm"), 256, 4, 16384, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < msd < 1e-2
    assert peak < 16 * 2 ** 20
