import math

import numpy as np
import pytest

from rbmlmc.bakhvalov import logarithmic_outputs, quadratic_outputs
from rbmlmc.bitsource import BitSource
from rbmlmc.functionals import make_constant, preset_functional
from rbmlmc.ledger import CostLedger
from rbmlmc.mlmc import (MLMCParams, _level_increments, bit_count_formula,
                         bitcount_bound_check, coin_count_formula,
                         info_cost_formula, params_for_eps, run, work_model)
from rbmlmc.qnormal import normal_quantile
from rbmlmc.sde import make_gbm, make_zero_noise, preset

EPS = 0.25  # eps^-2 = 16, log2 = 4: L = 4 + ceil(log2 4) = 6


def test_schedule_eps_quarter():
    p = params_for_eps(EPS, "bit")
    assert p.L == 6 and p.q == 6
    assert p.N == (112, 56, 56, 42, 28, 18, 11)


def test_schedule_generator_counts():
    p = params_for_eps(EPS, "bbit")
    assert p.n == tuple(int(np.ceil(np.sqrt(N))) for N in p.N)
    assert p.n[3] == 7
    pl = params_for_eps(EPS, "bbit_log")
    assert pl.nhat == (7.0, 6.0, 6.0, 6.0, 5.0, 5.0, 4.0)


def test_schedule_monotone_in_eps():
    for variant in ("classical", "bit"):
        a = params_for_eps(0.25, variant)
        b = params_for_eps(0.125, variant)
        assert b.L > a.L
        assert all(nb >= na for na, nb in zip(a.N, b.N))


def test_schedule_rejects_bad_eps():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            params_for_eps(bad, "bit")
    with pytest.raises(ValueError):
        params_for_eps(0.25, "tetradic")


def test_params_validation():
    with pytest.raises(ValueError):
        MLMCParams(variant="bit", L=1, N=(4, 2))  # missing q
    with pytest.raises(ValueError):
        MLMCParams(variant="bbit", L=0, N=(5,), q=2, n=(2,))  # 2^2 < 5
    with pytest.raises(ValueError):
        MLMCParams(variant="bbit_log", L=0, N=(5,), q=2, nhat=(2.0,))
    with pytest.raises(ValueError):
        MLMCParams(variant="classical", L=1, N=(4,))


def test_cost_formulas_eps_quarter():
    d = 1
    bit = bit_count_formula(params_for_eps(EPS, "bit"), d)
    bbit = bit_count_formula(params_for_eps(EPS, "bbit"), d)
    blog = bit_count_formula(params_for_eps(EPS, "bbit_log"), d)
    assert (bit, bbit, blog) == (15072, 7524, 7044)
    # level 3 alone: bit 42*8*6 = 2016 vs bbit 2*7*8*6 = 672
    assert coin_count_formula(params_for_eps(EPS, "classical"), d) == sum(
        N << l for l, N in enumerate(params_for_eps(EPS, "classical").N))
    assert bit_count_formula(params_for_eps(EPS, "classical")) == 0


def test_info_cost_formula_matches_run():
    params = MLMCParams(variant="bit", L=2, N=(8, 4, 2), q=3)
    rep = run(make_gbm(), preset_functional("terminal"), params, seed=5)
    assert rep.ledger.info_cost == info_cost_formula(params)
    assert rep.ledger.bit_count == bit_count_formula(params, d=1)


def test_work_model_ordering():
    for eps in (0.25, 0.125):
        w = {v: work_model(params_for_eps(eps, v))
             for v in ("classical", "bit", "bbit", "bbit_log")}
        assert w["bbit"] <= w["bit"]
        assert w["classical"] <= w["bbit"]
        assert w["classical"] <= w["bbit_log"]


def test_run_deterministic_and_seed_sensitive():
    params = MLMCParams(variant="bbit", L=2, N=(9, 4, 4), q=4, n=(3, 2, 2))
    f = preset_functional("terminal")
    p = make_gbm()
    a = run(p, f, params, seed=1)
    b = run(p, f, params, seed=1)
    assert a.estimate == b.estimate
    assert [l.mean for l in a.levels] == [l.mean for l in b.levels]
    c = run(p, f, params, seed=2)
    assert c.estimate != a.estimate


def test_constant_functional_telescopes_exactly():
    # every correction level has f(fine) - f(coarse) == 0 identically
    f = make_constant(3.0)
    for variant in ("classical", "bit", "bbit", "bbit_log"):
        params = params_for_eps(0.25, variant)
        rep = run(make_gbm(), f, params, seed=7)
        assert rep.estimate == 3.0
        for lev in rep.levels[1:]:
            assert lev.mean == 0.0 and lev.variance == 0.0


def test_zero_noise_variants_agree_exactly():
    # deterministic dynamics: estimator value is increment-independent
    f = preset_functional("terminal")
    p = make_zero_noise()
    params = {v: params_for_eps(0.25, v) for v in ("classical", "bit")}
    a = run(p, f, params["classical"], seed=0)
    b = run(p, f, params["bit"], seed=123)
    assert a.estimate == pytest.approx(b.estimate, abs=1e-14)
    for lev in b.levels[1:]:
        assert lev.variance == 0.0


def test_estimate_near_truth_gbm():
    # E[X_T] = x0 exp(mu) = 1.0512710963760241 for the gbm preset
    rep = run(make_gbm(), preset_functional("terminal"),
              params_for_eps(0.0625, "classical"), seed=3)
    assert abs(rep.estimate - 1.0512710963760241) < 3 * 0.0625


def test_level_variance_decays():
    rep = run(preset("gbm"), preset_functional("terminal"),
              params_for_eps(0.0625, "bit"), seed=11)
    v = [l.variance for l in rep.levels[1:]]
    assert v[0] > v[-1]


def test_bitcount_bound_check_bands():
    table = bitcount_bound_check([2.0 ** -k for k in range(2, 9)])
    assert table.band_bbit < 4.0
    assert table.band_bbit_log < 4.0
    for row in table.rows:
        assert row.bits_bbit < row.bits_bit
        assert row.bits_bbit_log < row.bits_bbit


def test_bitcount_bound_check_needs_grid():
    with pytest.raises(ValueError):
        bitcount_bound_check([0.25, 0.125])
    with pytest.raises(ValueError):
        bitcount_bound_check([0.9, 0.25, 0.125, 0.0625, 0.03125])


def _per_step_increments(p, params, level, seed):
    """Reference: one combiner call per time index, stacked on axis 1, and
    the quantile formula; returns the increments and the bits drawn."""
    m, N, q, d = 1 << level, params.N[level], params.q, p.d
    src = BitSource(seed, stream_id=level)
    if params.variant == "bbit":
        n = params.n[level]
        g = src.draw_dyadic_numerators(q, (m, 2 * n, d))
        nums = np.stack([quadratic_outputs(g[k, :n], g[k, n:], q)[:N]
                         for k in range(m)], axis=1)
    elif N == 1:
        nums = src.draw_dyadic_numerators(q, (1, m, d))
    else:
        g = src.draw_dyadic_numerators(q, (m, 2, int(params.nhat[level]), d))
        nums = np.stack([logarithmic_outputs(g[k], q)[:N]
                         for k in range(m)], axis=1)
    v = normal_quantile((nums + 0.5) / 2.0 ** q) / math.sqrt(m)
    return v, src.bits_consumed


@pytest.mark.parametrize("params", [
    params_for_eps(0.125, "bbit"), params_for_eps(0.125, "bbit_log"),
    MLMCParams(variant="bbit", L=2, N=(5, 1, 3), q=5, n=(3, 1, 2)),
    MLMCParams(variant="bbit_log", L=2, N=(5, 1, 3), q=5,
               nhat=(3.0, 0.5, 2.0))], ids=lambda p: p.variant)
def test_one_combine_per_level_matches_per_step_combines(params):
    # time is folded into the coordinate axis (d = 2 here), so one combiner
    # call per level must give the per-time-index outputs bit for bit
    p = preset("linear2d")
    for level in range(params.L + 1):
        ledger = CostLedger()
        got = _level_increments(p, params, level, 7, ledger)
        want, bits = _per_step_increments(p, params, level, 7)
        assert got.shape == (params.N[level], 1 << level, 2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert ledger.bit_count == bits
