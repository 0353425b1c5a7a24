import csv
import dataclasses
import io
import math

import numpy as np
import pytest

from rbmlmc.bakhvalov import logarithmic_outputs, quadratic_outputs
from rbmlmc.bitsource import BitSource
from rbmlmc import mlmc
from rbmlmc.cli import build_parser
from rbmlmc.functionals import make_constant, preset_functional
from rbmlmc.ledger import CostLedger
from rbmlmc.mlmc import (MLMCParams, _level_increments, bit_count_formula,
                         coin_count_formula, info_cost_formula, params_for_eps,
                         run, work_model)
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
    # derived from N alone, whatever the variant; N_l = 1 is one generator
    hand = MLMCParams(variant="bit", L=2, N=(5, 1, 3), q=5)
    assert hand.n == (3, 1, 2) and hand.nhat == (3.0, 0.5, 2.0)


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


def test_schedule_L_at_dyadic_eps_is_the_integer_formula():
    # eps = 2^-k: log2(eps^-2) = t = 2k, and ceil(t + log2 t) in integers
    for k in range(2, 512):
        t = 2 * k
        assert params_for_eps(2.0 ** -k, "bit").L == t + (t - 1).bit_length()
    with pytest.raises(ValueError, match="exceeds the float range"):
        params_for_eps(2.0 ** -512, "bit")


def test_params_validation():
    with pytest.raises(ValueError):
        MLMCParams(variant="bit", L=1, N=(4, 2))  # missing q
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


def _ledger_and_formulas(p, params, seed):
    """A run's ledger and the formulas' counts at the problem's d."""
    rep = run(p, preset_functional("terminal"), params, seed=seed)
    want = {"bit_count": bit_count_formula(params, p.d),
            "coin_count": coin_count_formula(params, p.d),
            "info_cost": info_cost_formula(params)}
    return rep, {k: getattr(rep.ledger, k) for k in want}, want


@pytest.mark.parametrize("sde_name", ["gbm", "linear2d"])
@pytest.mark.parametrize("variant", list(mlmc.VARIANTS))
def test_every_row_ledger_equals_formulas(variant, sde_name):
    # N_1 = 1: the single-replication level goes through the same row
    q = None if mlmc.VARIANTS[variant].normals else 5
    params = MLMCParams(variant=variant, L=2, N=(5, 1, 3), q=q)
    p = preset(sde_name)
    _, got, want = _ledger_and_formulas(p, params, 4)
    assert got == want
    assert work_model(params, p.d) == sum(got.values())


def test_a_new_variant_is_one_row(monkeypatch):
    monkeypatch.setitem(mlmc.VARIANTS, "bbit_copy", mlmc.VARIANTS["bbit"])
    p = preset("linear2d")
    params = params_for_eps(EPS, "bbit")
    copy = params_for_eps(EPS, "bbit_copy")
    assert copy == dataclasses.replace(params, variant="bbit_copy")
    a = run(p, preset_functional("terminal"), params, seed=6)
    b, got, want = _ledger_and_formulas(p, copy, 6)
    assert b.estimate == a.estimate and b.levels == a.levels
    assert b.ledger == a.ledger and got == want


def test_work_model_ordering():
    for eps in (0.25, 0.125):
        w = {v: work_model(params_for_eps(eps, v))
             for v in ("classical", "bit", "bbit", "bbit_log")}
        assert w["bbit"] <= w["bit"]
        assert w["classical"] <= w["bbit"]
        assert w["classical"] <= w["bbit_log"]


def test_run_deterministic_and_seed_sensitive():
    params = MLMCParams(variant="bbit", L=2, N=(9, 4, 4), q=4)
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


def _bitcount_bound_check(eps_values, capsys):
    """cost-report on eps_values: its data rows and its two ratio bands."""
    args = build_parser().parse_args(
        ["cost-report", "--eps-grid", ",".join(map(repr, eps_values)),
         "--out", "-"])
    assert args.func(args) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    bands = {r[0]: float(r[1]) for r in rows[-2:]}
    return rows[1:-2], bands


def test_bitcount_bound_check_bands(capsys):
    rows, bands = _bitcount_bound_check([2.0 ** -k for k in range(2, 9)],
                                        capsys)
    assert len(rows) == 7
    assert bands["band_bbit"] < 4.0
    assert bands["band_bbit_log"] < 4.0
    for row in rows:
        bits_bit, bits_bbit, bits_bbit_log = map(int, row[3:6])
        assert bits_bbit < bits_bit
        assert bits_bbit_log < bits_bbit


def test_bitcount_bound_check_needs_grid(capsys):
    with pytest.raises(ValueError):
        _bitcount_bound_check([0.25, 0.125], capsys)
    with pytest.raises(ValueError):
        _bitcount_bound_check([0.9, 0.25, 0.125, 0.0625, 0.03125], capsys)


def _per_step_increments(p, params, level, seed):
    """Reference: one combiner call per time index, stacked on axis 1, and
    the quantile formula; returns the increments and the bits drawn."""
    m, N, q, d = 1 << level, params.N[level], params.q, p.d
    src = BitSource(seed, stream_id=level)
    if params.variant == "bbit":
        n = params.n[level]
        g = src.draw_dyadic_numerators(q, (m, 2 * n, d))
        nums = np.stack([quadratic_outputs(g[k].reshape(2, n, d), q)[:N]
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
    MLMCParams(variant="bbit", L=2, N=(5, 1, 3), q=5),
    MLMCParams(variant="bbit_log", L=2, N=(5, 1, 3), q=5)],
    ids=lambda p: p.variant)
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
