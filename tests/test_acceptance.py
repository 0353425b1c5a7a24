"""Acceptance suite: one test and one pass/fail line per criterion.

Each criterion prints exactly one summary line of the form

    [criterion N] <name>: PASS|FAIL (<detail>)

before asserting, so the verdicts survive in captured output either way.
"""

import math
import time

import numpy as np
import pytest

from rbmlmc.bakhvalov import (exact_pairwise_check, find_nonuniform_tuple,
                              joint_is_uniform)
from rbmlmc.bitsource import BitSource
from rbmlmc.cli import main as cli_main
from rbmlmc.euler import (bit_increments, bit_vs_classical_sup_sq,
                          coarse_from_fine, euler_paths_batch)
from rbmlmc.functionals import make_constant, preset_functional
from rbmlmc.mlmc import (bit_count_formula, coin_count_formula,
                         info_cost_formula, params_for_eps, run, work_model)
from rbmlmc.oracle import exact_level_values
from rbmlmc.sde import make_gbm, preset

GBM_TERMINAL_MEAN = 1.0512710963760241  # x0 * exp(mu) for the gbm preset


def _verdict(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _fit_slope(x, y):
    return float(np.polyfit(x, y, 1)[0])


# --------------------------------------------------------------------------
# 1. Oracle equivalence: exact enumeration vs 10^6-replication Monte Carlo.

_ORACLE_MATRIX = [
    # (kind, sde, functional, m, q); all satisfy m * d * q <= 16
    ("expectation", "gbm", "terminal", 1, 1),
    ("expectation", "gbm", "terminal", 2, 2),
    ("expectation", "gbm", "terminal", 4, 2),
    ("expectation", "gbm", "running_max", 2, 2),
    ("expectation", "gbm", "running_max", 4, 2),
    ("expectation", "gbm", "time_average", 2, 4),
    ("expectation", "gbm", "time_average", 4, 2),
    ("expectation", "additive_noise", "terminal", 2, 4),
    ("expectation", "additive_noise", "running_max", 4, 2),
    ("expectation", "additive_noise", "time_average", 2, 2),
    ("level-difference", "gbm", "terminal", 2, 2),
    ("level-difference", "gbm", "terminal", 4, 2),
    ("level-difference", "gbm", "running_max", 4, 4),
    ("level-difference", "additive_noise", "time_average", 4, 2),
]


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    reps = 1_000_000
    worst = 0.0
    for idx, (kind, sde_name, fname, m, q) in enumerate(_ORACLE_MATRIX):
        p = preset(sde_name)
        f = preset_functional(fname, x0=p.x0)
        mean, var = exact_level_values(p, f, m, q,
                                       kind == "level-difference")
        src = BitSource(99, stream_id=idx)
        v = bit_increments(src, m, q, p.d, n=reps)
        vals = f.eval_batch(euler_paths_batch(p, v))
        if kind == "level-difference":
            vals = vals - f.eval_batch(
                euler_paths_batch(p, coarse_from_fine(v)))
        z = abs(float(np.mean(vals)) - mean) / math.sqrt(var / reps)
        worst = max(worst, z)
    elapsed = time.perf_counter() - t0
    ok = worst < 4.0 and elapsed < 120.0
    _verdict(1, "oracle equivalence",
             ok, f"max |z| = {worst:.2f} over {len(_ORACLE_MATRIX)} cases, "
                 f"{elapsed:.1f} s")
    assert worst < 4.0
    assert elapsed < 120.0


# --------------------------------------------------------------------------
# 2. Bakhvalov exactness plus the dependence negative control: the exact
#    enumeration must find the family's dependence at the smallest size where
#    it exists. Every triple of the quadratic family is jointly uniform (three
#    distinct cells of the (j1, j2) grid always leave some generator alone in
#    a row or column), so the control asserts that no dependent triple exists
#    and that the first dependent set is the 4-tuple
#    out(1,1) - out(1,2) - out(2,1) + out(2,2) == 0, i.e. indices (0, 1, 2, 3).

def test_criterion_2_bakhvalov_exactness():
    t0 = time.perf_counter()
    checks = [("quadratic", 2, 1), ("quadratic", 2, 2), ("quadratic", 3, 1),
              ("logarithmic", 2, 1), ("logarithmic", 3, 1)]
    exact_ok = all(exact_pairwise_check(n, q, v).passed for v, n, q in checks)
    quad = find_nonuniform_tuple(2, 1, "quadratic", 4)
    quad_uniform = joint_is_uniform(2, 1, "quadratic", (0, 1, 2, 3))
    triple = find_nonuniform_tuple(2, 1, "quadratic", 3)
    elapsed = time.perf_counter() - t0
    ok = (exact_ok and quad == (0, 1, 2, 3) and quad_uniform is False
          and triple is None and elapsed < 10.0)
    _verdict(2, "Bakhvalov exactness",
             ok, f"pairwise checks {'passed' if exact_ok else 'FAILED'}; "
                 f"first non-uniform 4-tuple = {quad}; "
                 f"non-uniform triple = {triple}; {elapsed:.1f} s")
    assert exact_ok
    assert elapsed < 10.0
    assert quad == (0, 1, 2, 3)
    assert quad_uniform is False
    assert triple is None


# --------------------------------------------------------------------------
# 3. Quantization strong-error rate under the common-randomness coupling.

def test_criterion_3_quantization_rate():
    t0 = time.perf_counter()
    qs = list(range(2, 10))
    msd = bit_vs_classical_sup_sq(preset("gbm"), 256, qs, 10_000, seed=123)
    decreasing = all(a > b for a, b in zip(msd, msd[1:]))
    slope = _fit_slope(qs, np.log2(msd))
    elapsed = time.perf_counter() - t0
    ok = decreasing and -1.35 <= slope <= -0.75 and elapsed < 300.0
    _verdict(3, "quantization strong-error rate",
             ok, f"log2-slope = {slope:.3f}, strictly decreasing = "
                 f"{decreasing}, {elapsed:.1f} s")
    assert decreasing
    assert -1.35 <= slope <= -0.75
    assert elapsed < 300.0


# --------------------------------------------------------------------------
# 4. Bias target for the pairwise-independent estimator.

def test_criterion_4_bias_target():
    t0 = time.perf_counter()
    p = make_gbm()
    f = preset_functional("terminal")
    eps_grid = [2.0 ** -k for k in range(2, 6)]
    rms = []
    for eps in eps_grid:
        params = params_for_eps(eps, "bbit")
        errs = [run(p, f, params, seed).estimate - GBM_TERMINAL_MEAN
                for seed in range(20)]
        rms.append(float(np.sqrt(np.mean(np.square(errs)))))
    c_fit = max(r / e for r, e in zip(rms, eps_grid))
    slope = _fit_slope(np.log2(eps_grid), np.log2(rms))
    within = all(r <= c_fit * e * (1 + 1e-12)
                 for r, e in zip(rms, eps_grid))
    elapsed = time.perf_counter() - t0
    ok = within and 0.7 <= slope <= 1.3 and elapsed < 900.0
    _verdict(4, "bias target",
             ok, f"fitted C = {c_fit:.3f}, log2-slope = {slope:.3f}, "
                 f"{elapsed:.1f} s")
    assert within
    assert 0.7 <= slope <= 1.3
    assert elapsed < 900.0


# --------------------------------------------------------------------------
# 5. Cost-ledger exactness: measured counters equal the closed-form sums.

def test_criterion_5_cost_ledger_exactness():
    t0 = time.perf_counter()
    d = 1
    formula_ok = True
    for eps in [2.0 ** -k for k in range(2, 9)]:
        pb = params_for_eps(eps, "bit")
        pq = params_for_eps(eps, "bbit")
        pl = params_for_eps(eps, "bbit_log")
        formula_ok &= bit_count_formula(pb, d) == sum(
            N * (1 << l) * d * pb.q for l, N in enumerate(pb.N))
        # 2 n_l generators, n_l = ceil(sqrt(N_l)), and 2 nhat_l, nhat_l =
        # ceil(log2 N_l), but one at N_l = 1
        formula_ok &= bit_count_formula(pq, d) == sum(
            2 * math.ceil(math.sqrt(N)) * (1 << l) * pq.q * d
            for l, N in enumerate(pq.N))
        formula_ok &= bit_count_formula(pl, d) == d * sum(
            (1 << l) * pl.q * (2 * math.ceil(math.log2(N)) if N > 1 else 1)
            for l, N in enumerate(pl.N))
    # measured counters from actual runs, at the grid points where a full
    # simulation is cheap (the formula side above covers the whole grid)
    measured_ok = True
    f = preset_functional("terminal")
    p = make_gbm()
    for eps in (0.25, 0.125, 0.0625):
        for variant in ("bit", "bbit", "bbit_log"):
            params = params_for_eps(eps, variant)
            rep = run(p, f, params, seed=1)
            measured_ok &= rep.ledger.bit_count == bit_count_formula(params, d)
            measured_ok &= rep.ledger.info_cost == info_cost_formula(params)
        pc = params_for_eps(eps, "classical")
        repc = run(p, f, pc, seed=1)
        measured_ok &= repc.ledger.coin_count == coin_count_formula(pc, d)
        measured_ok &= repc.ledger.info_cost == info_cost_formula(pc)
        measured_ok &= repc.ledger.bit_count == 0
    elapsed = time.perf_counter() - t0
    ok = formula_ok and measured_ok and elapsed < 60.0
    _verdict(5, "cost-ledger exactness",
             ok, f"formulas exact on 7-point grid, measured counters exact "
                 f"at 3 grid points x 4 variants, {elapsed:.1f} s")
    assert formula_ok
    assert measured_ok
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 6. Asymptotic scaling bands over a 9-point dyadic grid.

def test_criterion_6_scaling_bands():
    t0 = time.perf_counter()
    grid = [2.0 ** -k for k in range(2, 11)]

    def band(vals):
        return max(vals) / min(vals)

    bands = {
        "classical cost / eps^-2 log^3": band([
            work_model(params_for_eps(e, "classical")) * e * e
            / math.log2(1 / e) ** 3 for e in grid]),
        "bbit cost / eps^-2 log^3": band([
            work_model(params_for_eps(e, "bbit")) * e * e
            / math.log2(1 / e) ** 3 for e in grid]),
        "bit cost / eps^-2 log^4": band([
            work_model(params_for_eps(e, "bit")) * e * e
            / math.log2(1 / e) ** 4 for e in grid]),
        "bbit bits / eps^-2 log^2.5": band([
            bit_count_formula(params_for_eps(e, "bbit")) * e * e
            / math.log2(1 / e) ** 2.5 for e in grid]),
        "bbit_log bits / eps^-2 log^2 loglog": band([
            bit_count_formula(params_for_eps(e, "bbit_log")) * e * e
            / (math.log2(1 / e) ** 2 * math.log2(math.log2(1 / e)))
            for e in grid]),
    }
    elapsed = time.perf_counter() - t0
    ok = all(b <= 4.0 for b in bands.values()) and elapsed < 1.0
    worst = max(bands, key=bands.get)
    _verdict(6, "scaling bands",
             ok, f"max band = {bands[worst]:.2f} ({worst}), {elapsed:.2f} s")
    for name, b in bands.items():
        assert b <= 4.0, f"{name}: band {b:.2f} > 4"
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 7. Distributional equality of bit and bbit level differences.

def test_criterion_7_bit_bbit_level_agreement():
    p = make_gbm()
    f = preset_functional("terminal")
    eps = 2.0 ** -4
    pb = params_for_eps(eps, "bit")
    pq = params_for_eps(eps, "bbit")
    means_bit = np.array([[s.mean for s in run(p, f, pb, seed).levels]
                          for seed in range(20)])
    means_bbit = np.array([[s.mean for s in run(p, f, pq, seed).levels]
                           for seed in range(1000, 1020)])
    se = np.sqrt(means_bit.var(axis=0, ddof=1) / 20
                 + means_bbit.var(axis=0, ddof=1) / 20)
    z = (means_bit.mean(axis=0) - means_bbit.mean(axis=0)) / se
    worst = float(np.max(np.abs(z)))
    ok = worst < 4.0
    _verdict(7, "bit vs bbit level agreement",
             ok, f"max per-level |z| = {worst:.2f} over {pb.L + 1} levels")
    assert worst < 4.0


# --------------------------------------------------------------------------
# 8. Telescoping identity and byte-level determinism of the CLI.

def test_criterion_8_telescoping_and_determinism(capsys, tmp_path):
    telescoping_ok = True
    p = make_gbm()
    f = make_constant(7.25)
    for variant in ("classical", "bit", "bbit", "bbit_log"):
        rep = run(p, f, params_for_eps(0.25, variant), seed=4)
        telescoping_ok &= rep.estimate == 7.25
    outputs = []
    for threads in (1, 2, 8):
        code = cli_main(["run", "--variant", "bbit", "--eps", "0.0625",
                         "--seeds", "0,1,2", "--threads", str(threads),
                         "--out", "-"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    deterministic = outputs[0] == outputs[1] == outputs[2]
    ok = telescoping_ok and deterministic
    with capsys.disabled():
        _verdict(8, "telescoping and determinism",
                 ok, f"constant functional exact on 4 variants = "
                     f"{telescoping_ok}, byte-identical CSV across threads "
                     f"1/2/8 = {deterministic}")
    assert telescoping_ok
    assert deterministic
