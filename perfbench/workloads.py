"""Workload definitions and per-operation correctness checks.

A workload is a list of `rbmlmc` CLI invocations (one "pass"). An operation
is one CSV data row: one (variant, eps, seed) estimate or one strong-error
row. Everything here is a pure function of the benchmark seed.

This module imports nothing from `rbmlmc` at import time, so `run.py` can
use the workload table without loading numpy.
"""

import math
from dataclasses import dataclass

EPS = "0.015625"        # 2^-6: L = 16, q = 16
WARM_EPS = "0.125"      # 2^-3: warms imports and code paths in milliseconds
GBM_X0, GBM_MU = 1.0, 0.05
STRONG_M, STRONG_QMIN, STRONG_QMAX, STRONG_REPS = 256, 2, 9, 10000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple          # ((variant, sde, functional), ...) for `run`
    strong: bool = False  # the pass is one `strong-error` invocation

    def commands(self, seed: int, warm: bool = False) -> list[list[str]]:
        if self.strong:
            reps = "200" if warm else str(STRONG_REPS)
            return [["strong-error", "--mode", "quantization", "--sde", "gbm",
                     "--m", str(STRONG_M), "--q-min", str(STRONG_QMIN),
                     "--q-max", str(STRONG_QMAX), "--reps", reps,
                     "--seed", str(seed), "--out", "-"]]
        eps = WARM_EPS if warm else EPS
        return [["run", "--variant", v, "--sde", s, "--functional", f,
                 "--eps", eps, "--seeds", str(seed), "--out", "-"]
                for v, s, f in self.runs]

    @property
    def bit_based(self) -> bool:
        return any(v != "classical" for v, _, _ in self.runs)


WORKLOADS = {w.name: w for w in (
    Workload("bit-gbm",
             "bit variant at eps 2^-6: bit drawing, grid quantiles and "
             "deep-level Euler; largest peak RSS",
             (("bit", "gbm", "terminal"),)),
    Workload("pairwise-gbm",
             "bbit then bbit-log at eps 2^-6: pairwise combine dominates, "
             "bit drawing is a few percent",
             (("bbit", "gbm", "terminal"), ("bbit-log", "gbm", "terminal"))),
    Workload("classical-lin2d",
             "classical linear2d distance_to_ref at eps 2^-6: no bits, "
             "Euler with d=r=2 and the only costly functional",
             (("classical", "linear2d", "distance_to_ref"),)),
    Workload("strong-quant",
             "strong-error quantization q=2..9: wide shallow Euler and "
             "quantiles of continuous values",
             (), strong=True),
)}

BASELINE_VARIANTS = ("classical", "bit", "bbit", "bbit-log")
# sha256 prefixes of `run --variant V --eps 0.0625 --seeds 0,1,2 --out -`
# recorded in ROADMAP.md for the initial import.
BASELINE_PREFIXES = {"classical": "0648c7854c74c94d",
                     "bit": "634fce302971ff59",
                     "bbit": "a9a014f74ed28d1b",
                     "bbit-log": "444ea71fb2f3fe82"}


def baseline_command(variant: str) -> list[str]:
    return ["run", "--variant", variant, "--eps", "0.0625",
            "--seeds", "0,1,2", "--out", "-"]


def run_path_steps(params) -> int:
    """Fine plus coarse Euler path-steps of one run, sum N_l (m_l + m_l/2)."""
    return sum(N * ((1 << l) + (1 << l) // 2) for l, N in enumerate(params.N))


def path_steps(w: Workload) -> int:
    """Euler path-steps of one pass of the workload."""
    if w.strong:
        rows = STRONG_QMAX - STRONG_QMIN + 1
        return rows * 2 * STRONG_REPS * STRONG_M  # classical and bit paths
    from rbmlmc import mlmc
    return sum(run_path_steps(mlmc.params_for_eps(float(EPS),
                                                  v.replace("-", "_")))
               for v, _, _ in w.runs)


def check_run_op(variant: str, sde_name: str, functional: str, row: dict,
                 report) -> list[str]:
    """Checks of one `run` row against closed forms; returns failures."""
    from rbmlmc import mlmc, sde
    fails = []
    params = report.params
    d = sde.preset(sde_name).d
    led = report.ledger
    expect = {"bit_count": mlmc.bit_count_formula(params, d),
              "coin_count": mlmc.coin_count_formula(params, d),
              "info_cost": mlmc.info_cost_formula(params)}
    for key, want in expect.items():
        if getattr(led, key) != want or int(row[key]) != want:
            fails.append(f"{key} {getattr(led, key)}/{row[key]} != {want}")
    coeff = 2 * run_path_steps(params)
    if led.coeff_evals != coeff:
        fails.append(f"coeff_evals {led.coeff_evals} != {coeff}")
    if repr(report.estimate) != row["estimate"]:
        fails.append("CSV estimate differs from the report")
    if sde_name == "gbm" and functional == "terminal":
        target = GBM_X0 * math.exp(GBM_MU)
        if not abs(report.estimate - target) <= 3 * float(EPS):
            fails.append(f"estimate {report.estimate} not within 3 eps "
                         f"of {target}")
    return fails


def check_strong_rows(rows: list[dict]) -> list[list[str]]:
    """The quantization column must strictly decrease in q."""
    fails = []
    prev = math.inf
    for row in rows:
        v = float(row["mean_sq_sup_distance"])
        fails.append([] if math.isfinite(v) and v < prev
                     else [f"q={row['q']}: {v} not below {prev}"])
        prev = v
    return fails
