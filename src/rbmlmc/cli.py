"""Command-line harness emitting CSV tables for the estimators and checks.

Subcommands: run (multilevel estimates), strong-error (rate tables),
bakhvalov-check (exact pairwise-independence tables), oracle (enumeration
vs. Monte Carlo), cost-report (schedule bit counts and ratio bands).

Output is RFC-4180-style CSV with '.' decimals. All results are a pure
function of the configuration; --threads is accepted for interface
stability but the vectorized execution gives identical output for any
value. Exit codes: 0 success, 2 configuration error, 3 feasibility error.
"""

import argparse
import csv
import math
import sys
import time

import numpy as np

from . import bakhvalov, euler, functionals, mlmc, oracle, sde
from .bitsource import BitSource
from .errors import FeasibilityError


def _parse_seed(value) -> int:
    """A seed in [0, 2^64): the generators are keyed by 64-bit words, so
    any other integer would fail deep in a run or alias a valid seed."""
    seed = int(value)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def _parse_seeds(text: str) -> list[int]:
    return [_parse_seed(s) for s in text.split(",") if s.strip() != ""]


def _parse_grid(text: str) -> list[float]:
    out = []
    for s in text.split(","):
        s = s.strip()
        if "^" in s:  # allow 2^-4 style entries
            base, exp = s.split("^")
            out.append(float(base) ** float(exp))
        else:
            out.append(float(s))
    return out


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _functional_for(args, problem):
    if args.debug_const_functional is not None:
        return functionals.make_constant(args.debug_const_functional)
    return functionals.preset_functional(args.functional, x0=problem.x0)


def cmd_run(args) -> int:
    problem = sde.preset(args.sde)
    f = _functional_for(args, problem)
    eps_values = _parse_grid(args.eps_grid) if args.eps_grid else [args.eps]
    if any(e is None for e in eps_values):
        raise ValueError("provide --eps or --eps-grid")
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ValueError("provide at least one seed in --seeds")
    schedules = [(eps, mlmc.params_for_eps(eps, args.variant))
                 for eps in sorted(eps_values, reverse=True)]
    out, close = _open_out(args.out)
    try:
        w = csv.writer(out)
        w.writerow(["variant", "eps", "seed", "estimate", "L", "q",
                    "level_means", "level_vars", "info_cost", "bit_count",
                    "coin_count", "wall_time_ms"])
        for eps, params in schedules:
            for seed in seeds:
                t0 = time.perf_counter()
                rep = mlmc.run(problem, f, params, seed)
                ms = (time.perf_counter() - t0) * 1e3
                w.writerow([
                    args.variant, repr(eps), seed, repr(rep.estimate),
                    params.L, params.q if params.q is not None else "",
                    ";".join(repr(s.mean) for s in rep.levels),
                    ";".join(repr(s.variance) for s in rep.levels),
                    rep.ledger.info_cost, rep.ledger.bit_count,
                    rep.ledger.coin_count,
                    # real timing only on request so output stays reproducible
                    f"{ms:.3f}" if args.timing else "0",
                ])
    finally:
        if close:
            out.close()
    return 0


def cmd_strong_error(args) -> int:
    seed = _parse_seed(args.seed)
    # --reps < 1 averages over nothing (a nan row), and a step count < 1
    # gives a path without Euler steps.
    for flag, value in (("--reps", args.reps), ("--m", args.m),
                        ("--q-min", args.q_min), ("--m-min", args.m_min)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if not args.q_min <= args.q_max <= 52:  # (k+1/2)/2^q is exact to q = 52
        raise ValueError("need --q-min <= --q-max <= 52, got "
                         f"{args.q_min}, {args.q_max}")
    if args.mode in ("discretization", "both") and args.sde != "gbm":
        raise ValueError("discretization mode uses the gbm closed form")
    out, close = _open_out(args.out)
    try:
        w = csv.writer(out)
        w.writerow(["mode", "sde", "m", "q", "mean_sq_sup_distance",
                    "replications"])
        if args.mode in ("quantization", "both"):
            problem = sde.preset(args.sde)
            for q in range(args.q_min, args.q_max + 1):
                msd = euler.bit_vs_classical_sup_sq(
                    problem, args.m, q, args.reps, seed)
                w.writerow(["quantization", args.sde, args.m, q, repr(msd),
                            args.reps])
        if args.mode in ("discretization", "both"):
            g = sde.preset("gbm")
            m = args.m_min
            while m <= args.m_max:
                msd = euler.gbm_strong_error_vs_exact(
                    g.params["mu"], g.params["sigma"], float(g.x0[0]),
                    m, args.reps, seed)
                w.writerow(["discretization", "gbm", m, "", repr(msd),
                            args.reps])
                m *= 2
    finally:
        if close:
            out.close()
    return 0


_DEFAULT_CHECKS = (("quadratic", 2, 1), ("quadratic", 2, 2),
                   ("quadratic", 3, 1), ("logarithmic", 2, 1),
                   ("logarithmic", 3, 1))


def cmd_bakhvalov_check(args) -> int:
    if (args.n is None) != (args.q is None):
        raise ValueError("give both --n and --q, or neither")
    if args.n is not None:
        # n < 1 has no generators and q < 1 a one-atom grid: a vacuous PASS
        if min(args.n, args.q) < 1:
            raise ValueError(f"need --n, --q >= 1, got {args.n}, {args.q}")
        checks = [(args.variant, args.n, args.q)]
    else:
        checks = list(_DEFAULT_CHECKS)
    ok = True
    for variant, n, q in checks:
        rep = bakhvalov.exact_pairwise_check(n, q, variant)
        ok = ok and rep.passed
        print(rep)
    if args.triple:
        t = bakhvalov.find_nonuniform_triple(2, 1, "quadratic")
        print(f"quadratic n=2 q=1 non-uniform triple: {t}")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    problem = sde.preset(args.sde)
    f = _functional_for(args, problem)
    seed = _parse_seed(args.seed)
    # Everything is computed before the output is opened, so a
    # configuration or feasibility error leaves no partial CSV.
    if args.kind == "expectation":
        mean, var = oracle.exact_expectation_bit_euler(
            problem, f, args.m, args.q)
    else:
        mean, var = oracle.exact_level_difference(
            problem, f, args.m, args.q)
    mc_mean = z = ""
    if args.mc_reps:
        src = BitSource(seed, 0)
        v = euler.bit_increments(src, args.m, args.q, problem.d,
                                 n=args.mc_reps)
        fine = f.eval_batch(euler.euler_paths_batch(problem, v))
        if args.kind == "expectation":
            vals = fine
        else:
            vals = fine - f.eval_batch(euler.euler_paths_batch(
                problem, euler.coarse_from_fine(v)))
        mc_mean = float(np.mean(vals))
        sigma = math.sqrt(var / args.mc_reps) if var > 0 else 0.0
        z = repr((mc_mean - mean) / sigma if sigma > 0 else 0.0)
        mc_mean = repr(mc_mean)
    out, close = _open_out(args.out)
    try:
        w = csv.writer(out)
        w.writerow(["sde", "functional", "kind", "m", "q", "oracle_mean",
                    "oracle_var", "mc_mean", "mc_reps", "z_score"])
        w.writerow([args.sde, f.label, args.kind, args.m, args.q,
                    repr(mean), repr(var), mc_mean, args.mc_reps or "", z])
    finally:
        if close:
            out.close()
    return 0


def cmd_cost_report(args) -> int:
    eps_values = _parse_grid(args.eps_grid)
    table = mlmc.bitcount_bound_check(eps_values, d=args.d)
    out, close = _open_out(args.out)
    try:
        w = csv.writer(out)
        w.writerow(["eps", "L", "q", "bits_bit", "bits_bbit", "bits_bbit_log",
                    "info_cost", "work_classical", "work_bit", "work_bbit",
                    "ratio_bbit", "ratio_bbit_log"])
        for row in table.rows:
            pc = mlmc.params_for_eps(row.epsilon, "classical")
            pb = mlmc.params_for_eps(row.epsilon, "bit")
            pq = mlmc.params_for_eps(row.epsilon, "bbit")
            w.writerow([repr(row.epsilon), pb.L, pb.q, row.bits_bit,
                        row.bits_bbit, row.bits_bbit_log,
                        mlmc.info_cost_formula(pc),
                        mlmc.work_model(pc, args.d),
                        mlmc.work_model(pb, args.d),
                        mlmc.work_model(pq, args.d),
                        repr(row.ratio_bbit), repr(row.ratio_bbit_log)])
        w.writerow(["band_bbit", repr(table.band_bbit), "", "", "", "", "",
                    "", "", "", "", ""])
        w.writerow(["band_bbit_log", repr(table.band_bbit_log), "", "", "",
                    "", "", "", "", "", "", ""])
    finally:
        if close:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rbmlmc",
        description="Random-bit multilevel Euler quadrature for SDEs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="CSV path ('-' = stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; results identical")

    p = sub.add_parser("run", help="evaluate a multilevel estimator")
    p.add_argument("--variant", required=True,
                   choices=["classical", "bit", "bbit", "bbit-log"])
    p.add_argument("--sde", default="gbm", choices=sde.preset_names())
    p.add_argument("--functional", default="terminal",
                   choices=functionals.preset_functional_names())
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps-grid", default=None,
                   help="comma list, 2^-4 entries allowed")
    p.add_argument("--seeds", default="0", help="comma list of seeds")
    p.add_argument("--debug-const-functional", type=float, default=None)
    p.add_argument("--timing", action="store_true",
                   help="emit measured wall_time_ms (breaks byte-level "
                        "reproducibility of the CSV)")
    common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("strong-error", help="strong-error rate tables")
    p.add_argument("--mode", default="both",
                   choices=["quantization", "discretization", "both"])
    p.add_argument("--sde", default="gbm", choices=sde.preset_names())
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--q-min", type=int, default=2)
    p.add_argument("--q-max", type=int, default=9)
    p.add_argument("--m-min", type=int, default=16)
    p.add_argument("--m-max", type=int, default=1024)
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_strong_error)

    p = sub.add_parser("bakhvalov-check",
                       help="exact pairwise-independence tables")
    p.add_argument("--variant", default="quadratic",
                   choices=["quadratic", "logarithmic"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--triple", action="store_true",
                   help="also report the first non-uniform output triple "
                        "of quadratic n=2 q=1 (prints None: every triple "
                        "is jointly uniform)")
    common(p)
    p.set_defaults(func=cmd_bakhvalov_check)

    p = sub.add_parser("oracle", help="exact enumeration vs. Monte Carlo")
    p.add_argument("--sde", default="gbm", choices=sde.preset_names())
    p.add_argument("--functional", default="terminal",
                   choices=functionals.preset_functional_names())
    p.add_argument("--kind", default="expectation",
                   choices=["expectation", "level-difference"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mc-reps", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--debug-const-functional", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("cost-report",
                       help="schedule bit counts and ratio bands")
    p.add_argument("--eps-grid", required=True)
    p.add_argument("--d", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_cost_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "variant") and args.command == "run":
        args.variant = args.variant.replace("-", "_")
    try:
        return args.func(args)
    except FeasibilityError as exc:
        print(f"feasibility error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
