"""Command-line harness emitting CSV tables for the estimators and checks.

Subcommands: run (multilevel estimates), strong-error (rate tables),
bakhvalov-check (exact pairwise-independence tables), oracle (enumeration
vs. Monte Carlo), cost-report (schedule bit counts and ratio bands).

Output is RFC-4180-style CSV with '.' decimals, one report line per
check for bakhvalov-check. Results are a pure function of the
configuration; --threads is accepted but changes nothing. Exit codes: 0
success, 1 a failed bakhvalov-check, 2 configuration error, 3 feasibility
error (an enumeration over its cap, or an allocation that fails), 141 a
reader that closed stdout early (128 + SIGPIPE, as `| head` reports a C
tool). An --out path that cannot be opened is a configuration error. Every
command computes all of its output first, so an error leaves none.
"""

import argparse
import csv
import math
import os
import sys
import time

import numpy as np

from . import bakhvalov, euler, functionals, mlmc, oracle, sde
from .bitsource import ORACLE_STREAM, BitSource, key_word
from .errors import FeasibilityError
from .qnormal import MAX_DEPTH


def _parse_seeds(text: str) -> list[int]:
    """Distinct seeds: a repeated one (also as 1,01) only repeats rows."""
    seeds = [key_word("seed", s) for s in text.split(",") if s.strip() != ""]
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"repeated seed in --seeds {text!r}")
    return seeds


def _parse_grid(text: str) -> list[float]:
    """Distinct --eps-grid entries: floats or base^exp powers such as 2^-4."""
    out = []
    for s in text.split(","):
        s = s.strip()
        try:
            if "^" in s:
                base, exp = s.split("^")
                out.append(math.pow(float(base), float(exp)))
            else:
                out.append(float(s))
        except (ValueError, OverflowError) as exc:  # 10^400, 0^-1, -8^0.5
            raise ValueError(f"--eps-grid entry {s} is not a finite float "
                             f"or base^exp power: {exc}") from None
        if out[-1] in out[:-1]:  # 0.25,2^-2 would only repeat rows
            raise ValueError(f"--eps-grid entry {s} repeats {out[-1]!r}")
    return out


def _write(path, emit) -> None:
    """Hand stdout (path None or '-') or the file at path to emit. Callers
    compute all output first, so an error leaves no partial output."""
    if path in (None, "-"):
        emit(sys.stdout)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return
    try:
        out = open(path, "w", newline="")
    except OSError as exc:  # a missing directory, a directory, ''
        raise ValueError(f"cannot open --out {path!r}: {exc.strerror}") \
            from None
    with out:
        emit(out)


def _write_csv(path, header, rows) -> None:
    _write(path, lambda out: csv.writer(out).writerows([header] + rows))


def _functional_for(args, problem):
    c = args.debug_const_functional
    if c is not None:
        if not math.isfinite(c):  # nan/inf give a nan estimate, not a probe
            raise ValueError(f"--debug-const-functional must be finite, "
                             f"got {c}")
        return functionals.make_constant(c)
    return functionals.preset_functional(args.functional, x0=problem.x0)


def cmd_run(args) -> int:
    problem = sde.preset(args.sde)
    f = _functional_for(args, problem)
    if (args.eps is None) == (args.eps_grid is None):
        raise ValueError("provide exactly one of --eps and --eps-grid")
    eps_values = ([args.eps] if args.eps_grid is None
                  else _parse_grid(args.eps_grid))
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise ValueError("provide at least one seed in --seeds")
    variant = args.variant.replace("-", "_")
    schedules = [(eps, mlmc.params_for_eps(eps, variant))
                 for eps in sorted(eps_values, reverse=True)]
    rows = []
    for eps, params in schedules:
        for seed in seeds:
            t0 = time.perf_counter()
            rep = mlmc.run(problem, f, params, seed)
            ms = (time.perf_counter() - t0) * 1e3
            rows.append([
                variant, repr(eps), seed, repr(rep.estimate),
                params.L, params.q if params.q is not None else "",
                ";".join(repr(s.mean) for s in rep.levels),
                ";".join(repr(s.variance) for s in rep.levels),
                rep.ledger.info_cost, rep.ledger.bit_count,
                rep.ledger.coin_count,
                # real timing only on request so output stays reproducible
                f"{ms:.3f}" if args.timing else "0",
            ])
    _write_csv(args.out, ["variant", "eps", "seed", "estimate", "L", "q",
                          "level_means", "level_vars", "info_cost",
                          "bit_count", "coin_count", "wall_time_ms"], rows)
    return 0


def cmd_strong_error(args) -> int:
    seed = key_word("seed", args.seed)
    # --reps < 1 averages over nothing (a nan row), and a step count < 1
    # gives a path without Euler steps.
    for flag, value in (("--reps", args.reps), ("--m", args.m),
                        ("--q-min", args.q_min), ("--m-min", args.m_min)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if not args.q_min <= args.q_max <= MAX_DEPTH:
        raise ValueError(f"need --q-min <= --q-max <= {MAX_DEPTH}, got "
                         f"{args.q_min}, {args.q_max}")
    if args.mode in ("discretization", "both"):
        if args.sde != "gbm":
            raise ValueError("discretization mode uses the gbm closed form")
        # an empty step-count sweep would write a header-only table
        if args.m_min > args.m_max:
            raise ValueError(f"need --m-min <= --m-max, got {args.m_min}, "
                             f"{args.m_max}")
    rows = []
    if args.mode in ("quantization", "both"):
        qs = list(range(args.q_min, args.q_max + 1))
        msds = euler.bit_vs_classical_sup_sq(
            sde.preset(args.sde), args.m, qs, args.reps, seed)
        rows += [["quantization", args.sde, args.m, q, repr(msd), args.reps]
                 for q, msd in zip(qs, msds)]
    if args.mode in ("discretization", "both"):
        g = sde.preset("gbm")
        m = args.m_min
        while m <= args.m_max:
            msd = euler.gbm_strong_error_vs_exact(g, m, args.reps, seed)
            rows.append(["discretization", "gbm", m, "", repr(msd),
                         args.reps])
            m *= 2
    _write_csv(args.out, ["mode", "sde", "m", "q", "mean_sq_sup_distance",
                          "replications"], rows)
    return 0


def cmd_bakhvalov_check(args) -> int:
    if (args.n is None) != (args.q is None):
        raise ValueError("give both --n and --q, or neither")
    if args.n is not None:
        # n < 1 has no generators and q < 1 a one-atom grid: a vacuous PASS
        if min(args.n, args.q) < 1:
            raise ValueError(f"need --n, --q >= 1, got {args.n}, {args.q}")
        checks = [(args.variant or "quadratic", args.n, args.q)]
    else:
        checks = [(v, n, q) for v, row in bakhvalov.FAMILIES.items()
                  if args.variant in (None, v) for n, q in row.checks]
    reports = [bakhvalov.exact_pairwise_check(n, q, v) for v, n, q in checks]
    lines = list(map(str, reports))
    if args.triple:
        t = bakhvalov.find_nonuniform_tuple(2, 1, "quadratic", 3)
        lines.append(f"quadratic n=2 q=1 non-uniform triple: {t}")
    _write(args.out, lambda out: out.writelines(f"{s}\n" for s in lines))
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_oracle(args) -> int:
    problem = sde.preset(args.sde)
    f = _functional_for(args, problem)
    seed = key_word("seed", args.seed)
    for flag, value in (("--m", args.m), ("--q", args.q)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    if args.mc_reps < 0:
        raise ValueError(f"--mc-reps must be >= 0, got {args.mc_reps}")
    coupled = args.kind == "level-difference"
    if coupled and args.m % 2 != 0:
        raise ValueError(f"--kind level-difference needs an even --m, "
                         f"got {args.m}")
    mean, var = oracle.exact_level_values(problem, f, args.m, args.q, coupled)
    mc_mean = z = ""
    if args.mc_reps:
        src = BitSource(seed, ORACLE_STREAM)
        v = euler.bit_increments(src, args.m, args.q, problem.d,
                                 n=args.mc_reps)
        vals = mlmc.level_values(problem, f, v, coupled)
        mc_mean = float(np.mean(vals))
        sigma = math.sqrt(var / args.mc_reps) if var > 0 else 0.0
        z = repr((mc_mean - mean) / sigma if sigma > 0 else 0.0)
        mc_mean = repr(mc_mean)
    _write_csv(args.out, ["sde", "functional", "kind", "m", "q",
                          "oracle_mean", "oracle_var", "mc_mean", "mc_reps",
                          "z_score"],
               [[args.sde, f.label, args.kind, args.m, args.q, repr(mean),
                 repr(var), mc_mean, args.mc_reps or "", z]])
    return 0


def cmd_cost_report(args) -> int:
    if args.d < 1:  # d = 0 counts no bits (a 0/0 band), d < 0 negative bits
        raise ValueError(f"--d must be >= 1, got {args.d}")
    eps_values = _parse_grid(args.eps_grid)
    if len(eps_values) < 5:
        raise ValueError("need a grid of at least 5 epsilon values")
    rows, ratios = [], []
    for eps in eps_values:
        pc, pb, pq, pl = (mlmc.params_for_eps(eps, v)
                          for v in ("classical", "bit", "bbit", "bbit_log"))
        bits = [mlmc.bit_count_formula(p, args.d) for p in (pb, pq, pl)]
        # normalizers in base-2 logarithms, matching the dyadic schedules
        le = math.log2(1.0 / eps)
        ratio = (bits[1] / (eps ** -2 * le ** 2.5),
                 bits[2] / (eps ** -2 * le ** 2 * math.log2(le)))
        ratios.append(ratio)
        rows.append([repr(eps), pb.L, pb.q, *bits,
                     mlmc.info_cost_formula(pc),
                     *(mlmc.work_model(p, args.d) for p in (pc, pb, pq)),
                     repr(ratio[0]), repr(ratio[1])])
    for name, r in zip(("band_bbit", "band_bbit_log"), zip(*ratios)):
        rows.append([name, repr(max(r) / min(r))] + [""] * 10)
    _write_csv(args.out, ["eps", "L", "q", "bits_bit", "bits_bbit",
                          "bits_bbit_log", "info_cost", "work_classical",
                          "work_bit", "work_bbit", "ratio_bbit",
                          "ratio_bbit_log"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rbmlmc",
        description="Random-bit multilevel Euler quadrature for SDEs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path ('-' = stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; results identical")

    p = sub.add_parser("run", help="evaluate a multilevel estimator")
    p.add_argument("--variant", required=True,
                   choices=[v.replace("_", "-") for v in mlmc.VARIANTS])
    p.add_argument("--sde", default="gbm", choices=sde.preset_names())
    p.add_argument("--functional", default="terminal",
                   choices=functionals.preset_functional_names())
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--eps-grid", default=None,
                   help="comma list, 2^-4 entries allowed")
    p.add_argument("--seeds", default="0", help="comma list of distinct seeds")
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
    p.add_argument("--variant", choices=list(bakhvalov.FAMILIES))
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
    try:
        return args.func(args)
    except FeasibilityError as exc:
        print(f"feasibility error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a schedule too large for this machine, e.g. 38 PiB of normals
        print(f"feasibility error: out of memory: {exc}", file=sys.stderr)
        return 3
    # OverflowError: a safety net; the parsers and checks name their inputs
    except (ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so that the flush at
        # exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
