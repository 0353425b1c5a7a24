"""rbmlmc benchmark: entry point.

    python3 perfbench/run.py --workload bit-gbm --seed 3 --seconds 30 --trace 0

Runs from the root of a source checkout and imports `rbmlmc` from its
`src/`. Every pass runs in a fresh child process (`worker.py`) under an
address-space ceiling, with BLAS/OpenMP pinned to one thread; one child runs
at a time. Passes repeat until `--seconds` would be exceeded (at least two,
so that two passes can be compared byte for byte).

--trace 0 prints the end-to-end metrics (medians over passes, pass times
scaled by a calibration kernel timed in the same child) and --trace 1 the
per-module metrics of traced passes. Either way the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import (BASELINE_PREFIXES, STRONG_QMAX,  # noqa: E402
                       STRONG_QMIN, WORKLOADS)

AS_LIMIT = 2 << 30       # address-space ceiling of every child, bytes
# Typical seconds of worker.calibrate() on the machine the bounds were set
# on (2 vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6). Each pass time is
# scaled by CALIB_REF_S / (mean of the calibrations timed just before and
# just after it in the same child); see README.md.
CALIB_REF_S = 0.2
DEADLINE_S = 165.0       # the whole invocation ends well inside 180 s
SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
E2E_UNITS = {"wall_ref_s": "s", "ns_per_path_step_ref": "ns",
             "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "bitsource.draw_s": "s", "bitsource.bits": "count",
    "bitsource.ns_per_bit": "ns",
    "bakhvalov.combine_s": "s", "bakhvalov.calls": "count",
    "bakhvalov.outputs": "count", "bakhvalov.useful_ratio": "ratio",
    "qnormal.quantile_s": "s", "qnormal.values": "count",
    "qnormal.ns_per_value": "ns",
    "euler.increments_s": "s", "euler.fine_s": "s", "euler.coarse_s": "s",
    "euler.coarse_from_fine_s": "s", "euler.other_s": "s",
    "euler.path_steps": "count", "euler.ns_per_path_step_deep": "ns",
    "euler.ns_per_path_step_shallow": "ns", "euler.peak_array_mb": "MB",
    "sde.coeff_evals": "count", "sde.python_steps": "count",
    "functionals.eval_s": "s", "functionals.info_cost": "count",
    "mlmc.run_s": "s", "mlmc.self_s": "s", "cli.self_s": "s",
    "trace.spans": "count", "trace.overhead_frac": "ratio",
}


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    env.update({k: "1" for k in THREAD_VARS})
    return env


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))


def spawn(spec, t_start):
    """Run one worker; returns (seconds, exit code, parsed result or None)."""
    timeout = max(5.0, DEADLINE_S - (time.perf_counter() - t_start))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, preexec_fn=_limit_address_space)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    except BaseException:  # interrupted: never leave a child running
        proc.kill()
        proc.wait()
        raise
    dt = time.perf_counter() - t0
    result = None
    if proc.returncode == 0 and spec["mode"] != "setup":
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            result = None
    if proc.returncode != 0:
        sys.stderr.write(f"worker {spec['mode']} exited {proc.returncode}: "
                         f"{err.strip()[-800:]}\n")
    return dt, proc.returncode, result


def expected_ops(w) -> int:
    return STRONG_QMAX - STRONG_QMIN + 1 if w.strong else len(w.runs)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self, w):
        self.w, self.attempted, self.failed = w, 0, 0
        self.probe_failures = 0
        self.reasons = []
        self.first_rows = None

    def fail(self, n, why):
        self.failed += n
        if len(self.reasons) < 8:
            self.reasons.append(why)

    def add_pass(self, res, extra_fails=()):
        """Count one pass's operations; compare rows with the first pass."""
        n = expected_ops(self.w)
        self.attempted += n
        if res is None:
            self.fail(n, "worker crashed, timed out or printed no result")
            return
        ops = res["ops"]
        rows = [o["row"] for o in ops]
        if self.first_rows is None:
            self.first_rows = rows
        for i in range(n):
            fails = list(extra_fails)
            if i >= len(ops):
                fails.append("operation produced no CSV row")
            else:
                fails += ops[i]["fails"]
                if rows[i] != self.first_rows[i]:
                    fails.append("CSV row differs from the first pass")
            if fails:
                self.fail(1, f"op {i}: {'; '.join(fails)}")
        if res["errors"]:
            self.reasons.extend(res["errors"][:2])


def machine_stamp(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    v = versions
    return (f"stamp commit={commit} src_sha256={h.hexdigest()[:16]} "
            f"nproc={os.cpu_count()} cpu=\"{cpu}\" python={v['python']} "
            f"numpy={v['numpy']} scipy={v['scipy']}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def run_passes(w, seed, seconds, t_start, mode):
    """Spawn pass children until the next one would overrun `seconds`."""
    results, durations = [], []
    while True:
        dt, rc, res = spawn({"mode": mode, "workload": w.name, "seed": seed},
                            t_start)
        results.append(res)
        durations.append(dt)
        elapsed = time.perf_counter() - t_start
        if res is None and rc != 0 and len(results) >= 2:
            break
        if elapsed + statistics.median(durations) > min(seconds,
                                                        DEADLINE_S - 40):
            if len(results) >= (2 if mode == "pass" else 1):
                break
    return results


def report_untraced(w, seed, seconds, t_start, tally):
    passes = run_passes(w, seed, seconds, t_start, "pass")
    for res in passes:
        tally.add_pass(res)
    ok = [r for r in passes if r is not None]
    walls = sorted(r["wall_s"] for r in ok)
    setup = []
    for _ in range(SETUP_PROBES):
        dt, rc, _ = spawn({"mode": "setup", "workload": w.name, "seed": seed},
                          t_start)
        if rc != 0:
            tally.probe_failures += 1
            tally.fail(0, f"setup probe exited {rc}")
        setup.append(dt)
    if not ok:
        return None, None
    wall = statistics.median(walls)
    wall_ref = statistics.median(
        r["wall_s"] * CALIB_REF_S / statistics.fmean(r["calib_s"]) for r in ok)
    steps = ok[0]["path_steps"]
    metrics = {
        "wall_ref_s": wall_ref,
        "ns_per_path_step_ref": wall_ref * 1e9 / steps,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in ok) / 1024,
        "setup_s": statistics.median(setup),
    }
    q1, med, q3 = quartiles(walls)
    cpu = statistics.median(r["cpu_s"] for r in ok)
    print(f"passes {len(ok)}: wall_s q1={q1:.4f} median={med:.4f} "
          f"q3={q3:.4f} cpu_s median={cpu:.4f}; {steps} path-steps per pass")
    print("pass wall_s / calibration_s: " + " ".join(
        f"{r['wall_s']:.4f}/{r['calib_s'][0]:.4f},{r['calib_s'][1]:.4f}"
        for r in ok))
    print("setup probes s: " + " ".join(f"{s:.4f}" for s in setup))
    print(f"wall_s {wall:.6g} s (measured median)")
    print(f"ns_per_path_step {wall * 1e9 / steps:.6g} ns (measured median)")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {E2E_UNITS[k]}")
    if w.bit_based:
        bits = sum(int(o["row"]["bit_count"]) for o in ok[0]["ops"])
        print(f"bits_per_s {bits / wall:.6g} 1/s ({bits} bits per pass)")
    return metrics, ok[0]


def report_traced(w, seed, seconds, t_start, tally):
    results = run_passes(w, seed, seconds, t_start, "trace")
    ok = []
    for res in results:
        if res is None:
            tally.add_pass(None)
            tally.add_pass(None)
            continue
        failed_tests = [k for k, v in res["tests"].items() if not v]
        tally.add_pass(res["plain"])
        tally.add_pass(res["traced"], [f"self-test failed: {k}"
                                       for k in failed_tests])
        if res["mismatches"]:
            tally.reasons.extend(res["mismatches"])
        ok.append(res)
    if not ok:
        return None, None
    print(f"traced pairs {len(ok)}; self-tests of the first: " + "; ".join(
        f"{k}={'ok' if v else 'FAILED'}" for k, v in ok[0]["tests"].items()))
    print("per-level table (first traced pass; times are self seconds, "
          "euler_array_mb is computed from shapes):")
    print("  " + " ".join(ok[0]["level_header"]))
    for row in ok[0]["level_rows"]:
        print("  " + " ".join(str(x) for x in row))
    metrics = {k: statistics.median(r["metrics"][k] for r in ok)
               for k in PER_LAYER_UNITS}
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {PER_LAYER_UNITS[k]}")
    return metrics, dict(ok[0]["plain"], versions=ok[0]["versions"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rbmlmc", "__init__.py")):
        print(f"no rbmlmc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t_start = time.perf_counter()
    w = WORKLOADS[args.workload]
    seed = args.seed % (1 << 32)  # seeds the CLI accepts for every variant
    print(f"# rbmlmc benchmark workload={w.name} seed={seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    tally = Tally(w)
    if args.trace:
        metrics, first = report_traced(w, seed, args.seconds, t_start, tally)
        units = PER_LAYER_UNITS
    else:
        metrics, first = report_untraced(w, seed, args.seconds, t_start,
                                         tally)
        units = E2E_UNITS
    if metrics is None:
        print("no pass completed: " + "; ".join(tally.reasons),
              file=sys.stderr)
        return 1
    print(f"failed_frac {tally.failed / tally.attempted:g} fraction "
          f"({tally.failed}/{tally.attempted} operations)")
    for why in tally.reasons:
        print(f"  failure: {why}")
    print(f"csv_sha256 {w.name} "
          f"{hashlib.sha256(first['csv'].encode()).hexdigest()}")
    if args.trace:
        _, _, base = spawn({"mode": "baseline", "workload": w.name,
                            "seed": seed}, t_start)
        for v, want in BASELINE_PREFIXES.items():
            got = (base or {}).get("sha256", {}).get(v) or "unavailable"
            flag = "match" if got.startswith(want) else "CHANGED"
            print(f"baseline_sha256 {v} {got} (recorded {want}: {flag})")
    print(machine_stamp(first["versions"]))
    print(f"elapsed_s {time.perf_counter() - t_start:.2f}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.probe_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
