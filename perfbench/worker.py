"""Child process of the benchmark: one pass, one traced pair, or a probe.

    PYTHONPATH=src:perfbench python3 perfbench/worker.py \
        '{"mode": "pass", "workload": "bit-gbm", "seed": 3}'

Modes:
  setup     import rbmlmc, build the workload's presets and schedules, exit
  pass      warm up at a small size, time one pass, check every operation
  trace     an untraced pass, then the same pass traced, then self-tests
  baseline  sha256 of the ROADMAP baseline `run --eps 0.0625` tables

The result is one JSON object on the last line of standard output; the
CLI's own CSV output is captured in memory. `run.py` runs this under an
address-space ceiling with BLAS/OpenMP pinned to one thread.
"""

import json
import sys


def setup(w):
    from rbmlmc import mlmc, sde
    from workloads import EPS
    for v, s, _ in w.runs:
        sde.preset(s)
        mlmc.params_for_eps(float(EPS), v.replace("-", "_"))
    if w.strong:
        sde.preset("gbm")


def call_cli(argv, call=None):
    """Run one CLI invocation; returns (exit code, captured stdout, error)."""
    import contextlib
    import io
    import traceback
    from rbmlmc import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = (call or cli.main)(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
        return rc, buf.getvalue(), f"SystemExit {exc.code}"
    except Exception:  # a crash of the program is a failed operation
        return 1, buf.getvalue(), traceback.format_exc(limit=3)
    return rc, buf.getvalue(), ""


class capture_reports:
    """Keep the MLMCReport of every mlmc.run call, for the ledger checks."""

    def __enter__(self):
        from rbmlmc import mlmc
        self.reports, self._orig = [], mlmc.run

        def run(*a, **kw):
            rep = self._orig(*a, **kw)
            self.reports.append(rep)
            return rep
        mlmc.run = run
        return self

    def __exit__(self, *exc):
        from rbmlmc import mlmc
        mlmc.run = self._orig


def one_pass(w, seed, call=None):
    """Time the workload's commands and check each operation (CSV row)."""
    import csv
    import time
    from workloads import check_run_op, check_strong_rows
    cmds = w.commands(seed)
    chunks, ops, errors = [], [], []
    with capture_reports() as cap:
        wall = cpu = 0.0
        for argv in cmds:
            t0, c0 = time.perf_counter(), time.process_time()
            rc, out, err = call_cli(argv, call)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            chunks.append(out)
            if rc != 0:
                errors.append(f"{argv[:3]} exit {rc} {err}")
    rows = [list(csv.DictReader(c.splitlines())) for c in chunks]
    if w.strong:
        for row, fails in zip(rows[0], check_strong_rows(rows[0])):
            ops.append({"row": row, "fails": fails})
    else:
        reps = iter(cap.reports)
        for (v, s, f), rs in zip(w.runs, rows):
            for row in rs:
                rep = next(reps, None)
                fails = (["no report"] if rep is None
                         else check_run_op(v, s, f, row, rep))
                ops.append({"row": row, "fails": fails})
    return {"wall_s": wall, "cpu_s": cpu, "csv": "".join(chunks),
            "ops": ops, "errors": errors}


def calibrate():
    """Seconds for a fixed reference computation that imports no rbmlmc.

    It mixes what the workloads spend time on: a Python loop over small
    numpy arrays (deep-level Euler, the pairwise combine) and vectorised
    transcendental maths over a 20 MB array (quantiles, wide Euler). Its
    time tracks the speed the shared machine gives this process.
    """
    import time
    import numpy as np
    rng = np.random.default_rng(12345)
    steps = 12000
    inc = rng.standard_normal((64, steps, 1))
    u = rng.random((10000, 256))
    t0 = time.perf_counter()
    x = np.ones((64, 1))
    for k in range(steps):
        x = x + 0.05 * x / steps + np.einsum("nrd,nd->nr", 0.2 * x[..., None],
                                              inc[:, k, :])
    for _ in range(3):
        np.sqrt(-2.0 * np.log(u)) * (u - 0.5)
    return time.perf_counter() - t0


def warm_up(w, seed):
    for argv in w.commands(seed, warm=True):
        call_cli(argv)


def run_pass(w, seed):
    import resource
    from workloads import path_steps
    before = calibrate()
    warm_up(w, seed)
    res = one_pass(w, seed)
    res["calib_s"] = [before, calibrate()]
    res["path_steps"] = path_steps(w)
    res["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    res["versions"] = versions()
    return res


def run_trace(w, seed):
    from tracer import TIME_KEYS, Tracer
    warm_up(w, seed)
    plain = one_pass(w, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(w, seed, call=tracer.call_cli)
    finally:
        tracer.restore()
    self_s, counts = tracer.totals()
    tests = {
        "traced CSV equals untraced CSV": traced["csv"] == plain["csv"],
        "patched functions restored": tracer.restored(),
        "no span left open": not tracer.stack,
    }
    mism = tracer.ledger_mismatches()
    tests["per-level counters equal the ledger"] = not mism
    root = sum(self_s.values())
    tests["self times add up to the root spans"] = (
        abs(root - tracer.root_s) <= 1e-9 * root
        and tracer.root_s <= traced["wall_s"])
    if not w.strong:
        inside_run = root - self_s["cli"]
        tests["self times account for mlmc.run_s"] = (
            abs(inside_run - tracer.run_s) <= 1e-9 * root)
    deep = shallow = 0.0
    for g in tracer.groups:
        t = g.self_s["euler.fine"] + g.self_s["euler.coarse"]
        deep, shallow = (deep + t, shallow) if g.deep else (deep, shallow + t)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0
    m = {f"{k}_s": self_s[k] for k in TIME_KEYS if k not in ("cli", "mlmc")}
    m.update({
        "bitsource.bits": counts["bits"],
        "bitsource.ns_per_bit": per(self_s["bitsource.draw"], counts["bits"],
                                    1e9),
        "bakhvalov.calls": counts["combine_calls"],
        "bakhvalov.outputs": counts["outputs"],
        "bakhvalov.useful_ratio": per(counts["useful"], counts["outputs"]),
        "qnormal.values": counts["quantile_values"],
        "qnormal.ns_per_value": per(self_s["qnormal.quantile"],
                                    counts["quantile_values"], 1e9),
        "euler.path_steps": counts["path_steps"],
        "euler.ns_per_path_step_deep": per(deep, counts["path_steps_deep"],
                                           1e9),
        "euler.ns_per_path_step_shallow": per(
            shallow, counts["path_steps_shallow"], 1e9),
        "euler.peak_array_mb": tracer.peak_array_mb(),
        "sde.coeff_evals": counts["coeff_evals"],
        "sde.python_steps": counts["python_steps"],
        "functionals.info_cost": counts["info_cost"],
        "mlmc.run_s": tracer.run_s,
        "mlmc.self_s": self_s["mlmc"],
        "cli.self_s": self_s["cli"],
        "trace.spans": tracer.spans,
        "trace.overhead_frac": (traced["wall_s"] - plain["wall_s"])
        / plain["wall_s"],
    })
    header, rows = tracer.level_rows()
    return {"plain": plain, "traced": traced, "metrics": m, "tests": tests,
            "mismatches": mism[:5], "level_header": header,
            "level_rows": rows, "versions": versions()}


def run_baseline(_w, _seed):
    import hashlib
    from workloads import BASELINE_VARIANTS, baseline_command
    out = {}
    for v in BASELINE_VARIANTS:
        rc, text, _ = call_cli(baseline_command(v))
        out[v] = hashlib.sha256(text.encode()).hexdigest() if rc == 0 else None
    return {"sha256": out}


def versions():
    import platform
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


MODES = {"pass": run_pass, "trace": run_trace, "baseline": run_baseline}

if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    from workloads import WORKLOADS
    w = WORKLOADS[spec["workload"]]
    if spec["mode"] == "setup":
        setup(w)
    else:
        print(json.dumps(MODES[spec["mode"]](w, spec["seed"])))
