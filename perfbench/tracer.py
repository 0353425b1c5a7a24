"""Outside-in tracer: spans around the public functions of `rbmlmc` modules.

The tracer patches module attributes (and two `BitSource` methods) with
timing wrappers, runs one pass, and puts every original back. Spans sit only
at boundaries called O(levels) or O(m) times per run; per-time-step
`drift`/`diffusion` calls are never wrapped but counted from the shapes of
the arrays `euler_paths_batch` receives.

A span's self time is its duration minus the time of the spans nested in
it, so the self times of all keys add up to the duration of the root spans.
Every record is grouped by level (`run`) or by q row (`strong-error`); the
per-group ledger deltas, taken from the ledger object `mlmc.run` passes to
its per-level increment function, are kept beside the counts derived from
shapes so the two can be compared exactly.
"""

import functools
import time
from collections import defaultdict
from dataclasses import replace

from rbmlmc import cli, euler, functionals, mlmc, qnormal
from rbmlmc.bitsource import BitSource

LEDGER_KEYS = ("bit_count", "coin_count", "info_cost", "coeff_evals")
TIME_KEYS = ("cli", "mlmc", "bitsource.draw", "bakhvalov.combine",
             "qnormal.quantile", "euler.increments", "euler.fine",
             "euler.coarse", "euler.coarse_from_fine", "euler.other",
             "functionals.eval")


class Group:
    """Self times, shape-derived counts and ledger deltas of one level."""

    def __init__(self, label, N=0, m=0, deep=False):
        self.label, self.N, self.m, self.deep = label, N, m, deep
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.ledger = None  # ledger deltas, filled when the level closes


class Tracer:
    def __init__(self):
        self.stack = []          # [key, start, mark]
        self.groups = [Group("setup")]
        self.root_s = 0.0        # duration of cli.main (root) spans
        self.run_s = 0.0         # duration of mlmc.run spans
        self.spans = 0
        self.reports = []
        self._snap = None        # ledger counters at the open level's start
        self._patched = []       # (owner, attr, original)

    # -- spans ---------------------------------------------------------
    # Self time is charged as it accrues: whenever a span starts or ends,
    # the time since the enclosing span's last mark goes to that span's key
    # in the current group. The charges telescope to the root's duration.
    def _charge_top(self, now):
        if self.stack:
            top = self.stack[-1]
            self.groups[-1].self_s[top[0]] += now - top[2]
            top[2] = now

    def _enter(self, key):
        now = time.perf_counter()
        self._charge_top(now)
        self.stack.append([key, now, now])  # key, start, mark

    def _exit(self):
        now = time.perf_counter()
        self._charge_top(now)
        _, start, _ = self.stack.pop()
        if self.stack:
            self.stack[-1][2] = now
        self.spans += 1
        return now - start

    def _switch(self, group):
        """Close the current group's open time and start a new group."""
        self._charge_top(time.perf_counter())
        self.groups.append(group)

    def _count(self, **kw):
        g = self.groups[-1]
        for k, v in kw.items():
            g.counts[k] += int(v)

    def _wrap(self, owner, attr, make):
        orig = owner.__dict__[attr]
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def _span(self, key, fn, after=None):
        tracer = self

        def wrapper(*a, **kw):
            tracer._enter(key)
            try:
                out = fn(*a, **kw)
            finally:
                tracer._exit()
            if after is not None:
                after(a, kw, out)
            return out
        return wrapper

    # -- level bookkeeping ----------------------------------------------
    def _close_level(self, ledger_now):
        if self._snap is not None:
            self.groups[-1].ledger = {k: getattr(ledger_now, k) - self._snap[k]
                                      for k in LEDGER_KEYS}
            self._snap = None

    def _level_increments(self, orig):
        def wrapper(p, params, level, seed, ledger):
            self._close_level(ledger)
            m = 1 << level
            self._switch(Group(
                f"{params.variant}/l{level}", N=params.N[level], m=m,
                deep=level >= params.L - 2))
            self._snap = {k: getattr(ledger, k) for k in LEDGER_KEYS}
            return self._span("mlmc", orig)(p, params, level, seed, ledger)
        return wrapper

    def _run(self, orig):
        def wrapper(*a, **kw):
            self._enter("mlmc")
            try:
                rep = orig(*a, **kw)
            finally:
                self.run_s += self._exit()
            self._close_level(rep.ledger)
            self._switch(Group("after"))
            self.reports.append(rep)
            return rep
        return wrapper

    # -- counters derived from shapes -------------------------------------
    def _euler_counts(self, a, kw, out):
        inc = a[1]
        n, m, _ = inc.shape
        deep = "deep" if self.groups[-1].deep else "shallow"
        self._count(path_steps=n * m, python_steps=m, coeff_evals=2 * n * m,
                    array_bytes=inc.nbytes + out.nbytes,
                    **{f"path_steps_{deep}": n * m})

    def _paths(self, orig, owner_is_mlmc):
        fine = self._span("euler.fine", orig, self._euler_counts)
        coarse = self._span("euler.coarse", orig, self._euler_counts)

        def wrapper(p, increments, ledger=None):
            g = self.groups[-1]
            is_coarse = owner_is_mlmc and increments.shape[1] < g.m
            span = coarse if is_coarse else fine
            return span(p, increments, ledger=ledger)
        return wrapper

    def _draw_counts(self, a, kw, out):
        self._count(bits=out.size * a[1])

    def _combine_counts(self, a, kw, out):
        g = self.groups[-1]
        self._count(combine_calls=1, outputs=out.size,
                    useful=min(g.N, out.shape[0]) * out.shape[1])

    def _quantile_counts(self, a, kw, out):
        self._count(quantile_values=getattr(out, "size", 1))

    def _coin_counts(self, a, kw, out):
        self._count(coins=out.size)

    def _info_counts(self, a, kw, out):
        values = a[0]
        self._count(info_cost=values.shape[0] * values.shape[1])

    def _strong_row(self, orig):
        span = self._span("euler.other", orig)

        def wrapper(p, m, q, reps, seed):
            self._switch(Group(f"q{q}", N=reps, m=m))
            out = span(p, m, q, reps, seed)
            self._switch(Group("after"))
            return out
        return wrapper

    def _functional(self, orig):
        def wrapper(*a, **kw):
            f = orig(*a, **kw)
            return replace(f, eval_batch=self._span(
                "functionals.eval", f.eval_batch, self._info_counts))
        return wrapper

    # -- install / restore -------------------------------------------------
    def install(self):
        s = self._span
        self._wrap(mlmc, "run", self._run)
        self._wrap(mlmc, "_level_increments", self._level_increments)
        self._wrap(mlmc, "classical_increments",
                   lambda f: s("euler.increments", f, self._coin_counts))
        self._wrap(mlmc, "bit_increments",
                   lambda f: s("euler.increments", f))
        self._wrap(mlmc, "coarse_from_fine",
                   lambda f: s("euler.coarse_from_fine", f))
        self._wrap(mlmc, "euler_paths_batch", lambda f: self._paths(f, True))
        self._wrap(euler, "euler_paths_batch", lambda f: self._paths(f, False))
        self._wrap(euler, "quantized_increments_from_normals",
                   lambda f: s("euler.increments", f))
        self._wrap(euler, "bit_vs_classical_sup_sq", self._strong_row)
        self._wrap(BitSource, "draw_dyadic_numerators",
                   lambda f: s("bitsource.draw", f, self._draw_counts))
        self._wrap(BitSource, "draw_dyadic_values",
                   lambda f: s("bitsource.draw", f))
        for name in ("quadratic_outputs", "logarithmic_outputs"):
            self._wrap(mlmc, name, lambda f: s("bakhvalov.combine", f,
                                               self._combine_counts))
        for owner in (mlmc, euler, qnormal):
            self._wrap(owner, "normal_quantile",
                       lambda f: s("qnormal.quantile", f,
                                   self._quantile_counts))
        self._wrap(euler, "quantize_normal",
                   lambda f: s("qnormal.quantile", f))
        self._wrap(functionals, "preset_functional", self._functional)

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        """Every patched attribute is the original object again."""
        return all(owner.__dict__[attr] is orig
                   for owner, attr, orig in self._patched)

    def call_cli(self, argv):
        """cli.main under the root span."""
        self._enter("cli")
        try:
            return cli.main(argv)
        finally:
            self.root_s += self._exit()

    # -- summaries -----------------------------------------------------------
    def totals(self):
        self_s, counts = defaultdict(float), defaultdict(int)
        for g in self.groups:
            for k, v in g.self_s.items():
                self_s[k] += v
            for k, v in g.counts.items():
                counts[k] += v
        return self_s, counts

    def ledger_mismatches(self) -> list[str]:
        """Shape-derived counts must equal the ledger, per level and in sum."""
        fails = []
        shape_key = {"bit_count": "bits", "coin_count": "coins",
                     "info_cost": "info_cost", "coeff_evals": "coeff_evals"}
        summed = defaultdict(int)
        for g in self.groups:
            if g.ledger is None:
                continue
            for k in LEDGER_KEYS:
                summed[k] += g.ledger[k]
                if g.ledger[k] != g.counts[shape_key[k]]:
                    fails.append(f"{g.label} {k}: ledger {g.ledger[k]} != "
                                 f"counted {g.counts[shape_key[k]]}")
        for k in LEDGER_KEYS:
            total = sum(getattr(r.ledger, k) for r in self.reports)
            if summed[k] != total:
                fails.append(f"{k}: levels sum {summed[k]} != report {total}")
        return fails

    def level_rows(self):
        """Per-level table rows: label, N, m, ledger deltas, self times, MB."""
        rows = []
        for g in self.groups:
            if g.N == 0:
                continue
            led = g.ledger or {k: "" for k in LEDGER_KEYS}
            rows.append([g.label, g.N, g.m] + [led[k] for k in LEDGER_KEYS]
                        + [round(g.self_s.get(k, 0.0), 4) for k in TIME_KEYS
                           if k != "cli"]
                        + [round(g.counts["array_bytes"] / 2**20, 2)])
        header = (["level", "N", "m"] + list(LEDGER_KEYS)
                  + [f"{k}_s" for k in TIME_KEYS if k != "cli"]
                  + ["euler_array_mb"])
        return header, rows

    def peak_array_mb(self) -> float:
        """Largest per-level sum of Euler input and output bytes (computed)."""
        return max((g.counts["array_bytes"] for g in self.groups),
                   default=0) / 2**20
