"""Span tracing of countmix's public functions, for the per-layer metrics.

``Tracer.install`` wraps every public function of every countmix module
at every place its name is bound: a function imported into another
module (``em_fit`` into ``selection``, ``ga`` and ``cli``) is a separate
binding that a single patch would miss.  The wrappers only time and
count; ``uninstall`` puts the original objects back.

Each call becomes a span (name, parent, start, end).  Self time is a
span's duration minus that of its direct children.  A few wrappers also
look at arguments or results to count work the spans cannot show, such
as Newton iterations or GA cache hits.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("data", "countglm", "mixture", "criteria", "selection", "ga", "reports", "cli")


def _public_functions(module):
    prefix = module.__name__
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == prefix:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._em_fit_sig = None

    # -- installation -------------------------------------------------------

    def install(self):
        import countmix

        modules = [countmix] + [sys.modules[f"countmix.{m}"] for m in MODULES]
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"countmix.{short}"]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        self._em_fit_sig = inspect.signature(sys.modules["countmix.mixture"].em_fit)
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, hit[1])

    def uninstall(self):
        for module, name, obj in reversed(self._patched):
            setattr(module, name, obj)
        self._patched.clear()

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        names, parent, start, end, stack = self.names, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs, idx)
            return result

        return traced

    # -- counters read from arguments and results ---------------------------

    def _after_countglm_fit_poisson(self, fit, args, kwargs, idx):
        self._bump("newton_iters", fit.iterations)

    _after_countglm_fit_nb2 = _after_countglm_fit_poisson

    def _after_mixture_em_fit(self, model, args, kwargs, idx):
        bound = self._em_fit_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        attempted = bound.arguments["restarts"]
        if model.G != bound.arguments["G"]:
            kept = 0  # every restart collapsed; the model is a G-1 refit
        else:
            kept = attempted - sum(w.startswith("restart ") for w in model.warnings)
        self._bump("restarts_attempted", attempted)
        self._bump("restarts_kept", kept)
        p = self.parent[idx]
        if p < 0 or self.names[p] != "mixture.em_fit":
            self._bump("em_top")
            self._bump("em_iters", model.iterations)
            self._bump("em_capped", 0 if model.converged else 1)

    def _after_criteria_score_model(self, row, args, kwargs, idx):
        self._bump("icomp_available", 0 if row.icomp is None else 1)

    def _before_ga_fitness(self, args, kwargs):
        mask = args[0] if args else kwargs["mask"]
        cache = args[5] if len(args) > 5 else kwargs["cache"]
        self._bump("cache_hits" if mask.key in cache else "cache_misses")

    def _after_reports_write_text_atomic(self, result, args, kwargs, idx):
        text = args[1] if len(args) > 1 else kwargs["text"]
        self._bump("bytes", len(text.encode("utf-8")))

    # -- summaries ----------------------------------------------------------

    def spans(self):
        return len(self.start)

    def totals(self):
        """{span name: (calls, inclusive seconds, self seconds)}."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            acc = out.setdefault(self.names[i], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[i]
        return {k: tuple(v) for k, v in out.items()}

    def em_fit_top_s(self):
        total = 0.0
        for i, name in enumerate(self.names):
            if name == "mixture.em_fit":
                p = self.parent[i]
                if p < 0 or self.names[p] != "mixture.em_fit":
                    total += self.end[i] - self.start[i]
        return total

    def write(self, path):
        """All spans as JSON: a name table and [name, parent, start, end] rows."""
        table = sorted(set(self.names))
        ids = {name: k for k, name in enumerate(table)}
        t0 = self.start[0] if self.start else 0.0
        rows = [
            [ids[self.names[i]], self.parent[i], round(self.start[i] - t0, 9), round(self.end[i] - t0, 9)]
            for i in range(len(self.start))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "fields": ["name", "parent", "start_s", "end_s"], "spans": rows}, fh)


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("countglm.fit_calls", "count"),
    ("countglm.fit_self_s", "s"),
    ("countglm.newton_iters", "count"),
    ("countglm.logpmf_calls", "count"),
    ("countglm.logpmf_s", "s"),
    ("countglm.rank_checks", "count"),
    ("countglm.rank_check_s", "s"),
    ("mixture.em_fits", "count"),
    ("mixture.em_fit_s", "s"),
    ("mixture.em_iters", "count"),
    ("mixture.em_capped", "count"),
    ("mixture.restarts_kept", "ratio"),
    ("mixture.init_s", "s"),
    ("mixture.m_step_calls", "count"),
    ("mixture.m_step_self_s", "s"),
    ("mixture.logf_evals", "count"),
    ("mixture.logf_evals_per_iter", "ratio"),
    ("mixture.e_step_s", "s"),
    ("mixture.loglik_s", "s"),
    ("criteria.score_calls", "count"),
    ("criteria.score_s", "s"),
    ("criteria.info_s", "s"),
    ("criteria.icomp_available", "ratio"),
    ("selection.sweep_calls", "count"),
    ("selection.sweep_self_s", "s"),
    ("selection.gate_s", "s"),
    ("ga.fitness_calls", "count"),
    ("ga.fitness_self_s", "s"),
    ("ga.masks_fitted", "count"),
    ("ga.cache_hit", "ratio"),
    ("ga.evolve_self_s", "s"),
    ("data.load_s", "s"),
    ("data.apply_mask_calls", "count"),
    ("reports.write_s", "s"),
    ("reports.bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("host.wall_s", "s"),
    ("host.block_s", "s"),
)


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float, block_s: float) -> dict:
    """The per-layer metrics of one traced repetition, by name.

    ``untraced_wall_s`` is the timed runs' job time before scaling to the
    reference host speed, and ``block_s`` their median calibration block.
    """
    t = tracer.totals()
    c = tracer.counts

    def calls(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

    m_steps = calls("mixture.m_step")
    logf = calls("mixture.e_step", "mixture.mixture_loglik")
    lookups = c.get("cache_hits", 0) + c.get("cache_misses", 0)
    fits = ("countglm.fit_poisson", "countglm.fit_nb2")
    logpmf = ("countglm.poisson_logpmf", "countglm.nb2_logpmf")
    values = {
        "countglm.fit_calls": calls(*fits),
        "countglm.fit_self_s": self_s(*fits),
        "countglm.newton_iters": c.get("newton_iters", 0),
        "countglm.logpmf_calls": calls(*logpmf),
        "countglm.logpmf_s": incl(*logpmf),
        "countglm.rank_checks": calls("countglm.check_design_rank"),
        "countglm.rank_check_s": incl("countglm.check_design_rank"),
        "mixture.em_fits": c.get("em_top", 0),
        "mixture.em_fit_s": tracer.em_fit_top_s(),
        "mixture.em_iters": c.get("em_iters", 0),
        "mixture.em_capped": c.get("em_capped", 0),
        "mixture.restarts_kept": _ratio(c.get("restarts_kept", 0), c.get("restarts_attempted", 0)),
        "mixture.init_s": incl("mixture.init_by_count_mixture"),
        "mixture.m_step_calls": m_steps,
        "mixture.m_step_self_s": self_s("mixture.m_step"),
        "mixture.logf_evals": logf,
        "mixture.logf_evals_per_iter": _ratio(logf, m_steps),
        "mixture.e_step_s": incl("mixture.e_step"),
        "mixture.loglik_s": incl("mixture.mixture_loglik"),
        "criteria.score_calls": calls("criteria.score_model"),
        "criteria.score_s": incl("criteria.score_model"),
        "criteria.info_s": incl("criteria.observed_info"),
        "criteria.icomp_available": _ratio(c.get("icomp_available", 0), calls("criteria.score_model")),
        "selection.sweep_calls": calls("selection.sweep"),
        "selection.sweep_self_s": self_s("selection.sweep"),
        "selection.gate_s": incl("selection.choose_family"),
        "ga.fitness_calls": calls("ga.fitness"),
        "ga.fitness_self_s": self_s("ga.fitness"),
        "ga.masks_fitted": c.get("cache_misses", 0),
        "ga.cache_hit": _ratio(c.get("cache_hits", 0), lookups),
        "ga.evolve_self_s": self_s("ga.evolve"),
        "data.load_s": incl("data.load_csv"),
        "data.apply_mask_calls": calls("data.apply_mask"),
        "reports.write_s": incl("reports.write_text_atomic"),
        "reports.bytes": c.get("bytes", 0),
        "cli.self_s": sum((v[2] for k, v in t.items() if k.startswith("cli.")), 0.0),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.spans": tracer.spans(),
        "host.wall_s": untraced_wall_s,
        "host.block_s": block_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
