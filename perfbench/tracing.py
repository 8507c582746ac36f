"""Span tracing of tunescope's layers from outside the package.

The tracer wraps each layer's public entry points where the calling
layer looks them up (module attributes of ``tunescope.search``,
``tunescope.bench`` and ``tunescope.solver``, plus the network
``TargetHandle.batch`` and the solver's eigendecomposition step),
records one span per call and restores every attribute on exit.
Nothing inside ``src/tunescope`` is edited.

A span is (id, parent id, name, start, end).  Spans stay in memory and
are written once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children; spans nest
strictly because the workloads are single-threaded.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import tunescope.bench as ts_bench
import tunescope.search as ts_search
import tunescope.solver as ts_solver

# bench-level measure functions, as looked up by tunescope.bench
_MEASURES = (
    "spectral_complexity",
    "explanation_power",
    "encoding_specificity",
    "path_potential_unit",
    "path_potential_population",
    "subspace_capacity",
    "subspace_alignment",
    "build_fd_diagram",
)
_PROCEDURES = {
    "optimal_stimulus": "optimal",
    "invariance_path": "invariance",
    "selectivity_path": "selectivity",
    "subspace_sample": "subspace",
    "reconstruct": "reconstruct",
}
_STORE = ("_write_network_artifacts", "write_measures_csv", "write_correlation_csv")
_BENCH = ("characterize_unit", "characterize_population", "pair_matching_performance", "run_study")
_OBJECTIVES = ("sphere_search_objective", "cone_search_objective")

ROOT = "iteration"
# summary values fixed by the workload and seed: they must repeat exactly
DETERMINISTIC = (
    "targets.calls",
    "targets.rows",
    "targets.rows_per_call",
    "solver.searches",
    "solver.generations",
    "solver.evals_used",
    "solver.evals_budget",
    "solver.budget_use_ratio",
    "solver.stop.budget",
    "solver.stop.stagnation",
    "solver.stop.step_tolerance",
    "solver.eigen_updates",
    "solver.seed_calls",
    "solver.seed_rows",
    "search.project_rows",
    "stimulus.pink_noise_calls",
    "measures.calls",
    "bench.store_bytes",
)
LAYERS = ("targets", "solver", "search", "stimulus", "measures", "stats", "bench")


class Tracer:
    """Span recorder plus the per-search and per-call counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = [-1]
        self.rows: Counter = Counter()
        self.searches: list[dict] = []
        self.seed_rows = 0
        self.eigen_updates = 0

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1]
        self.spans.append((span_id, parent, name, 0.0, 0.0))
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- layer wrappers ---------------------------------------------------

    def network(self, handle):
        """A copy of a network handle whose ``batch`` is a targets span."""
        inner = handle.batch

        def batch(matrix):
            self.rows["targets"] += len(matrix)
            with self.span("targets.batch"):
                return inner(matrix)

        return dataclasses.replace(handle, batch=batch)

    def _objective_factory(self, factory):
        def build(*args, **kwargs):
            objective = factory(*args, **kwargs)
            inner = objective.project_batch

            def project(raw):
                self.rows["project"] += len(raw)
                with self.span("search.project"):
                    return inner(raw)

            return dataclasses.replace(objective, project_batch=project)

        return build

    def _search(self, name: str, fn):
        def run(objective, x0, config):
            with self.span(name):
                point, trace = fn(objective, x0, config)
            self.searches.append(
                {
                    "generations": trace.generations,
                    "evals_used": trace.evaluations_used,
                    "evals_budget": config.max_evaluations,
                    "stop": trace.termination_reason.value,
                }
            )
            return point, trace

        return run

    def _eigensystem(self, method):
        """Wrap ``_Strategy._update_eigensystem``, the solver's O(n^3) step."""

        def update(strategy):
            before = strategy.updated_eval
            with self.span("solver.eigen"):
                method(strategy)
            if strategy.updated_eval != before:
                self.eigen_updates += 1

        return update

    def _seeded_init(self, fn):
        def run(*args, **kwargs):
            with self.span("solver.seeded_init"):
                result = fn(*args, **kwargs)
            self.seed_rows += result[2]
            return result

        return run

    @contextmanager
    def installed(self):
        """Patch every layer entry point; restore them all on exit."""
        patches = [
            (ts_search, "maximize", self._search("solver.maximize", ts_search.maximize)),
            (ts_search, "minimize", self._search("solver.minimize", ts_search.minimize)),
            (ts_search, "seeded_init", self._seeded_init(ts_search.seeded_init)),
            (ts_solver._Strategy, "_update_eigensystem",
             self._eigensystem(ts_solver._Strategy._update_eigensystem)),
            (ts_solver, "sample_pink_noise",
             self.wrap("stimulus.pink_noise", ts_solver.sample_pink_noise)),
            (ts_bench, "correlation_table",
             self.wrap("stats.correlation_table", ts_bench.correlation_table)),
        ]
        patches += [
            (ts_search, name, self._objective_factory(getattr(ts_search, name)))
            for name in _OBJECTIVES
        ]
        patches += [
            (ts_bench, name, self.wrap(f"search.{label}", getattr(ts_bench, name)))
            for name, label in _PROCEDURES.items()
        ]
        patches += [
            (ts_bench, name, self.wrap(f"measures.{name}", getattr(ts_bench, name)))
            for name in _MEASURES
        ]
        patches += [
            (ts_bench, name, self.wrap(f"bench.store.{name.lstrip('_')}", getattr(ts_bench, name)))
            for name in _STORE
        ]
        patches += [
            (ts_bench, name, self.wrap(f"bench.{name}", getattr(ts_bench, name)))
            for name in _BENCH
        ]
        saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, wrapper in patches:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer counts and times of everything recorded so far.

        Counts are deterministic for a given workload and seed; the
        ``*_s`` entries are wall-clock seconds.
        """
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        calls = Counter()
        busy = defaultdict(float)
        self_time = defaultdict(float)
        for span_id, _, name, start, end in self.spans:
            calls[name] += 1
            busy[name] += end - start
            self_time[name] += end - start - child_time[span_id]

        def total(table, *names):
            return sum(table[n] for n in names)

        def by_prefix(table, prefix):
            return sum(v for n, v in table.items() if n.startswith(prefix))

        root_time = busy[ROOT]
        layer_self = defaultdict(float)
        for name, value in self_time.items():
            if name != ROOT:
                layer_self[name.split(".")[0]] += value

        stops = Counter(s["stop"] for s in self.searches)
        generations = sum(s["generations"] for s in self.searches)
        evals_used = sum(s["evals_used"] for s in self.searches)
        evals_budget = sum(s["evals_budget"] for s in self.searches)
        solver_self = total(self_time, "solver.maximize", "solver.minimize", "solver.eigen")
        targets_busy = busy["targets.batch"]
        out = {
            "targets.calls": calls["targets.batch"],
            "targets.rows": self.rows["targets"],
            "targets.rows_per_call": self.rows["targets"] / max(calls["targets.batch"], 1),
            "targets.busy_s": targets_busy,
            "targets.rows_per_busy_s": self.rows["targets"] / targets_busy if targets_busy else 0.0,
            "solver.searches": len(self.searches),
            "solver.generations": generations,
            "solver.evals_used": evals_used,
            "solver.evals_budget": evals_budget,
            "solver.budget_use_ratio": evals_used / evals_budget if evals_budget else 0.0,
            "solver.stop.budget": stops["budget"],
            "solver.stop.stagnation": stops["stagnation"],
            "solver.stop.step_tolerance": stops["step_tolerance"],
            "solver.busy_s": total(busy, "solver.maximize", "solver.minimize"),
            "solver.self_s": solver_self,
            "solver.self_s_per_gen": solver_self / generations if generations else 0.0,
            "solver.eigen_updates": self.eigen_updates,
            "solver.eigen_s": busy["solver.eigen"],
            "solver.seed_calls": calls["solver.seeded_init"],
            "solver.seed_rows": self.seed_rows,
            "solver.seed_s": busy["solver.seeded_init"],
            "search.project_s": busy["search.project"],
            "search.project_rows": self.rows["project"],
            "stimulus.pink_noise_calls": calls["stimulus.pink_noise"],
            "stimulus.pink_noise_s": busy["stimulus.pink_noise"],
            "measures.calls": sum(calls[f"measures.{n}"] for n in _MEASURES),
            "measures.busy_s": by_prefix(busy, "measures."),
            "stats.busy_s": busy["stats.correlation_table"],
            "bench.pair_matching_s": busy["bench.pair_matching_performance"],
            "bench.store_self_s": by_prefix(self_time, "bench.store."),
            "trace.wall_s": root_time,
            "trace.unattributed_ratio": self_time[ROOT] / root_time if root_time else 0.0,
        }
        for label in _PROCEDURES.values():
            out[f"search.{label}_s"] = busy[f"search.{label}"]
        for layer in LAYERS:
            out[f"layer_self_s.{layer}"] = layer_self[layer]
        return out

    def invalid_searches(self) -> list[dict]:
        return [s for s in self.searches if s["evals_used"] > s["evals_budget"]]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{start!r},{end!r}\n")
