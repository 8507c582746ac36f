"""Layer probes run outside the workloads' own calls.

``forward_rows_per_s`` measures a network's forward throughput at one
fixed batch size, the lever behind lockstep batching and the targets
module's 64-row chunking.  ``solver_seconds_per_generation`` runs the
solver on a linear neuron for a fixed number of generations, so
ask/tell/eigh cost is seen without the cascade.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tunescope.search import sphere_search_objective
from tunescope.solver import SolverConfig, default_population_size, maximize
from tunescope.stimulus import project_sphere
from tunescope.targets import linear_neuron

PROBE_SECONDS = 0.25
REPEATS = 3


def _unit_rows(rng: np.random.Generator, count: int, size: int) -> np.ndarray:
    rows = rng.standard_normal((count, size))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def forward_rows_per_s(network, batch: int, seed: int) -> float:
    """Median rows/s over repeats of at least ``PROBE_SECONDS`` each."""
    rows = _unit_rows(np.random.default_rng(seed), batch, network.size)
    network.batch(rows)
    rates = []
    for _ in range(REPEATS):
        calls = 0
        start = time.perf_counter()
        while True:
            network.batch(rows)
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= PROBE_SECONDS:
                break
        rates.append(calls * batch / elapsed)
    return statistics.median(rates)


def solver_seconds_per_generation(side: int, generations: int, seed: int) -> float:
    """Median seconds per generation of ``maximize`` on a linear neuron."""
    rng = np.random.default_rng(seed)
    n = side * side
    weights = project_sphere(rng.standard_normal(n), 1.0, (side, side))
    objective = sphere_search_objective(linear_neuron(weights), 1.0)
    start_point = project_sphere(rng.standard_normal(n), 1.0, (side, side))
    lam = default_population_size(n)
    config = SolverConfig(
        max_evaluations=1 + generations * lam,
        stagnation_window=generations + 1,
        seed=seed,
    )
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _, trace = maximize(objective, start_point, config)
        samples.append((time.perf_counter() - start) / trace.generations)
    return statistics.median(samples)
