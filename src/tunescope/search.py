"""Characterization procedures on the energy sphere.

Five building blocks: optimal-stimulus search, invariance and
selectivity path searches on cones of fixed angular distance,
statistical subspace sampling at one cone angle, reconstruction of
reference stimuli through response matching, and unoptimized random
walks.  All of them compose projections into the objective and derive
every random stream from one configured seed, so a full
characterization is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .seeds import derive_rng, derive_seed
from .solver import (
    ProjectedObjective,
    SearchTrace,
    SolverConfig,
    maximize,
    minimize,
    seeded_init,
    sphere_objective,
)
from .stimulus import Stimulus, angular_distance, project_cone_batch, random_orthogonal_unit
from .targets import TargetHandle

__all__ = [
    "SearchConfig",
    "OptimalStimulusResult",
    "PathResult",
    "SubspaceSample",
    "ReconstructionSet",
    "optimal_stimulus",
    "invariance_path",
    "selectivity_path",
    "subspace_sample",
    "reconstruct",
    "random_walk_curve",
    "sphere_search_objective",
    "cone_search_objective",
    "sphere_violation",
    "cone_violation",
    "default_deltas",
]


def default_deltas() -> tuple[float, ...]:
    return tuple(0.1 * np.pi * k for k in range(1, 6))


@dataclass(frozen=True)
class SearchConfig:
    """Budgets, grids and seeding for one full characterization.

    Budgets are per dimension: a target with N inputs gets
    ``optimal_budget_per_dim * N`` evaluations for each optimal-stimulus
    run and ``path_budget_per_dim * N`` per cone angle.  Cone angles
    (``deltas`` and ``subspace_delta``) must lie in (0, pi].
    """

    seed: int = 0
    energy: float = 1.0
    optimal_runs: int = 2
    optimal_budget_per_dim: int = 100
    optimal_sigma0: float = 0.3
    seed_candidates: int = 1000
    alpha_set: tuple[float, ...] = (-4.0, -3.0, -2.0, -1.0, 0.0)
    deltas: tuple[float, ...] = field(default_factory=default_deltas)
    path_budget_per_dim: int = 20
    path_sigma0: float = 0.1
    subspace_runs: int = 20
    subspace_delta: float = 0.1 * np.pi
    reconstruct_runs: int = 10
    reconstruct_budget_per_dim: int = 100
    stagnation_window: int = 20
    step_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        for delta in (*self.deltas, self.subspace_delta):
            if not 0 < delta <= np.pi:
                raise ValueError(f"cone angle {delta} outside (0, pi]")

    def scaled(self, **overrides) -> "SearchConfig":
        return replace(self, **overrides)


@dataclass(frozen=True)
class OptimalStimulusResult:
    x_hat: Stimulus
    fitness: float
    trace: SearchTrace
    init_source: dict
    run_records: tuple[dict, ...]


@dataclass(frozen=True)
class PathResult:
    kind: str  # invariance | selectivity
    deltas: tuple[float, ...]
    points: tuple[Stimulus, ...]
    fitnesses: tuple[float, ...]
    run_index: int = 0


@dataclass(frozen=True)
class SubspaceSample:
    kind: str
    delta: float
    columns: tuple[Stimulus, ...]
    fitnesses: tuple[float, ...]
    anchor: Stimulus | None = None


@dataclass(frozen=True)
class ReconstructionSet:
    reference: Stimulus
    reference_response: np.ndarray
    reconstructions: tuple[Stimulus, ...]
    fitnesses: tuple[float, ...]


# ---------------------------------------------------------------------------
# projection-composed objectives


def sphere_search_objective(target: TargetHandle, energy: float) -> ProjectedObjective:
    """Scalar target constrained to the energy sphere."""
    return sphere_objective(target.scalar_batch, (target.height, target.width), energy)


def cone_search_objective(
    target: TargetHandle,
    x_hat: Stimulus,
    delta: float,
    fallback_rng: np.random.Generator,
) -> ProjectedObjective:
    """Scalar target constrained to the cone at ``delta`` around ``x_hat``.

    Raw points parallel to the axis have no direction on the cone; such
    rows get a random orthogonal direction from ``fallback_rng``.
    """
    return ProjectedObjective(
        height=x_hat.height,
        width=x_hat.width,
        energy=x_hat.energy,
        project_batch=lambda raw: project_cone_batch(raw, x_hat, delta, fallback_rng),
        fitness_batch=target.scalar_batch,
    )


def sphere_violation(stimulus: Stimulus, energy: float) -> float:
    """Relative norm error against the declared energy."""
    return abs(float(np.linalg.norm(stimulus.values)) - energy) / energy


def cone_violation(stimulus: Stimulus, x_hat: Stimulus, delta: float) -> float:
    """Angular error against the declared cone angle, in radians."""
    return abs(angular_distance(stimulus, x_hat) - delta)


# ---------------------------------------------------------------------------
# procedures


def _solver_config(config: SearchConfig, budget: int, sigma0: float, seed) -> SolverConfig:
    return SolverConfig(
        max_evaluations=budget,
        initial_step=sigma0,
        step_tolerance=config.step_tolerance,
        stagnation_window=config.stagnation_window,
        seed=seed,
    )


def optimal_stimulus(target: TargetHandle, config: SearchConfig) -> OptimalStimulusResult:
    """Best of ``optimal_runs`` independent seeded searches."""
    if target.response_dim != 1:
        raise ValueError("optimal stimulus search needs a scalar target")
    objective = sphere_search_objective(target, config.energy)
    n = target.size
    budget = config.optimal_budget_per_dim * n

    best = None
    records = []
    for run in range(config.optimal_runs):
        init_rng = derive_rng(config.seed, "optimal", run, "init")
        x0, init_fitness, init_evals = seeded_init(
            objective, config.seed_candidates, config.alpha_set, init_rng
        )
        solver_config = _solver_config(
            config, budget, config.optimal_sigma0, derive_seed(config.seed, "optimal", run, "solver")
        )
        point, trace = maximize(objective, x0, solver_config)
        records.append(
            {
                "run": run,
                "init_fitness": init_fitness,
                "init_evaluations": init_evals,
                "fitness": trace.best_fitness,
                "evaluations": trace.evaluations_used,
                "termination": trace.termination_reason.value,
            }
        )
        if best is None or trace.best_fitness > best[1]:
            best = (point, trace.best_fitness, trace)

    point, fitness, trace = best
    init_source = {
        "seed_candidates": config.seed_candidates,
        "alpha_set": list(config.alpha_set),
        "runs": config.optimal_runs,
    }
    return OptimalStimulusResult(
        x_hat=point,
        fitness=float(fitness),
        trace=trace,
        init_source=init_source,
        run_records=tuple(records),
    )


def _path(
    target: TargetHandle,
    x_hat: Stimulus,
    config: SearchConfig,
    kind: str,
    run_index: int = 0,
) -> PathResult:
    optimizer = maximize if kind == "invariance" else minimize
    n = target.size
    budget = config.path_budget_per_dim * n
    points = []
    fitnesses = []
    current = x_hat
    for k, delta in enumerate(sorted(config.deltas)):
        fallback = derive_rng(config.seed, "path", kind, run_index, k, "degenerate")
        objective = cone_search_objective(target, x_hat, delta, fallback)
        solver_config = _solver_config(
            config,
            budget,
            config.path_sigma0,
            derive_seed(config.seed, "path", kind, run_index, k, "solver"),
        )
        point, trace = optimizer(objective, current, solver_config)
        points.append(point)
        fitnesses.append(float(trace.best_fitness))
        current = point
    return PathResult(
        kind=kind,
        deltas=tuple(sorted(config.deltas)),
        points=tuple(points),
        fitnesses=tuple(fitnesses),
        run_index=run_index,
    )


def invariance_path(
    target: TargetHandle, x_hat: Stimulus, config: SearchConfig, run_index: int = 0
) -> PathResult:
    """Maximize along ascending cone angles, warm-starting each from the last."""
    return _path(target, x_hat, config, "invariance", run_index)


def selectivity_path(
    target: TargetHandle, x_hat: Stimulus, config: SearchConfig, run_index: int = 0
) -> PathResult:
    """Minimize along ascending cone angles, warm-starting each from the last."""
    return _path(target, x_hat, config, "selectivity", run_index)


def subspace_sample(
    target: TargetHandle,
    x_hat: Stimulus,
    config: SearchConfig,
    kind: str = "invariance",
) -> SubspaceSample:
    """Independent cone searches from scattered starts at one angle."""
    if kind not in ("invariance", "selectivity"):
        raise ValueError(f"unknown kind {kind!r}")
    optimizer = maximize if kind == "invariance" else minimize
    n = target.size
    budget = config.path_budget_per_dim * n
    delta = config.subspace_delta
    columns = []
    fitnesses = []
    for i in range(config.subspace_runs):
        fallback = derive_rng(config.seed, "subspace", kind, i, "degenerate")
        objective = cone_search_objective(target, x_hat, delta, fallback)
        start_rng = derive_rng(config.seed, "subspace", kind, i, "start")
        start_direction = random_orthogonal_unit(x_hat, start_rng)
        start = objective.as_stimulus(start_direction.values)
        solver_config = _solver_config(
            config,
            budget,
            config.path_sigma0,
            derive_seed(config.seed, "subspace", kind, i, "solver"),
        )
        point, trace = optimizer(objective, start, solver_config)
        columns.append(point)
        fitnesses.append(float(trace.best_fitness))
    return SubspaceSample(
        kind=kind,
        delta=delta,
        columns=tuple(columns),
        fitnesses=tuple(fitnesses),
        anchor=x_hat,
    )


def reconstruct(
    target: TargetHandle, x_star: Stimulus, config: SearchConfig
) -> ReconstructionSet:
    """Recover stimuli whose responses match the reference's response.

    The search runs on the sphere only; no distance constraint ties the
    reconstructions to the reference.
    """
    from .targets import match_fitness

    reference_response = target.evaluate(x_star)
    matcher = match_fitness(target, reference_response)
    objective = sphere_search_objective(matcher, config.energy)
    n = target.size
    budget = config.reconstruct_budget_per_dim * n
    reconstructions = []
    fitnesses = []
    for i in range(config.reconstruct_runs):
        init_rng = derive_rng(config.seed, "reconstruct", i, "init")
        x0, _, _ = seeded_init(objective, config.seed_candidates, config.alpha_set, init_rng)
        solver_config = _solver_config(
            config,
            budget,
            config.optimal_sigma0,
            derive_seed(config.seed, "reconstruct", i, "solver"),
        )
        point, trace = maximize(objective, x0, solver_config)
        reconstructions.append(point)
        fitnesses.append(float(trace.best_fitness))
    return ReconstructionSet(
        reference=x_star,
        reference_response=reference_response,
        reconstructions=tuple(reconstructions),
        fitnesses=tuple(fitnesses),
    )


def random_walk_curve(
    target: TargetHandle,
    x_hat: Stimulus,
    deltas: tuple[float, ...],
    n_walks: int,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """Unoptimized fitness along random great-circle directions.

    Each walk draws one orthogonal direction and reuses it for every
    angle, so a walk traces a single geodesic away from the optimum.
    """
    if n_walks < 1:
        raise ValueError("need at least one walk")
    samples = []
    for _ in range(n_walks):
        direction = random_orthogonal_unit(x_hat, rng)
        for delta in deltas:
            blend = np.cos(delta) * x_hat.values + np.sin(delta) * direction.values
            stimulus = Stimulus(
                values=blend, height=x_hat.height, width=x_hat.width, energy=x_hat.energy
            )
            fitness = float(target.scalar_batch(stimulus.values[None, :])[0])
            samples.append((float(delta), fitness))
    return samples
