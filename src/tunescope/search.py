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
from typing import Callable

import numpy as np

from .seeds import derive_rng, derive_seed
from .solver import (
    ProjectedObjective,
    Search,
    SearchTrace,
    SolverConfig,
    lockstep_groups,
    maximize,
    minimize,
    run_lockstep,
    seeded_init,
    sphere_objective,
)
from .stimulus import Stimulus, angular_distance, project_cone_batch, random_orthogonal_unit
from .targets import TargetHandle, match_fitness

__all__ = [
    "SearchConfig",
    "OptimalStimulusResult",
    "PathResult",
    "SubspaceSample",
    "ReconstructionSet",
    "SearchPlan",
    "optimal_plan",
    "reconstruct_plan",
    "run_plans",
    "optimal_stimulus",
    "cone_searches",
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


def _shared_forward(target: TargetHandle) -> dict:
    """The objective fields through which searches on wrappers of one
    network share its forward calls; none for a target that wraps none."""
    if target.network is None:
        return {}
    readout = target.readout
    return {"network": target.network, "readout": lambda responses: readout(responses)[:, 0]}


def sphere_search_objective(target: TargetHandle, energy: float) -> ProjectedObjective:
    """Scalar target constrained to the energy sphere."""
    objective = sphere_objective(target.scalar_batch, (target.height, target.width), energy)
    return replace(objective, **_shared_forward(target))


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
        **_shared_forward(target),
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


@dataclass(frozen=True)
class SearchPlan:
    """A procedure's independent searches, and ``finish``, which makes
    the procedure's result from their (point, trace) outcomes in order."""

    searches: tuple[Search, ...]
    finish: Callable[[list[tuple[Stimulus, SearchTrace]]], object]


def _run_searches(searches: list[Search]) -> list[tuple[Stimulus, SearchTrace]]:
    """Run independent searches; those that read one network go in
    lockstep groups, and a lone search goes through ``maximize`` or
    ``minimize``."""
    outcomes = []
    for group in lockstep_groups(searches):
        if len(group) > 1:
            outcomes += run_lockstep(group)
        else:
            (search,) = group
            optimizer = maximize if search.sign > 0 else minimize
            outcomes.append(optimizer(search.objective, search.x0, search.config))
    return outcomes


def run_plans(plans: list[SearchPlan]) -> list:
    """Run the searches of several plans together; return each plan's result."""
    outcomes = _run_searches([search for plan in plans for search in plan.searches])
    results = []
    for plan in plans:
        count = len(plan.searches)
        results.append(plan.finish(outcomes[:count]))
        outcomes = outcomes[count:]
    return results


def optimal_plan(target: TargetHandle, config: SearchConfig) -> SearchPlan:
    """Plan of ``optimal_stimulus``: its seedings run here, its searches
    when the plan runs."""
    if target.response_dim != 1:
        raise ValueError("optimal stimulus search needs a scalar target")
    objective = sphere_search_objective(target, config.energy)
    budget = config.optimal_budget_per_dim * target.size
    searches = []
    seedings = []
    for run in range(config.optimal_runs):
        init_rng = derive_rng(config.seed, "optimal", run, "init")
        x0, init_fitness, init_evals = seeded_init(
            objective, config.seed_candidates, config.alpha_set, init_rng
        )
        seedings.append((init_fitness, init_evals))
        solver_config = _solver_config(
            config, budget, config.optimal_sigma0, derive_seed(config.seed, "optimal", run, "solver")
        )
        searches.append(Search(objective, x0, solver_config))

    def finish(outcomes) -> OptimalStimulusResult:
        best = None
        records = []
        for run, ((init_fitness, init_evals), (point, trace)) in enumerate(zip(seedings, outcomes)):
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

    return SearchPlan(tuple(searches), finish)


def optimal_stimulus(target: TargetHandle, config: SearchConfig) -> OptimalStimulusResult:
    """Best of ``optimal_runs`` independent seeded searches."""
    return run_plans([optimal_plan(target, config)])[0]


_SIGNS = {"invariance": 1.0, "selectivity": -1.0}


def _cone_search(
    target: TargetHandle,
    x_hat: Stimulus,
    config: SearchConfig,
    delta: float,
    start: Stimulus | None,
    kind: str,
    *labels,
) -> Search:
    """One search on the cone at ``delta``; ``labels`` name its random
    streams.  With no ``start``, it starts from a random direction."""
    fallback = derive_rng(config.seed, *labels, "degenerate")
    objective = cone_search_objective(target, x_hat, delta, fallback)
    if start is None:
        direction = random_orthogonal_unit(x_hat, derive_rng(config.seed, *labels, "start"))
        start = objective.as_stimulus(direction.values)
    solver_config = _solver_config(
        config,
        config.path_budget_per_dim * target.size,
        config.path_sigma0,
        derive_seed(config.seed, *labels, "solver"),
    )
    return Search(objective, start, solver_config, _SIGNS[kind])


def cone_searches(
    target: TargetHandle,
    x_hat: Stimulus,
    config: SearchConfig,
    path_kinds: tuple[str, ...] = (),
    subspace_kinds: tuple[str, ...] = (),
    run_index: int = 0,
) -> tuple[list[PathResult], dict[str, SubspaceSample]]:
    """Path chains and subspace samples around ``x_hat``, run together.

    The chains advance one cone angle at a time, ascending.  At each
    angle, the step of every chain in ``path_kinds`` runs beside the
    others, warm-started from that chain's previous point; the subspace
    runs of ``subspace_kinds`` join the first angle.  Returns the paths
    in ``path_kinds`` order and the subspace samples by kind.
    """
    for kind in (*path_kinds, *subspace_kinds):
        if kind not in _SIGNS:
            raise ValueError(f"unknown kind {kind!r}")
    deltas = tuple(sorted(config.deltas))
    subspace = [
        _cone_search(target, x_hat, config, config.subspace_delta, None, kind, "subspace", kind, i)
        for kind in subspace_kinds
        for i in range(config.subspace_runs)
    ]
    chains = {kind: [] for kind in path_kinds}
    columns = None
    for k, delta in enumerate(deltas):
        steps = [
            _cone_search(
                target, x_hat, config, delta, chain[-1][0] if chain else x_hat,
                kind, "path", kind, run_index, k,
            )
            for kind, chain in chains.items()
        ]
        outcomes = _run_searches(steps + (subspace if k == 0 else []))
        for chain, outcome in zip(chains.values(), outcomes):
            chain.append(outcome)
        if k == 0:
            columns = outcomes[len(steps) :]
    if columns is None:
        columns = _run_searches(subspace)

    paths = [
        PathResult(
            kind=kind,
            deltas=deltas,
            points=tuple(point for point, _ in chain),
            fitnesses=tuple(float(trace.best_fitness) for _, trace in chain),
            run_index=run_index,
        )
        for kind, chain in chains.items()
    ]
    runs = config.subspace_runs
    samples = {}
    for j, kind in enumerate(subspace_kinds):
        part = columns[j * runs : (j + 1) * runs]
        samples[kind] = SubspaceSample(
            kind=kind,
            delta=config.subspace_delta,
            columns=tuple(point for point, _ in part),
            fitnesses=tuple(float(trace.best_fitness) for _, trace in part),
            anchor=x_hat,
        )
    return paths, samples


def invariance_path(
    target: TargetHandle, x_hat: Stimulus, config: SearchConfig, run_index: int = 0
) -> PathResult:
    """Maximize along ascending cone angles, warm-starting each from the last."""
    return cone_searches(target, x_hat, config, ("invariance",), run_index=run_index)[0][0]


def selectivity_path(
    target: TargetHandle, x_hat: Stimulus, config: SearchConfig, run_index: int = 0
) -> PathResult:
    """Minimize along ascending cone angles, warm-starting each from the last."""
    return cone_searches(target, x_hat, config, ("selectivity",), run_index=run_index)[0][0]


def subspace_sample(
    target: TargetHandle,
    x_hat: Stimulus,
    config: SearchConfig,
    kind: str = "invariance",
) -> SubspaceSample:
    """Independent cone searches from scattered starts at one angle."""
    return cone_searches(target, x_hat, config, subspace_kinds=(kind,))[1][kind]


def reconstruct_plan(target: TargetHandle, x_star: Stimulus, config: SearchConfig) -> SearchPlan:
    """Plan of ``reconstruct``: the reference is forwarded and the
    seedings run here, the searches when the plan runs."""
    reference_response = target.evaluate(x_star)
    objective = sphere_search_objective(match_fitness(target, reference_response), config.energy)
    budget = config.reconstruct_budget_per_dim * target.size
    searches = []
    for i in range(config.reconstruct_runs):
        init_rng = derive_rng(config.seed, "reconstruct", i, "init")
        x0, _, _ = seeded_init(objective, config.seed_candidates, config.alpha_set, init_rng)
        solver_config = _solver_config(
            config,
            budget,
            config.optimal_sigma0,
            derive_seed(config.seed, "reconstruct", i, "solver"),
        )
        searches.append(Search(objective, x0, solver_config))

    def finish(outcomes) -> ReconstructionSet:
        return ReconstructionSet(
            reference=x_star,
            reference_response=reference_response,
            reconstructions=tuple(point for point, _ in outcomes),
            fitnesses=tuple(float(trace.best_fitness) for _, trace in outcomes),
        )

    return SearchPlan(tuple(searches), finish)


def reconstruct(
    target: TargetHandle, x_star: Stimulus, config: SearchConfig
) -> ReconstructionSet:
    """Recover stimuli whose responses match the reference's response.

    The search runs on the sphere only; no distance constraint ties the
    reconstructions to the reference.
    """
    return run_plans([reconstruct_plan(target, x_star, config)])[0]


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
    Every blend is scored in one call.
    """
    if n_walks < 1:
        raise ValueError("need at least one walk")
    directions = [random_orthogonal_unit(x_hat, rng) for _ in range(n_walks)]
    angles = [float(delta) for _ in directions for delta in deltas]
    blends = np.array(
        [
            np.cos(delta) * x_hat.values + np.sin(delta) * direction.values
            for direction in directions
            for delta in deltas
        ]
    ).reshape(len(angles), x_hat.size)
    fitnesses = target.scalar_batch(blends)
    return [(delta, float(fitness)) for delta, fitness in zip(angles, fitnesses)]
