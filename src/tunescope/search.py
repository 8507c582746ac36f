"""Characterization procedures on the energy sphere.

Five building blocks: optimal-stimulus search, invariance and
selectivity path searches on cones of fixed angular distance,
statistical subspace sampling at one cone angle, reconstruction of
reference stimuli through response matching, and unoptimized random
walks.  All of them compose projections into the objective and derive
every random stream from one configured seed, so a full
characterization is reproducible bit for bit.

Each search procedure is a plan: a generator that does its set-up, then
yields rounds of independent searches and returns its result.
``run_plans`` runs plans together round by round, so searches that read
one network share its forward calls with unchanged results.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import check_fields, is_finite_real
from .seeds import derive_int, derive_rng, derive_seed
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
)
from .stimulus import Stimulus, angular_distance, project_cone_batch, project_sphere_batch
from .stimulus import random_orthogonal_unit
from .targets import TargetHandle, match_fitness

__all__ = [
    "SearchConfig",
    "OptimalStimulusResult",
    "PathResult",
    "SubspaceSample",
    "ReconstructionSet",
    "Plan",
    "run_plans",
    "optimal_plan",
    "path_plan",
    "subspace_plan",
    "reconstruct_plan",
    "optimal_stimulus",
    "invariance_path",
    "selectivity_path",
    "subspace_sample",
    "reconstruct",
    "encode_plans",
    "cone_stage",
    "random_walk_curve",
    "sphere_search_objective",
    "cone_search_objective",
    "sphere_violation",
    "cone_violation",
    "default_deltas",
]


def default_deltas() -> tuple[float, ...]:
    return tuple(0.1 * np.pi * k for k in range(1, 6))


_COUNTS = dict(
    seed=None, optimal_runs=1, optimal_budget_per_dim=1, seed_candidates=1,
    path_budget_per_dim=1, subspace_runs=2, reconstruct_runs=1, reconstruct_budget_per_dim=1,
    stagnation_window=1,
)

# The fixed probe geometry: the initial step of each sphere search and of
# each cone search, the spectral exponents that seeding noise cycles
# through, and the one cone angle of a subspace sample.  Each search stops
# on the step tolerance of ``SolverConfig``.
_OPTIMAL_SIGMA0 = 0.3
_PATH_SIGMA0 = 0.1
_ALPHA_SET = (-4.0, -3.0, -2.0, -1.0, 0.0)
_SUBSPACE_DELTA = 0.1 * np.pi


@dataclass(frozen=True)
class SearchConfig:
    """Budgets, grids and seeding for one full characterization.

    Every search runs on the unit-energy sphere, from the fixed initial
    steps, seeding exponents and subspace cone angle above.  Budgets are
    per dimension: a target with N inputs gets ``optimal_budget_per_dim *
    N`` evaluations for each optimal-stimulus run and
    ``path_budget_per_dim * N`` per cone angle.  The cone angles
    ``deltas``, at least one, are reals in (0, pi].  The seed is an
    integer.  A subspace needs at least two runs; every other run count,
    candidate count and budget, and the stagnation window, is an integer
    and at least 1.
    """

    seed: int = 0
    optimal_runs: int = 2
    optimal_budget_per_dim: int = 100
    seed_candidates: int = 1000
    deltas: tuple[float, ...] = field(default_factory=default_deltas)
    path_budget_per_dim: int = 20
    subspace_runs: int = 20
    reconstruct_runs: int = 10
    reconstruct_budget_per_dim: int = 100
    stagnation_window: int = 20

    def __post_init__(self) -> None:
        check_fields(self, _COUNTS, lists=("deltas",))
        if not self.deltas:
            raise ValueError("deltas needs at least one cone angle")
        for delta in self.deltas:
            if not (is_finite_real(delta) and 0 < delta <= np.pi):
                raise ValueError(f"deltas holds {delta!r}, not a real or outside (0, pi]")


@dataclass(frozen=True)
class OptimalStimulusResult:
    x_hat: Stimulus
    fitness: float
    run_records: tuple[dict, ...]


@dataclass(frozen=True)
class PathResult:
    kind: str  # invariance | selectivity
    deltas: tuple[float, ...]
    points: tuple[Stimulus, ...]
    fitnesses: tuple[float, ...]


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
    reconstructions: tuple[Stimulus, ...]
    fitnesses: tuple[float, ...]


# ---------------------------------------------------------------------------
# projection-composed objectives


def sphere_search_objective(target: TargetHandle, energy: float) -> ProjectedObjective:
    """Scalar target constrained to the energy sphere."""
    return ProjectedObjective(target, energy, lambda raw: project_sphere_batch(raw, energy))


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
        target=target,
        energy=x_hat.energy,
        project_batch=lambda raw: project_cone_batch(raw, x_hat, delta, fallback_rng),
    )


def sphere_violation(stimulus: Stimulus, energy: float) -> float:
    """Relative norm error against the declared energy."""
    return abs(float(np.linalg.norm(stimulus.values)) - energy) / energy


def cone_violation(stimulus: Stimulus, x_hat: Stimulus, delta: float) -> float:
    """Angular error against the declared cone angle, in radians."""
    return abs(angular_distance(stimulus, x_hat) - delta)


# ---------------------------------------------------------------------------
# procedures


# A plan yields lists of independent searches, is sent their (point,
# trace) outcomes in order, and returns the procedure's result.
Plan = Generator[list[Search], list[tuple[Stimulus, SearchTrace]], object]


def _solver_config(config: SearchConfig, budget: int, sigma0: float, seed) -> SolverConfig:
    return SolverConfig(
        max_evaluations=budget,
        initial_step=sigma0,
        stagnation_window=config.stagnation_window,
        seed=seed,
    )


def run_plans(plans: list[Plan]) -> list:
    """Run several plans round by round; return each plan's result.

    Every plan is started first, so all set-up runs before any search.
    Each round takes the searches every live plan yielded, in plan
    order, runs those that read one network in lockstep groups and a
    lone search through ``maximize`` or ``minimize``, and sends each
    plan its own outcomes.
    """
    results: list = [None] * len(plans)
    yielded: dict[int, list[Search]] = {}

    def advance(index: int, outcomes) -> None:
        try:
            yielded[index] = plans[index].send(outcomes)
        except StopIteration as done:
            yielded.pop(index, None)
            results[index] = done.value

    for index in range(len(plans)):
        advance(index, None)
    while yielded:
        searches = [search for batch in yielded.values() for search in batch]
        outcomes = []
        for group in lockstep_groups(searches):
            if len(group) > 1:
                outcomes += run_lockstep(group)
            else:
                (search,) = group
                optimizer = maximize if search.sign > 0 else minimize
                outcomes.append(optimizer(search.objective, search.x0, search.config))
        for index, batch in list(yielded.items()):
            advance(index, outcomes[: len(batch)])
            outcomes = outcomes[len(batch) :]
    return results


def _seeded_searches(
    objective: ProjectedObjective, config: SearchConfig, label: str, runs: int, budget: int
) -> tuple[list[Search], list[tuple[float, int]]]:
    """``runs`` sphere searches at ``_OPTIMAL_SIGMA0``, run i started from
    the seeding drawn from stream (``label``, i, "init") and solved with
    seed (``label``, i, "solver"); also each seeding's best fitness and
    evaluation count."""
    searches = []
    seedings = []
    for run in range(runs):
        init_rng = derive_rng(config.seed, label, run, "init")
        x0, init_fitness, init_evals = seeded_init(
            objective, config.seed_candidates, _ALPHA_SET, init_rng
        )
        seedings.append((init_fitness, init_evals))
        solver_config = _solver_config(
            config, budget, _OPTIMAL_SIGMA0, derive_seed(config.seed, label, run, "solver")
        )
        searches.append(Search(objective, x0, solver_config))
    return searches, seedings


def optimal_plan(target: TargetHandle, config: SearchConfig) -> Plan:
    """Plan of ``optimal_stimulus``: the seedings, then one round of
    ``optimal_runs`` searches."""
    if target.response_dim != 1:
        raise ValueError("optimal stimulus search needs a scalar target")
    objective = sphere_search_objective(target, 1.0)
    budget = config.optimal_budget_per_dim * target.size
    searches, seedings = _seeded_searches(objective, config, "optimal", config.optimal_runs, budget)
    outcomes = yield searches

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
            best = (point, trace.best_fitness)
    point, fitness = best
    return OptimalStimulusResult(x_hat=point, fitness=float(fitness), run_records=tuple(records))


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
    if kind not in _SIGNS:
        raise ValueError(f"unknown kind {kind!r}")
    fallback = derive_rng(config.seed, *labels, "degenerate")
    objective = cone_search_objective(target, x_hat, delta, fallback)
    if start is None:
        direction = random_orthogonal_unit(x_hat, derive_rng(config.seed, *labels, "start"))
        start = objective.as_stimulus(direction.values)
    solver_config = _solver_config(
        config,
        config.path_budget_per_dim * target.size,
        _PATH_SIGMA0,
        derive_seed(config.seed, *labels, "solver"),
    )
    return Search(objective, start, solver_config, _SIGNS[kind])


def path_plan(target: TargetHandle, x_hat: Stimulus, config: SearchConfig, kind: str) -> Plan:
    """Plan of a cone path: one round per cone angle, ascending, whose
    search starts from the previous round's point (``x_hat`` at first)."""
    deltas = tuple(sorted(config.deltas))
    point = x_hat
    points = []
    fitnesses = []
    for k, delta in enumerate(deltas):
        # the 0 is a fixed part of the stream labels the goldens were drawn with
        step = _cone_search(target, x_hat, config, delta, point, kind, "path", kind, 0, k)
        [(point, trace)] = yield [step]
        points.append(point)
        fitnesses.append(float(trace.best_fitness))
    return PathResult(kind, deltas, tuple(points), tuple(fitnesses))


def invariance_path(target: TargetHandle, x_hat: Stimulus, config: SearchConfig) -> PathResult:
    """Maximize along ascending cone angles, warm-starting each from the last."""
    return run_plans([path_plan(target, x_hat, config, "invariance")])[0]


def selectivity_path(target: TargetHandle, x_hat: Stimulus, config: SearchConfig) -> PathResult:
    """Minimize along ascending cone angles, warm-starting each from the last."""
    return run_plans([path_plan(target, x_hat, config, "selectivity")])[0]


def subspace_plan(target: TargetHandle, x_hat: Stimulus, config: SearchConfig, kind: str) -> Plan:
    """Plan of ``subspace_sample``: one round of ``subspace_runs``
    searches at ``_SUBSPACE_DELTA``, each from a random direction."""
    outcomes = yield [
        _cone_search(target, x_hat, config, _SUBSPACE_DELTA, None, kind, "subspace", kind, i)
        for i in range(config.subspace_runs)
    ]
    return SubspaceSample(
        kind=kind,
        delta=_SUBSPACE_DELTA,
        columns=tuple(point for point, _ in outcomes),
        fitnesses=tuple(float(trace.best_fitness) for _, trace in outcomes),
        anchor=x_hat,
    )


def subspace_sample(
    target: TargetHandle,
    x_hat: Stimulus,
    config: SearchConfig,
    kind: str = "invariance",
) -> SubspaceSample:
    """Independent cone searches from scattered starts at one angle."""
    return run_plans([subspace_plan(target, x_hat, config, kind)])[0]


def reconstruct_plan(target: TargetHandle, x_star: Stimulus, config: SearchConfig) -> Plan:
    """Plan of ``reconstruct``: the reference is forwarded and the
    seedings run, then one round of ``reconstruct_runs`` searches."""
    objective = sphere_search_objective(match_fitness(target, target.evaluate(x_star)), 1.0)
    budget = config.reconstruct_budget_per_dim * target.size
    searches, _ = _seeded_searches(objective, config, "reconstruct", config.reconstruct_runs, budget)
    outcomes = yield searches
    return ReconstructionSet(
        reference=x_star,
        reconstructions=tuple(point for point, _ in outcomes),
        fitnesses=tuple(float(trace.best_fitness) for _, trace in outcomes),
    )


def reconstruct(
    target: TargetHandle, x_star: Stimulus, config: SearchConfig
) -> ReconstructionSet:
    """Recover stimuli whose responses match the reference's response.

    The search runs on the sphere only; no distance constraint ties the
    reconstructions to the reference.
    """
    return run_plans([reconstruct_plan(target, x_star, config)])[0]


def encode_plans(
    target: TargetHandle, references: Iterable[Stimulus], config: SearchConfig
) -> list[Plan]:
    """One ``reconstruct_plan`` per reference; reference ``i`` is seeded
    with ``derive_int(config.seed, "encode", i)``."""
    return [
        reconstruct_plan(target, ref, replace(config, seed=derive_int(config.seed, "encode", i)))
        for i, ref in enumerate(references)
    ]


def cone_stage(
    target: TargetHandle, x_hat: Stimulus, config: SearchConfig, with_subspace: bool
) -> tuple[list[PathResult], dict[str, SubspaceSample]]:
    """Both cone paths around ``x_hat`` and, with ``with_subspace``, both
    subspace samples, run together: round k holds both paths' step k,
    and the subspace runs join the first round."""
    kinds = ("invariance", "selectivity")
    plans = [path_plan(target, x_hat, config, kind) for kind in kinds]
    if with_subspace:
        plans += [subspace_plan(target, x_hat, config, kind) for kind in kinds]
    results = run_plans(plans)
    return results[:2], dict(zip(kinds, results[2:]))


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
