"""Constrained stochastic maximizer.

The engine is a standard (mu/mu_w, lambda) evolution strategy with
rank-one plus rank-mu covariance adaptation and cumulative step-size
control.  It runs unconstrained in the raw coordinate space; constraints
enter only through the projection chain baked into the objective, so
every fitness evaluation sees a feasible point and the returned best is
feasible by construction.

The covariance update is deferred.  Each generation's rank-one and
rank-mu terms are kept as low-rank factors (rows of a preallocated
buffer, scaled by the discounts applied since) and folded into the
dense covariance only at the next eigendecomposition, the one place
that reads it.  A generation therefore costs O(mu n) in the update
instead of several n x n passes.

Independent searches that read one network can run in lockstep.  Each
keeps its own strategy, generator, trace and stop rule, and one forward
call scores a generation of all of them.  A lone search is the same
loop with one member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import NonFiniteObjectiveError
from .stimulus import Stimulus, sample_pink_noise

if TYPE_CHECKING:
    from .targets import TargetHandle

__all__ = [
    "SolverConfig",
    "SearchTrace",
    "TerminationReason",
    "ProjectedObjective",
    "Search",
    "default_population_size",
    "lockstep_groups",
    "run_lockstep",
    "maximize",
    "minimize",
    "seeded_init",
]

_MIN_DISCOUNT = np.finfo(np.float64).eps ** 2


def default_population_size(n: int) -> int:
    return 4 + int(3 * np.log(n))


@dataclass(frozen=True)
class SolverConfig:
    """Run-level knobs for one search.

    ``max_evaluations`` is the hard budget (lambda times the generation
    count, plus one for the feasible start point).  ``population_size``
    of None means the dimension-dependent default.
    """

    max_evaluations: int
    population_size: int | None = None
    initial_step: float = 0.3
    step_tolerance: float = 1e-8
    stagnation_window: int = 20
    seed: int | np.random.SeedSequence = 0

    def resolved_population_size(self, n: int) -> int:
        lam = self.population_size if self.population_size is not None else default_population_size(n)
        if lam < 2:
            raise ValueError(f"population size {lam} < 2")
        if self.max_evaluations < lam:
            raise ValueError("budget smaller than one generation")
        return lam


class TerminationReason(str, Enum):
    BUDGET = "budget"
    STEP_TOLERANCE = "step_tolerance"
    STAGNATION = "stagnation"


@dataclass
class SearchTrace:
    """Best-so-far history and accounting of one run.

    ``best_fitness_history`` holds (evaluations_used, objective value)
    pairs appended on every strict improvement; the value column is
    monotone in the direction of the search.  The trace keeps no
    iterates; the best point is what the search returns.
    """

    best_fitness_history: list[tuple[int, float]] = field(default_factory=list)
    termination_reason: TerminationReason | None = None
    evaluations_used: int = 0
    generations: int = 0

    @property
    def best_fitness(self) -> float:
        return self.best_fitness_history[-1][1]


@dataclass(frozen=True)
class ProjectedObjective:
    """A scalar target with its constraint chain attached.

    ``project_batch`` maps raw sample rows onto the feasible manifold of
    stimuli of norm ``energy``, and ``target`` scores feasible rows.
    The solver never sees an unprojected point's fitness.

    When ``target`` wraps a network (``target.network``), searches whose
    targets wrap one network score a generation in one forward call of
    it, each through its own ``target.readout``.
    """

    target: TargetHandle
    energy: float
    project_batch: Callable[[np.ndarray], np.ndarray]

    def evaluate_batch(self, raw: np.ndarray) -> np.ndarray:
        return np.asarray(self.target.scalar_batch(self.project_batch(raw)), dtype=np.float64)

    def as_stimulus(self, raw: np.ndarray) -> Stimulus:
        feasible = self.project_batch(np.asarray(raw, dtype=np.float64)[None, :])[0]
        height, width = self.target.input_shape
        return Stimulus(values=feasible, height=height, width=width, energy=self.energy)


class _Strategy:
    """Canonical CMA-ES state and update rules.

    The covariance is ``decay * (cov + R.T @ R)``, where the rows of
    ``R`` are the scaled rank-one and rank-mu vectors of the
    generations told since the last eigendecomposition and ``decay`` is
    the product of their discounts.  ``_update_eigensystem`` folds them
    into ``cov``; nothing else reads it.
    """

    def __init__(self, x0: np.ndarray, sigma: float, lam: int, rng: np.random.Generator):
        n = x0.size
        self.n = n
        self.lam = lam
        self.rng = rng
        mu = lam // 2
        weights = np.log(lam / 2 + 0.5) - np.log(np.arange(1, mu + 1))
        self.weights = weights / weights.sum()
        self.mu = mu
        self.mueff = float(self.weights.sum() ** 2 / (self.weights**2).sum())

        self.cc = (4 + self.mueff / n) / (n + 4 + 2 * self.mueff / n)
        self.cs = (self.mueff + 2) / (n + self.mueff + 5)
        self.c1 = 2 / ((n + 1.3) ** 2 + self.mueff)
        self.cmu = min(1 - self.c1, 2 * (self.mueff - 2 + 1 / self.mueff) / ((n + 2) ** 2 + self.mueff))
        self.damps = 1 + 2 * max(0.0, np.sqrt((self.mueff - 1) / (n + 1)) - 1) + self.cs
        self.chi_n = np.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))
        self.lazy_gap_evals = lam / ((self.c1 + self.cmu) * n)

        self.xmean = x0.astype(np.float64).copy()
        self.sigma = float(sigma)
        self.pc = np.zeros(n)
        self.ps = np.zeros(n)
        self.cov = np.eye(n)
        self.eigenbasis = np.eye(n)
        self.scales = np.ones(n)
        self.counteval = 0
        self.updated_eval = 0

        # At most ceil(gap / lam) generations are told between two
        # eigendecompositions; one more is slack.
        generations = int(np.ceil(self.lazy_gap_evals / lam)) + 1
        self.pending = np.empty((generations * (mu + 1), n))
        self.pending_rows = 0
        self.decay = 1.0
        self.row_weights = np.sqrt(np.concatenate(([self.c1], self.cmu * self.weights)))

    def _update_eigensystem(self) -> None:
        if self.counteval - self.updated_eval < self.lazy_gap_evals:
            return
        pending = self.pending[: self.pending_rows]
        self.cov += pending.T @ pending
        self.cov *= self.decay
        self.pending_rows = 0
        self.decay = 1.0
        self.cov = (self.cov + self.cov.T) / 2
        eigvals, eigvecs = np.linalg.eigh(self.cov)
        floor = 1e-14 * float(np.trace(self.cov)) / self.n
        eigvals = np.maximum(eigvals, floor)
        self.scales = np.sqrt(eigvals)
        self.eigenbasis = eigvecs
        self.updated_eval = self.counteval

    def ask(self) -> np.ndarray:
        self._update_eigensystem()
        z = self.rng.standard_normal((self.lam, self.n))
        y = (z * self.scales) @ self.eigenbasis.T
        return self.xmean + self.sigma * y

    def tell(self, points: np.ndarray, scores: np.ndarray) -> None:
        """Update state from a scored generation; higher score is better."""
        order = np.argsort(-scores, kind="stable")
        selected = points[order[: self.mu]]
        xold = self.xmean
        self.xmean = self.weights @ selected

        shift = (self.xmean - xold) / self.sigma
        # C^-1/2 @ shift, from the eigensystem
        self.ps = (1 - self.cs) * self.ps + np.sqrt(
            self.cs * (2 - self.cs) * self.mueff
        ) * (self.eigenbasis @ ((shift @ self.eigenbasis) / self.scales))
        expected_decay = 1 - (1 - self.cs) ** (2 * self.counteval / self.lam)
        hsig = float(self.ps @ self.ps) / expected_decay / self.n < 2 + 4 / (self.n + 1)
        self.pc = (1 - self.cc) * self.pc + hsig * np.sqrt(
            self.cc * (2 - self.cc) * self.mueff
        ) * shift

        # A discount of exactly 0 (c1 + cmu == 1) would make the decay
        # singular; at eps**2 the old covariance is below one ulp anyway.
        discount = 1 - self.c1 - self.cmu + (1 - hsig) * self.c1 * self.cc * (2 - self.cc)
        self.decay *= max(discount, _MIN_DISCOUNT)
        start = self.pending_rows
        rows = self.pending[start : start + self.mu + 1]
        rows[0] = self.pc
        np.subtract(selected, xold, out=rows[1:])
        coef = self.row_weights / np.sqrt(self.decay)
        coef[1:] /= self.sigma
        rows *= coef[:, None]
        self.pending_rows = start + self.mu + 1

        step = (self.cs / self.damps) * (np.linalg.norm(self.ps) / self.chi_n - 1)
        self.sigma *= float(np.exp(min(1.0, step)))


@dataclass(frozen=True)
class Search:
    """One search: maximize ``objective`` from ``x0`` when ``sign`` is 1,
    minimize it when ``sign`` is -1."""

    objective: ProjectedObjective
    x0: Stimulus
    config: SolverConfig
    sign: float = 1.0


class _Run:
    """A search in progress: its own strategy, generator, trace and stop rule."""

    def __init__(self, search: Search):
        self.search = search
        x0, config = search.x0, search.config
        self.lam = config.resolved_population_size(x0.size)
        self.trace = SearchTrace()
        rng = np.random.default_rng(config.seed)
        self.strategy = _Strategy(x0.values, config.initial_step * x0.energy, self.lam, rng)
        # the start point is scored alone
        f0 = float(self._checked(search.objective.evaluate_batch(x0.values[None, :]))[0])
        self.strategy.counteval = 1
        self.trace.evaluations_used = 1
        self.best_raw = x0.values.copy()
        self.best_score = search.sign * f0
        self.trace.best_fitness_history.append((1, f0))
        self.stalled = 0

    def _checked(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            err = NonFiniteObjectiveError("objective returned a non-finite value")
            err.trace = self.trace
            raise err
        return values

    def stopped(self) -> bool:
        """Set the termination reason and return True once the search must stop."""
        config = self.search.config
        if self.trace.evaluations_used + self.lam > config.max_evaluations:
            self.trace.termination_reason = TerminationReason.BUDGET
        elif self.strategy.sigma < config.step_tolerance * self.search.x0.energy:
            self.trace.termination_reason = TerminationReason.STEP_TOLERANCE
        elif self.stalled >= config.stagnation_window:
            self.trace.termination_reason = TerminationReason.STAGNATION
        return self.trace.termination_reason is not None

    def tell(self, points: np.ndarray, fitness: np.ndarray) -> None:
        fitness = self._checked(fitness)
        strategy, trace = self.strategy, self.trace
        strategy.counteval += self.lam
        trace.evaluations_used = strategy.counteval
        trace.generations += 1
        scores = self.search.sign * fitness
        strategy.tell(points, scores)

        gen_best = int(np.argmax(scores))
        if scores[gen_best] > self.best_score:
            self.best_score = float(scores[gen_best])
            self.best_raw = points[gen_best].copy()
            trace.best_fitness_history.append((trace.evaluations_used, float(fitness[gen_best])))
            self.stalled = 0
        else:
            self.stalled += 1

    def result(self) -> tuple[Stimulus, SearchTrace]:
        return self.search.objective.as_stimulus(self.best_raw), self.trace


def _fitness(runs: list[_Run], feasible: list[np.ndarray]) -> list[np.ndarray]:
    """Each run's fitness of its feasible rows, in one call for all of them."""
    first = runs[0].search.objective.target
    if first.network is None:
        return [first.scalar_batch(feasible[0])]
    responses = first.network.batch(np.concatenate(feasible))
    ends = np.cumsum([len(rows) for rows in feasible])
    return [
        run.search.objective.target.readout(responses[end - len(rows) : end])[:, 0]
        for run, rows, end in zip(runs, feasible, ends)
    ]


def lockstep_groups(searches: Sequence[Search]) -> list[list[Search]]:
    """Split ``searches``, in order, into groups that ``run_lockstep`` takes.

    Consecutive searches whose objectives read the same network share a
    group while one generation of all of them fits in one forward chunk
    of that network.  A search whose objective reads no network that
    states a chunk is a group of its own.
    """
    groups: list[list[Search]] = []
    rows = 0
    for search in searches:
        network = search.objective.target.network
        lam = search.config.resolved_population_size(search.x0.size)
        joins = (
            groups
            and network is not None
            and network.chunk is not None
            and groups[-1][0].objective.target.network is network
            and rows + lam <= network.chunk
        )
        if joins:
            groups[-1].append(search)
            rows += lam
        else:
            groups.append([search])
            rows = lam
    return groups


def run_lockstep(searches: Sequence[Search]) -> list[tuple[Stimulus, SearchTrace]]:
    """Run independent searches generation by generation.

    Every generation, each running search draws its rows and projects
    them with its own objective.  The rows of all of them go through
    their shared network in one forward call, and each search reads its
    slice through its own readout.  A search stops by its own rule while
    the others go on.  ``searches`` must be one of ``lockstep_groups``;
    each result is the one the search would give run alone.
    """
    if len(lockstep_groups(searches)) > 1:
        raise ValueError("searches do not share one network chunk")
    runs = [_Run(search) for search in searches]
    active = runs
    while True:
        active = [run for run in active if not run.stopped()]
        if not active:
            return [run.result() for run in runs]
        points = [run.strategy.ask() for run in active]
        feasible = [run.search.objective.project_batch(p) for run, p in zip(active, points)]
        for run, p, fitness in zip(active, points, _fitness(active, feasible)):
            run.tell(p, fitness)


def maximize(
    objective: ProjectedObjective, x0: Stimulus, config: SolverConfig
) -> tuple[Stimulus, SearchTrace]:
    """Maximize the objective from a feasible start point."""
    return run_lockstep([Search(objective, x0, config, 1.0)])[0]


def minimize(
    objective: ProjectedObjective, x0: Stimulus, config: SolverConfig
) -> tuple[Stimulus, SearchTrace]:
    """Minimize the objective; the trace records the minimized values."""
    return run_lockstep([Search(objective, x0, config, -1.0)])[0]


def seeded_init(
    objective: ProjectedObjective,
    n_candidates: int,
    alpha_set: tuple[float, ...],
    rng: np.random.Generator,
) -> tuple[Stimulus, float, int]:
    """Pick the best of ``n_candidates`` shaped-noise stimuli.

    Candidates cycle through the spectral exponents in ``alpha_set``.
    The evaluations are not drawn from any solver budget; the count is
    returned so callers can report it separately.
    """
    if n_candidates < 1:
        raise ValueError("need at least one candidate")
    candidates = sample_pink_noise(
        *objective.target.input_shape, alpha_set, objective.energy, rng, count=n_candidates
    )
    fitness = objective.evaluate_batch(candidates)
    if not np.all(np.isfinite(fitness)):
        raise NonFiniteObjectiveError("objective returned a non-finite value during seeding")
    best = int(np.argmax(fitness))
    return objective.as_stimulus(candidates[best]), float(fitness[best]), n_candidates

