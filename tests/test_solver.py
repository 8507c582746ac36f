import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunescope.errors import NonFiniteObjectiveError, NotPositiveDefiniteError
from tunescope.search import sphere_search_objective
from tunescope.solver import (
    Search,
    SearchTrace,
    SolverConfig,
    TerminationReason,
    _Strategy,
    default_population_size,
    lockstep_groups,
    maximize,
    minimize,
    run_lockstep,
    seeded_init,
)
from tunescope.stimulus import project_sphere, sample_pink_noise
from tunescope.targets import (
    TargetHandle,
    default_l1_spec,
    default_l2_spec,
    linear_neuron,
    match_fitness,
    sthor_network,
    unit_view,
)


def sphere_objective(fitness_batch, shape, energy=1.0):
    """A sphere objective on the scalar target that ``fitness_batch`` scores."""
    target = TargetHandle(shape[0], shape[1], 1, lambda x: np.asarray(fitness_batch(x))[:, None])
    return sphere_search_objective(target, energy)


def linear_objective(w, shape, energy=1.0):
    w = np.asarray(w, dtype=float)
    return sphere_objective(lambda x: x @ w, shape, energy)


def quadratic_objective(q, shape, energy=1.0):
    return sphere_objective(lambda x: 0.5 * np.einsum("ij,jk,ik->i", x, q, x), shape, energy)


def start_point(n, shape, seed, energy=1.0):
    rng = np.random.default_rng(seed)
    return project_sphere(rng.standard_normal(n), energy, shape)


def cosine(a, b):
    return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


class TestMaximize:
    def test_linear_reaches_analytic_optimum(self):
        n = 16
        w = np.zeros(n)
        w[0] = 1.0
        objective = linear_objective(w, (4, 4))
        x0 = start_point(n, (4, 4), seed=1)
        best, trace = maximize(objective, x0, SolverConfig(max_evaluations=100 * n, seed=2))
        assert cosine(best.values, w) >= 0.99
        assert trace.evaluations_used <= 100 * n

    def test_constant_objective_stagnates_at_start(self):
        objective = sphere_objective(lambda x: np.zeros(len(x)), (2, 2))
        x0 = start_point(4, (2, 2), seed=3)
        best, trace = maximize(objective, x0, SolverConfig(max_evaluations=10_000, seed=4))
        assert trace.termination_reason is TerminationReason.STAGNATION
        assert trace.best_fitness == 0.0
        np.testing.assert_allclose(best.values, x0.values, rtol=0, atol=1e-12)

    def test_quadratic_finds_top_eigenvector(self):
        n = 8
        q = np.diag([5.0] + [1.0] * (n - 1))
        top = np.linalg.eigh(q)[1][:, -1]
        objective = quadratic_objective(q, (2, 4))
        x0 = start_point(n, (2, 4), seed=5)
        best, _ = maximize(objective, x0, SolverConfig(max_evaluations=100 * n, seed=6))
        assert abs(cosine(best.values, top)) >= 0.99

    def test_non_finite_objective_aborts_with_trace(self):
        calls = {"count": 0}

        def flaky(x):
            calls["count"] += len(x)
            if calls["count"] > 30:
                return np.full(len(x), np.nan)
            return x[:, 0]

        objective = sphere_objective(flaky, (2, 2))
        x0 = start_point(4, (2, 2), seed=7)
        with pytest.raises(NonFiniteObjectiveError) as excinfo:
            maximize(objective, x0, SolverConfig(max_evaluations=1000, seed=8))
        assert excinfo.value.trace.best_fitness is not None


class TestMinimize:
    def test_linear_reaches_analytic_minimum(self):
        n = 16
        w = np.zeros(n)
        w[0] = 1.0
        objective = linear_objective(w, (4, 4))
        x0 = start_point(n, (4, 4), seed=9)
        best, _ = minimize(objective, x0, SolverConfig(max_evaluations=100 * n, seed=10))
        assert cosine(best.values, -w) >= 0.99

    def test_constant_objective_stagnates(self):
        objective = sphere_objective(lambda x: np.ones(len(x)), (2, 2))
        x0 = start_point(4, (2, 2), seed=11)
        _, trace = minimize(objective, x0, SolverConfig(max_evaluations=10_000, seed=12))
        assert trace.termination_reason is TerminationReason.STAGNATION

    def test_quadratic_finds_bottom_eigenvector(self):
        n = 8
        q = np.diag([0.2] + [1.0] * (n - 1))
        bottom = np.linalg.eigh(q)[1][:, 0]
        objective = quadratic_objective(q, (2, 4))
        x0 = start_point(n, (2, 4), seed=13)
        best, _ = minimize(objective, x0, SolverConfig(max_evaluations=100 * n, seed=14))
        assert abs(cosine(best.values, bottom)) >= 0.99


class TestBudgetAndTrace:
    def test_evaluations_exactly_accounted(self):
        n = 16
        objective = linear_objective(np.ones(n), (4, 4))
        x0 = start_point(n, (4, 4), seed=15)
        config = SolverConfig(max_evaluations=500, seed=16, stagnation_window=10**9)
        _, trace = maximize(objective, x0, config)
        lam = default_population_size(n)
        assert trace.evaluations_used == 1 + trace.generations * lam
        assert trace.evaluations_used <= 500
        assert trace.evaluations_used + lam > 500  # budget actually exhausted

    def test_budget_below_one_generation_rejected(self):
        calls = []
        objective = sphere_objective(lambda x: calls.append(len(x)) or x[:, 0], (4, 4))
        x0 = start_point(16, (4, 4), seed=15)
        lam = default_population_size(16)
        # a generation takes lam draws after the start point
        for budget in (lam - 1, lam):
            with pytest.raises(ValueError, match=f"one generation, which takes {lam + 1} "):
                maximize(objective, x0, SolverConfig(max_evaluations=budget))
        assert calls == []  # rejected before the start point is scored
        _, trace = maximize(objective, x0, SolverConfig(max_evaluations=lam + 1))
        assert trace.generations == 1

    @pytest.mark.parametrize("optimizer", [maximize, minimize], ids=["maximize", "minimize"])
    def test_best_fitness_is_objective_at_returned_point(self, optimizer):
        w = np.arange(1.0, 10.0)
        # scored row by row, so a row's value does not depend on its batch
        objective = sphere_objective(lambda x: [float(row @ w) for row in x], (3, 3))
        x0 = start_point(9, (3, 3), seed=17)
        best, trace = optimizer(objective, x0, SolverConfig(max_evaluations=2000, seed=18))
        assert trace.generations > 0
        assert trace.best_fitness == objective.target.scalar_batch(best.values[None, :])[0]

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_deterministic_given_seed(self, seed):
        n = 9
        objective = linear_objective(np.arange(1.0, n + 1), (3, 3))
        x0 = start_point(n, (3, 3), seed=19)
        config = SolverConfig(max_evaluations=600, seed=seed)
        best_a, trace_a = maximize(objective, x0, config)
        best_b, trace_b = maximize(objective, x0, config)
        np.testing.assert_array_equal(best_a.values, best_b.values)
        assert trace_a.best_fitness == trace_b.best_fitness
        assert trace_a.termination_reason == trace_b.termination_reason


class TestSeededInit:
    def test_single_candidate_returned(self):
        objective = linear_objective(np.ones(4), (2, 2))
        rng = np.random.default_rng(25)
        best, fitness, used = seeded_init(objective, 1, (0.0,), rng)
        expected = sample_pink_noise(2, 2, (0.0,), 1.0, np.random.default_rng(25), count=1)[0]
        np.testing.assert_allclose(best.values, expected, rtol=0, atol=1e-12)
        assert used == 1

    def test_argmax_over_all_candidates(self):
        w = np.zeros(16)
        w[0] = 1.0
        objective = linear_objective(w, (4, 4))
        alpha_set = (-4.0, -3.0, -2.0, -1.0, 0.0)
        best, fitness, _ = seeded_init(objective, 200, alpha_set, np.random.default_rng(26))
        replay = np.random.default_rng(26)
        candidate_fitness = []
        for i in range(200):
            row = sample_pink_noise(4, 4, (alpha_set[i % 5],), 1.0, replay, count=1)[0]
            candidate_fitness.append(float(row @ w))
        assert fitness == pytest.approx(max(candidate_fitness), abs=1e-12)
        assert all(fitness >= cf for cf in candidate_fitness)

    def test_deterministic(self):
        objective = linear_objective(np.arange(9.0), (3, 3))
        a = seeded_init(objective, 50, (-2.0, 0.0), np.random.default_rng(27))
        b = seeded_init(objective, 50, (-2.0, 0.0), np.random.default_rng(27))
        np.testing.assert_array_equal(a[0].values, b[0].values)
        assert a[1] == b[1]


class TestFullPipelineOnLinearNeuron:
    @pytest.mark.parametrize("n,shape", [(16, (4, 4)), (121, (11, 11))])
    def test_cosine_recovery_rate(self, n, shape):
        w = np.random.default_rng(100 + n).standard_normal(n)
        w /= np.linalg.norm(w)
        objective = linear_objective(w, shape)
        hits = 0
        for run in range(20):
            rng = np.random.default_rng(1000 + run)
            x0, _, _ = seeded_init(objective, 100, (-4.0, -3.0, -2.0, -1.0, 0.0), rng)
            best, _ = maximize(
                objective, x0, SolverConfig(max_evaluations=100 * n, seed=2000 + run)
            )
            if cosine(best.values, w) >= 0.99:
                hits += 1
        assert hits >= 19


def eager_covariance(strategy, cov, points, scores, xold, sigma):
    """The covariance after one tell, updated in full (the reference).

    ``strategy`` has been told already, so ``pc`` and ``ps`` are the new
    ones; ``xold`` and ``sigma`` are the mean and step before the tell.
    """
    s = strategy
    selected = points[np.argsort(-scores, kind="stable")[: s.mu]]
    deviations = (selected - xold) / sigma
    rank_mu = deviations.T @ (s.weights[:, None] * deviations)
    expected_decay = 1 - (1 - s.cs) ** (2 * s.counteval / s.lam)
    hsig = float(s.ps @ s.ps) / expected_decay / s.n < 2 + 4 / (s.n + 1)
    discount = 1 - s.c1 - s.cmu + (1 - hsig) * s.c1 * s.cc * (2 - s.cc)
    return discount * cov + s.c1 * np.outer(s.pc, s.pc) + s.cmu * rank_mu, hsig


def new_strategy(n, lam, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    strategy = _Strategy(x0 / np.linalg.norm(x0), 0.3, lam, np.random.default_rng(seed + 1))
    strategy.counteval = 1  # the feasible start point, as in a search
    return strategy


class TestDeferredCovariance:
    @given(
        n=st.integers(2, 441),
        lam=st.integers(2, 64),
        folds=st.integers(1, 3),
        linear=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    # default population at n=441: the linear objective switches hsig off
    @example(n=441, lam=22, folds=2, linear=True, seed=0)
    # c1 + cmu == 1 here, so every discount with hsig on is exactly 0
    @example(n=2, lam=64, folds=3, linear=False, seed=1)
    @example(n=121, lam=2, folds=1, linear=False, seed=2)
    def test_folded_matches_eager(self, n, lam, folds, linear, seed):
        """Random scores keep hsig on; a linear objective turns it off."""
        strategy = new_strategy(n, lam, seed)
        score_rng = np.random.default_rng(seed + 2)
        direction = score_rng.standard_normal(n)
        epoch = int(np.ceil(strategy.lazy_gap_evals / lam))
        # end mid-epoch: the last generations are told but never folded
        generations = folds * epoch + max(1, epoch // 2)
        eager = np.eye(n)
        seen_folds = 0
        seen_hsig = set()
        for _ in range(generations):
            before = strategy.updated_eval
            xold, sigma = strategy.xmean.copy(), strategy.sigma
            points = strategy.ask()
            if strategy.updated_eval != before:
                seen_folds += 1
                err = np.max(np.abs(strategy.cov - eager)) / np.max(np.abs(eager))
                assert err <= 1e-12
            strategy.counteval += lam
            scores = points @ direction if linear else score_rng.standard_normal(lam)
            strategy.tell(points, scores)
            eager, hsig = eager_covariance(strategy, eager, points, scores, xold, sigma)
            seen_hsig.add(hsig)
        assert seen_folds >= folds
        if (n, lam, linear) == (441, 22, True):
            assert seen_hsig == {False, True}
        if (n, lam, linear) == (2, 64, False):
            assert 1 - strategy.c1 - strategy.cmu == 0 and True in seen_hsig

    def test_tell_allocates_no_square_matrix(self):
        n = 441
        strategy = new_strategy(n, default_population_size(n), seed=3)
        direction = np.random.default_rng(4).standard_normal(n)
        for _ in range(5):
            points = strategy.ask()
            strategy.counteval += strategy.lam
            scores = points @ direction
            tracemalloc.start()
            try:
                strategy.tell(points, scores)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8

    def test_eigensystem_updates_are_folds(self, monkeypatch):
        """``updated_eval`` moves exactly when ``cholesky`` runs, each
        ``cholesky`` follows one fold of pending rows, and nothing calls
        ``eigh``."""
        counts = {"cholesky": 0, "eigh": 0, "folds": 0, "updates": 0}
        cholesky, eigh = np.linalg.cholesky, np.linalg.eigh

        def counting(name, function):
            def call(matrix):
                counts[name] += 1
                return function(matrix)

            return call

        update = _Strategy._update_eigensystem

        def watched(strategy):
            cholesky_before = counts["cholesky"]
            eval_before, rows_before = strategy.updated_eval, strategy.pending_rows
            update(strategy)
            ran = counts["cholesky"] != cholesky_before
            assert (strategy.updated_eval != eval_before) == ran
            counts["updates"] += ran
            counts["folds"] += rows_before > 0 and strategy.pending_rows == 0

        monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", cholesky))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
        monkeypatch.setattr(_Strategy, "_update_eigensystem", watched)
        n = 121
        w = np.random.default_rng(5).standard_normal(n)
        objective = linear_objective(w, (11, 11))
        x0 = start_point(n, (11, 11), seed=6)
        config = SolverConfig(max_evaluations=20 * n, seed=7, stagnation_window=10**9)
        _, trace = maximize(objective, x0, config)
        assert trace.termination_reason is TerminationReason.BUDGET
        assert counts["updates"] > 0
        assert counts["folds"] == counts["cholesky"] == counts["updates"]
        assert counts["eigh"] == 0


class TestCholeskyFactor:
    @given(
        n=st.sampled_from([2, 16, 121]),
        lam=st.integers(2, 64),
        folds=st.integers(1, 3),
        linear=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    @example(n=121, lam=18, folds=2, linear=True, seed=0)
    @example(n=2, lam=64, folds=3, linear=False, seed=1)
    def test_factor_and_selected_draws(self, n, lam, folds, linear, seed):
        """Each refreshed factor is a lower Cholesky factor of the folded
        covariance, and the weighted selected draws solve it for the shift."""
        strategy = new_strategy(n, lam, seed)
        score_rng = np.random.default_rng(seed + 2)
        direction = score_rng.standard_normal(n)
        epoch = int(np.ceil(strategy.lazy_gap_evals / lam))
        refreshes = 0
        for _ in range(folds * epoch + 1):
            before = strategy.updated_eval
            xold, sigma = strategy.xmean.copy(), strategy.sigma
            points = strategy.ask()
            # no factor until the first refresh stands for the identity
            factor = np.eye(n) if strategy.factor is None else strategy.factor
            if strategy.updated_eval != before:
                refreshes += 1
                assert np.array_equal(factor, np.tril(factor))
                err = np.max(np.abs(factor @ factor.T - strategy.cov)) / np.max(np.abs(strategy.cov))
                assert err <= 1e-12
            strategy.counteval += lam
            scores = points @ direction if linear else score_rng.standard_normal(lam)
            strategy.tell(points, scores)
            order = np.argsort(-scores, kind="stable")
            draws = strategy.weights @ strategy.z[order[: strategy.mu]]
            solved = np.linalg.solve(factor, (strategy.xmean - xold) / sigma)
            assert np.max(np.abs(draws - solved)) <= 1e-9 * max(1.0, np.max(np.abs(solved)))
        assert refreshes >= folds

    def test_no_factor_before_first_refresh(self):
        """Until the first refresh a sample is the normal draw itself, bit
        for bit what the product with an identity factor gave."""
        n = 441
        strategy = new_strategy(n, default_population_size(n), seed=5)
        assert strategy.factor is None
        direction = np.random.default_rng(6).standard_normal(n)
        generations = 0
        while True:
            xmean, sigma = strategy.xmean.copy(), strategy.sigma
            points = strategy.ask()
            if strategy.factor is not None:
                break
            assert np.array_equal(points, xmean + sigma * strategy.z)
            assert np.array_equal(points, xmean + sigma * (strategy.z @ np.eye(n).T))
            strategy.counteval += strategy.lam
            strategy.tell(points, points @ direction)
            generations += 1
        assert generations == int(np.ceil(strategy.lazy_gap_evals / strategy.lam))

    def test_construction_allocates_one_square_matrix(self):
        n = 441
        tracemalloc.start()
        try:
            strategy = new_strategy(n, default_population_size(n), seed=7)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        square = [trace for trace in snapshot.traces if trace.size == n * n * 8]
        assert len(square) == 1 and strategy.factor is None  # the one is cov

    def test_covariance_not_positive_definite_raises(self):
        n = 16
        strategy = new_strategy(n, default_population_size(n), seed=8)
        strategy.cov = -np.eye(n)
        strategy.counteval += int(np.ceil(strategy.lazy_gap_evals))
        with pytest.raises(NotPositiveDefiniteError):
            strategy.ask()


def reference_search(objective, x0, config, sign):
    """The one-search generation loop the lockstep runner replaced."""
    lam = default_population_size(x0.size)
    trace = SearchTrace()
    strategy = _Strategy(
        x0.values, config.initial_step * x0.energy, lam, np.random.default_rng(config.seed)
    )
    f0 = float(objective.evaluate_batch(x0.values[None, :])[0])
    strategy.counteval = trace.evaluations_used = 1
    best_raw, best_score = x0.values.copy(), sign * f0
    trace.best_fitness = f0
    stalled = 0
    while True:
        if trace.evaluations_used + lam > config.max_evaluations:
            reason = TerminationReason.BUDGET
            break
        if strategy.sigma < config.step_tolerance * x0.energy:
            reason = TerminationReason.STEP_TOLERANCE
            break
        if stalled >= config.stagnation_window:
            reason = TerminationReason.STAGNATION
            break
        points = strategy.ask()
        fitness = objective.evaluate_batch(points)
        strategy.counteval += lam
        trace.evaluations_used = strategy.counteval
        trace.generations += 1
        scores = sign * fitness
        strategy.tell(points, scores)
        gen_best = int(np.argmax(scores))
        if scores[gen_best] > best_score:
            best_score, best_raw = float(scores[gen_best]), points[gen_best].copy()
            trace.best_fitness = float(fitness[gen_best])
            stalled = 0
        else:
            stalled += 1
    trace.termination_reason = reason
    return objective.as_stimulus(best_raw), trace


L1 = sthor_network(default_l1_spec(weight_seed=3))
L1_LAMBDA = default_population_size(L1.size)


def l1_search(readout, index, sign, generations, spare, window, tolerance, seed, network=L1):
    """A sphere search on one unit of ``network``, or on the match to the
    response of a random stimulus, with a budget of ``generations``."""
    rng = np.random.default_rng(seed)
    if readout == "unit":
        target = unit_view(network, index)
    else:
        reference = project_sphere(rng.standard_normal(L1.size), 1.0, (11, 11))
        target = match_fitness(network, L1.evaluate(reference))
    config = SolverConfig(
        max_evaluations=1 + generations * L1_LAMBDA + spare,
        stagnation_window=window,
        step_tolerance=tolerance,
        seed=seed,
    )
    x0 = project_sphere(rng.standard_normal(L1.size), 1.0, (11, 11))
    return Search(sphere_search_objective(target, 1.0), x0, config, sign)


def alone(search):
    optimizer = maximize if search.sign > 0 else minimize
    return optimizer(search.objective, search.x0, search.config)


def grouped(searches):
    return [outcome for group in lockstep_groups(searches) for outcome in run_lockstep(group)]


def assert_same_outcomes(outcomes, expected):
    assert len(outcomes) == len(expected)
    for (point, trace), (expected_point, expected_trace) in zip(outcomes, expected):
        assert point.values.tobytes() == expected_point.values.tobytes()
        assert trace == expected_trace


SEARCH_SETTINGS = st.tuples(
    st.sampled_from(["unit", "match"]),
    st.integers(0, L1.response_dim - 1),
    st.sampled_from([1.0, -1.0]),
    st.integers(1, 8),  # budgeted generations
    st.integers(0, L1_LAMBDA - 1),  # spare evaluations
    st.sampled_from([1, 2, 100]),  # stagnation window
    st.sampled_from([1e-8, 0.25, 0.28]),  # step tolerance
    st.integers(0, 2**16),
)


class TestLockstep:
    @given(settings_list=st.lists(SEARCH_SETTINGS, min_size=2, max_size=7))
    @settings(max_examples=25, deadline=None)
    def test_groups_match_one_at_a_time(self, settings_list):
        searches = [l1_search(*setting) for setting in settings_list]
        expected = [reference_search(s.objective, s.x0, s.config, s.sign) for s in searches]
        assert_same_outcomes(grouped(searches), expected)
        assert_same_outcomes([alone(s) for s in searches], expected)

    def test_members_stop_for_different_reasons(self):
        searches = [
            l1_search("unit", 4, 1.0, 8, 0, 100, 1e-8, 0),
            l1_search("match", 0, -1.0, 8, 5, 1, 1e-8, 3),
            l1_search("unit", 9, -1.0, 8, 0, 100, 0.28, 2),
        ]
        assert len(lockstep_groups(searches)) == 1
        outcomes = grouped(searches)
        assert_same_outcomes(outcomes, [alone(s) for s in searches])
        assert [trace.termination_reason for _, trace in outcomes] == [
            TerminationReason.BUDGET,
            TerminationReason.STAGNATION,
            TerminationReason.STEP_TOLERANCE,
        ]
        assert len({trace.generations for _, trace in outcomes}) == 3

    def test_forward_calls_fit_the_chunk(self):
        rows = []

        def recording(matrix):
            rows.append(len(matrix))
            return L1.batch(matrix)

        network = replace(L1, batch=recording)
        searches = [
            l1_search("unit" if i % 2 else "match", i, 1.0, 4, 0, 100, 1e-8, i, network=network)
            for i in range(7)
        ]
        groups = lockstep_groups(searches)
        assert [len(group) for group in groups] == [network.chunk // L1_LAMBDA] * 2 + [1]
        rows.clear()
        grouped(searches)
        assert max(rows) == 3 * L1_LAMBDA <= network.chunk

    @pytest.mark.parametrize("levels", [2, 0])
    def test_one_search_per_group_without_room(self, levels):
        """An L2 chunk holds one generation; a linear neuron states no chunk."""
        if levels == 2:
            network = sthor_network(default_l2_spec(weight_seed=1))
            targets = [unit_view(network, i) for i in range(3)]
        else:
            targets = [linear_neuron(project_sphere(np.ones(121), 1.0, (11, 11)))] * 3
        x0 = start_point(targets[0].size, targets[0].input_shape, seed=4)
        objective = [sphere_search_objective(target, 1.0) for target in targets]
        config = SolverConfig(max_evaluations=100)
        searches = [Search(o, x0, config) for o in objective]
        assert [len(group) for group in lockstep_groups(searches)] == [1, 1, 1]

    def test_searches_on_different_networks_rejected(self):
        other = sthor_network(default_l1_spec(weight_seed=4))
        first = l1_search("unit", 0, 1.0, 2, 0, 100, 1e-8, 0)
        second = l1_search("unit", 0, 1.0, 2, 0, 100, 1e-8, 1, network=other)
        with pytest.raises(ValueError):
            run_lockstep([first, second])

    def test_non_finite_slice_raises_with_that_searchs_trace(self):
        def poisoned(search, generations):
            target = search.objective.target
            calls = []

            def failing(responses):
                calls.append(len(responses))
                values = target.readout(responses)
                return np.full_like(values, np.nan) if len(calls) > generations else values

            objective = replace(search.objective, target=replace(target, readout=failing))
            return replace(search, objective=objective)

        searches = [l1_search("unit", i, 1.0, 8, 0, 100, 1e-8, i) for i in range(3)]
        with pytest.raises(NonFiniteObjectiveError) as grouped_error:
            run_lockstep([searches[0], poisoned(searches[1], 2), searches[2]])
        with pytest.raises(NonFiniteObjectiveError) as alone_error:
            alone(poisoned(searches[1], 2))
        trace = grouped_error.value.trace
        assert trace.generations == 2
        assert trace.evaluations_used == 1 + 2 * L1_LAMBDA
        assert trace == alone_error.value.trace
