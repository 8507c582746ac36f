from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from tunescope.errors import NonFiniteError, ZeroVectorError
from tunescope.measures import path_potential_unit
from tunescope.search import (
    SearchConfig,
    cone_search_objective,
    cone_violation,
    default_deltas,
    invariance_path,
    optimal_plan,
    optimal_stimulus,
    path_plan,
    random_walk_curve,
    reconstruct,
    reconstruct_plan,
    run_plans,
    selectivity_path,
    sphere_search_objective,
    sphere_violation,
    subspace_plan,
    subspace_sample,
)
from tunescope.solver import default_population_size
from tunescope.stimulus import Stimulus, project_cone_batch, random_orthogonal_unit
from tunescope.targets import (
    TargetHandle,
    default_l1_spec,
    linear_neuron,
    match_fitness,
    quadratic_neuron,
    sthor_network,
    unit_view,
)

FAST = SearchConfig(
    seed=101,
    optimal_runs=2,
    optimal_budget_per_dim=100,
    seed_candidates=60,
    path_budget_per_dim=20,
    subspace_runs=3,
    reconstruct_runs=3,
)


def unit_stim(values, height, width) -> Stimulus:
    values = np.asarray(values, dtype=np.float64)
    return Stimulus.from_values(values / np.linalg.norm(values), height, width)


def make_linear(seed=0, n=16):
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(n))
    w = unit_stim(rng.standard_normal(n), side, side)
    return linear_neuron(w), w


def make_rotational(seed=1, n=16):
    """Quadratic target flat along the circle spanned by two directions."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    g1, g2 = basis[:, 0], basis[:, 1]
    q = 4.0 * (np.outer(g1, g1) + np.outer(g2, g2))
    side = int(np.sqrt(n))
    return quadratic_neuron(q, np.zeros(n), 0.0, (side, side)), g1, g2


class TestConfig:
    @pytest.mark.parametrize("bad", [{"deltas": (4.0,)}, {"deltas": (0.0,)},
                                     {"deltas": (0.3, -0.1)}])
    def test_cone_angle_outside_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"outside \(0, pi\]"):
            SearchConfig(**bad)
        with pytest.raises(ValueError, match=r"outside \(0, pi\]"):
            replace(FAST, **bad)

    def test_cone_angle_of_pi_accepted(self):
        assert SearchConfig(deltas=(np.pi,)).deltas == (np.pi,)


class TestObjectives:
    def test_sphere_objective_projects_to_energy(self):
        target, _ = make_linear()
        objective = sphere_search_objective(target, energy=1.0)
        rng = np.random.default_rng(2)
        raw = 5.0 * rng.standard_normal((7, 16))
        projected = objective.project_batch(raw)
        assert np.allclose(np.linalg.norm(projected, axis=1), 1.0, atol=1e-12)
        # projection preserves direction
        cosines = np.sum(projected * raw, axis=1) / np.linalg.norm(raw, axis=1)
        assert np.allclose(cosines, 1.0, atol=1e-12)

    def test_sphere_objective_rejects_zero_and_non_finite_rows(self):
        objective = sphere_search_objective(make_linear()[0], energy=1.0)
        rows = np.ones((3, 16))
        rows[1] = 0.0
        with pytest.raises(ZeroVectorError):
            objective.project_batch(rows)
        for bad in (np.nan, np.inf):
            rows = np.ones((3, 16))
            rows[2, 5] = bad
            with pytest.raises(NonFiniteError):
                objective.project_batch(rows)

    def test_cone_objective_projects_to_cone(self):
        target, w = make_linear()
        delta = 0.3 * np.pi
        rng = np.random.default_rng(3)
        objective = cone_search_objective(target, w, delta, rng)
        raw = rng.standard_normal((9, 16))
        projected = objective.project_batch(raw)
        for row in projected:
            point = Stimulus(values=row, height=4, width=4, energy=1.0)
            assert sphere_violation(point, 1.0) <= 1e-9
            assert cone_violation(point, w, delta) <= 1e-9

    def test_cone_objective_substitutes_parallel_rows(self):
        target, w = make_linear()
        delta = 0.2 * np.pi
        rng = np.random.default_rng(4)
        objective = cone_search_objective(target, w, delta, rng)
        raw = np.stack([2.0 * w.values, -0.5 * w.values])
        projected = objective.project_batch(raw)
        for row in projected:
            point = Stimulus(values=row, height=4, width=4, energy=1.0)
            assert cone_violation(point, w, delta) <= 1e-9
        # the two substituted directions are independent draws
        assert not np.allclose(projected[0], projected[1])

    def test_cone_objective_matches_scalar_projection(self):
        target, w = make_linear()
        delta = 0.25 * np.pi
        rng = np.random.default_rng(5)
        objective = cone_search_objective(target, w, delta, rng)
        raw = rng.standard_normal(16)
        batch_row = objective.project_batch(raw[None, :])[0]
        scalar = project_cone_batch(raw[None, :], w, delta, np.random.default_rng(0))[0]
        assert np.allclose(batch_row, scalar, atol=1e-12)


class TestOptimalStimulus:
    def test_linear_recovers_template(self):
        target, w = make_linear()
        result = optimal_stimulus(target, FAST)
        cosine = float(np.dot(result.x_hat.unit(), w.values))
        assert cosine >= 0.99
        assert result.fitness == pytest.approx(1.0, abs=0.01)
        assert sphere_violation(result.x_hat, 1.0) <= 1e-9

    def test_quadratic_recovers_top_eigenvector(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((16, 16))
        q = a + a.T
        target = quadratic_neuron(q, np.zeros(16), 0.0, (4, 4))
        eigenvalues, vectors = np.linalg.eigh(q)
        top_value, top_vector = eigenvalues[-1], vectors[:, -1]
        result = optimal_stimulus(target, FAST)
        assert abs(float(np.dot(result.x_hat.unit(), top_vector))) >= 0.99
        assert result.fitness == pytest.approx(0.5 * top_value, rel=0.01)

    def test_run_records_cover_all_runs(self):
        target, _ = make_linear()
        result = optimal_stimulus(target, FAST)
        assert len(result.run_records) == FAST.optimal_runs
        for record in result.run_records:
            assert record["fitness"] <= result.fitness + 1e-12
            assert record["evaluations"] <= 100 * 16

    def test_deterministic_per_seed(self):
        target, _ = make_linear()
        first = optimal_stimulus(target, FAST)
        second = optimal_stimulus(target, FAST)
        assert np.array_equal(first.x_hat.values, second.x_hat.values)
        other = optimal_stimulus(target, replace(FAST, seed=999))
        assert not np.array_equal(first.x_hat.values, other.x_hat.values)

    def test_vector_target_rejected(self):
        identity = TargetHandle(4, 4, 16, lambda m: m, name="identity")
        with pytest.raises(ValueError):
            optimal_stimulus(identity, FAST)


class TestPaths:
    def test_linear_paths_trace_cosine(self):
        # a linear response is constant on every cone around its own
        # template, so both paths must land exactly on the cosine curve
        target, w = make_linear()
        for builder in (invariance_path, selectivity_path):
            result = builder(target, w, FAST)
            assert result.deltas == default_deltas()
            for delta, fitness in zip(result.deltas, result.fitnesses):
                assert fitness == pytest.approx(np.cos(delta), abs=1e-9)

    def test_path_points_satisfy_constraints(self):
        target, w = make_linear()
        result = invariance_path(target, w, FAST)
        for delta, point in zip(result.deltas, result.points):
            assert sphere_violation(point, 1.0) <= 1e-9
            assert cone_violation(point, w, delta) <= 1e-6

    def test_rotational_target_keeps_invariance_high(self):
        target, g1, g2 = make_rotational()
        x_hat = Stimulus.from_values(g1, 4, 4)
        peak = float(target.evaluate(x_hat)[0])
        assert peak == pytest.approx(2.0, abs=1e-12)
        result = invariance_path(target, x_hat, FAST)
        for fitness in result.fitnesses:
            assert fitness >= 0.95 * peak
        assert path_potential_unit(result, peak) >= 0.85

    def test_rotational_target_selectivity_drops(self):
        target, g1, g2 = make_rotational()
        x_hat = Stimulus.from_values(g1, 4, 4)
        result = selectivity_path(target, x_hat, FAST)
        for delta, fitness in zip(result.deltas, result.fitnesses):
            floor = 2.0 * np.cos(delta) ** 2
            assert fitness <= floor + 0.05
        # at the quarter turn the target can be silenced entirely
        assert result.fitnesses[-1] <= 0.05

    def test_warm_start_projects_previous_solution(self):
        # each stage's first evaluated point must be the previous stage's
        # solution re-projected onto the wider cone
        calls = []
        rng = np.random.default_rng(7)
        weights = rng.standard_normal(16)
        weights /= np.linalg.norm(weights)

        def recording_batch(matrix):
            calls.append(np.array(matrix))
            return (matrix @ weights)[:, None]

        target = TargetHandle(4, 4, 1, recording_batch, name="spy")
        x_hat = Stimulus.from_values(weights, 4, 4)
        result = invariance_path(target, x_hat, FAST)
        starts = [c[0] for c in calls if c.shape[0] == 1]
        assert len(starts) == len(result.deltas)
        for k in range(1, len(result.deltas)):
            previous = result.points[k - 1]
            expected = project_cone_batch(
                previous.values[None, :], x_hat, result.deltas[k], np.random.default_rng(0)
            )[0]
            assert np.allclose(starts[k], expected, atol=1e-9)

    def test_deterministic_per_seed(self):
        target, w = make_linear()
        first = invariance_path(target, w, FAST)
        second = invariance_path(target, w, FAST)
        for a, b in zip(first.points, second.points):
            assert np.array_equal(a.values, b.values)


class TestSubspaceSample:
    def test_columns_on_cone_with_anchor(self):
        target, g1, g2 = make_rotational()
        x_hat = Stimulus.from_values(g1, 4, 4)
        sample = subspace_sample(target, x_hat, FAST)
        assert sample.kind == "invariance"
        assert len(sample.columns) == FAST.subspace_runs
        assert sample.anchor is x_hat
        for column in sample.columns:
            assert sphere_violation(column, 1.0) <= 1e-9
            assert cone_violation(column, x_hat, sample.delta) <= 1e-6

    def test_recorded_fitness_matches_reevaluation(self):
        target, g1, g2 = make_rotational()
        x_hat = Stimulus.from_values(g1, 4, 4)
        sample = subspace_sample(target, x_hat, FAST)
        for column, fitness in zip(sample.columns, sample.fitnesses):
            assert float(target.evaluate(column)[0]) == pytest.approx(
                fitness, abs=1e-9
            )

    def test_deterministic_and_seed_sensitive(self):
        target, g1, _ = make_rotational()
        x_hat = Stimulus.from_values(g1, 4, 4)
        first = subspace_sample(target, x_hat, FAST)
        second = subspace_sample(target, x_hat, FAST)
        for a, b in zip(first.columns, second.columns):
            assert np.array_equal(a.values, b.values)
        other = subspace_sample(target, x_hat, replace(FAST, seed=5))
        assert not np.array_equal(first.columns[0].values, other.columns[0].values)

    def test_selectivity_kind(self):
        target, g1, _ = make_rotational()
        x_hat = Stimulus.from_values(g1, 4, 4)
        sample = subspace_sample(target, x_hat, FAST, kind="selectivity")
        assert sample.kind == "selectivity"
        # minimized columns avoid the invariant circle
        ceiling = 2.0 * np.cos(sample.delta) ** 2
        for fitness in sample.fitnesses:
            assert fitness <= ceiling + 0.05

    def test_unknown_kind_rejected(self):
        target, g1, _ = make_rotational()
        x_hat = Stimulus.from_values(g1, 4, 4)
        with pytest.raises(ValueError):
            subspace_sample(target, x_hat, FAST, kind="both")


class TestReconstruct:
    def test_identity_readout_recovers_reference(self):
        # when the response is the stimulus itself, matching responses
        # means matching stimuli
        identity = TargetHandle(4, 4, 16, lambda m: np.array(m), name="identity")
        rng = np.random.default_rng(8)
        x_star = unit_stim(rng.standard_normal(16), 4, 4)
        result = reconstruct(identity, x_star, FAST)
        assert result.reference is x_star
        assert len(result.reconstructions) == FAST.reconstruct_runs
        best = int(np.argmax(result.fitnesses))
        cosine = float(np.dot(result.reconstructions[best].unit(), x_star.unit()))
        assert cosine >= 0.95
        assert max(result.fitnesses) >= 0.9

    def test_reconstructions_live_on_sphere(self):
        identity = TargetHandle(4, 4, 16, lambda m: np.array(m), name="identity")
        rng = np.random.default_rng(9)
        x_star = unit_stim(rng.standard_normal(16), 4, 4)
        result = reconstruct(identity, x_star, FAST)
        for item in result.reconstructions:
            assert sphere_violation(item, 1.0) <= 1e-9


class TestRandomWalk:
    def test_linear_walks_follow_cosine(self):
        target, w = make_linear()
        rng = np.random.default_rng(10)
        deltas = (0.0,) + default_deltas()
        samples = random_walk_curve(target, w, deltas, n_walks=4, rng=rng)
        assert len(samples) == 4 * len(deltas)
        for delta, fitness in samples:
            assert fitness == pytest.approx(np.cos(delta), abs=1e-9)

    def test_zero_angle_returns_optimum_response(self):
        target, g1, _ = make_rotational()
        x_hat = Stimulus.from_values(g1, 4, 4)
        rng = np.random.default_rng(11)
        samples = random_walk_curve(target, x_hat, (0.0,), n_walks=2, rng=rng)
        for _, fitness in samples:
            assert fitness == pytest.approx(2.0, abs=1e-12)

    def test_walk_count_validated(self):
        target, w = make_linear()
        with pytest.raises(ValueError):
            random_walk_curve(target, w, default_deltas(), 0, np.random.default_rng(0))

    def test_one_forward_call_for_all_walks(self):
        target, w = make_linear()
        calls = []

        def spy_batch(matrix):
            calls.append(len(matrix))
            return target.batch(matrix)

        spy = TargetHandle(4, 4, 1, spy_batch, name="spy")
        deltas = default_deltas()
        samples = random_walk_curve(spy, w, deltas, 3, np.random.default_rng(12))
        assert calls == [3 * len(deltas)]
        replay = np.random.default_rng(12)
        expected = []
        for _ in range(3):
            direction = random_orthogonal_unit(w, replay)
            for delta in deltas:
                blend = np.cos(delta) * w.values + np.sin(delta) * direction.values
                expected.append((delta, float(target.batch(blend[None, :])[0, 0])))
        assert [delta for delta, _ in samples] == [delta for delta, _ in expected]
        for (_, fitness), (_, value) in zip(samples, expected):
            assert fitness == pytest.approx(value, abs=1e-12)


NETWORK = sthor_network(default_l1_spec(weight_seed=21))
LOCKSTEP = SearchConfig(
    seed=7,
    optimal_runs=2,
    optimal_budget_per_dim=1,
    seed_candidates=20,
    deltas=(0.1 * np.pi, 0.3 * np.pi),
    path_budget_per_dim=1,
    subspace_runs=2,
    reconstruct_runs=2,
    reconstruct_budget_per_dim=1,
)


def recording_network(rows):
    def batch(matrix):
        rows.append(len(matrix))
        return NETWORK.batch(matrix)

    return replace(NETWORK, batch=batch)


def same_points(first, second):
    return [p.values.tobytes() for p in first] == [p.values.tobytes() for p in second]


def as_bytes(value):
    """A procedure result with every array and stimulus as its bytes."""
    if isinstance(value, Stimulus):
        return value.values.tobytes()
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if is_dataclass(value):
        return tuple(as_bytes(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(as_bytes(item) for item in value)
    return value


class TestLockstepProcedures:
    """Procedures that share one network give the bytes of separate runs."""

    def test_path_and_subspace_plans_match_separate_procedures(self):
        rows = []
        network = recording_network(rows)
        reference = NETWORK.evaluate(unit_stim(np.arange(1.0, 122.0), 11, 11))
        target = match_fitness(network, reference)
        x_hat = optimal_stimulus(target, LOCKSTEP).x_hat
        both = ("invariance", "selectivity")
        plans = [path_plan(target, x_hat, LOCKSTEP, kind) for kind in both]
        plans += [subspace_plan(target, x_hat, LOCKSTEP, kind) for kind in both]
        rows.clear()
        results = run_plans(plans)
        paths, samples = results[:2], dict(zip(both, results[2:]))
        lam = default_population_size(NETWORK.size)
        assert max(rows) == (NETWORK.chunk // lam) * lam
        separate = [invariance_path(target, x_hat, LOCKSTEP), selectivity_path(target, x_hat, LOCKSTEP)]
        for path, expected in zip(paths, separate):
            assert path.kind == expected.kind and path.deltas == expected.deltas
            assert same_points(path.points, expected.points)
            assert path.fitnesses == expected.fitnesses
        for kind in both:
            expected = subspace_sample(target, x_hat, LOCKSTEP, kind=kind)
            assert same_points(samples[kind].columns, expected.columns)
            assert samples[kind].fitnesses == expected.fitnesses
            assert samples[kind].delta == expected.delta and samples[kind].anchor is x_hat

    def test_plans_match_separate_procedures(self):
        rows = []
        network = recording_network(rows)
        x_star = unit_stim(np.cos(np.arange(121.0)), 11, 11)
        unit_config = replace(LOCKSTEP, seed=8)
        match_config = replace(LOCKSTEP, seed=9)
        target = match_fitness(network, NETWORK.evaluate(unit_stim(np.ones(121), 11, 11)))
        plans = [
            optimal_plan(unit_view(network, 5), unit_config),
            optimal_plan(target, match_config),
            reconstruct_plan(network, x_star, LOCKSTEP),
        ]
        rows.clear()
        unit, match, recon = run_plans(plans)
        assert max(rows) == 3 * default_population_size(NETWORK.size)
        for result, expected in (
            (unit, optimal_stimulus(unit_view(network, 5), unit_config)),
            (match, optimal_stimulus(target, match_config)),
        ):
            assert result.x_hat.values.tobytes() == expected.x_hat.values.tobytes()
            assert result.fitness == expected.fitness
            assert result.run_records == expected.run_records
        expected = reconstruct(network, x_star, LOCKSTEP)
        assert same_points(recon.reconstructions, expected.reconstructions)
        assert recon.fitnesses == expected.fitnesses

    def test_plans_with_different_round_counts_run_together(self):
        rows = []
        network = recording_network(rows)
        target = match_fitness(network, NETWORK.evaluate(unit_stim(np.arange(1.0, 122.0), 11, 11)))
        x_hat = optimal_stimulus(target, LOCKSTEP).x_hat

        def plans():
            # two two-round paths beside two one-round plans
            return [
                path_plan(target, x_hat, LOCKSTEP, "invariance"),
                path_plan(target, x_hat, LOCKSTEP, "selectivity"),
                subspace_plan(target, x_hat, LOCKSTEP, "invariance"),
                optimal_plan(unit_view(network, 5), replace(LOCKSTEP, seed=8)),
            ]

        rows.clear()
        together = run_plans(plans())
        lam = default_population_size(NETWORK.size)
        assert max(rows) == (NETWORK.chunk // lam) * lam <= NETWORK.chunk
        solo = [run_plans([plan])[0] for plan in plans()]
        assert [type(result) for result in together] == [type(result) for result in solo]
        for result, expected in zip(together, solo):
            assert as_bytes(result) == as_bytes(expected)
