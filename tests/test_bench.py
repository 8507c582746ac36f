import json
from dataclasses import replace

import numpy as np
import pytest

from tunescope.bench import (
    BenchConfig,
    FIG9_ROWS,
    MeasureReport,
    TaskSpec,
    _study_fingerprint,
    characterize_population,
    characterize_unit,
    choose_distance_threshold,
    collect_reports,
    correlation_table,
    generate_task_stimuli,
    pair_matching_detail,
    pair_matching_performance,
    run_study,
    sample_pairs,
    sample_references,
)
from tunescope.errors import DegenerateSplitError, ZeroVarianceError
from tunescope.measures import path_potential_population, spectral_complexity
from tunescope.search import (
    SearchConfig,
    invariance_path,
    optimal_stimulus,
    selectivity_path,
    sphere_violation,
    subspace_sample,
)
from tunescope.solver import default_population_size
from tunescope.seeds import derive_rng
from tunescope.stats import multiple_r2, pearson, spearman
from tunescope.stimulus import Stimulus, project_sphere, read_stimulus_csv
from tunescope.targets import (
    HyperRanges,
    TargetHandle,
    default_l1_spec,
    linear_neuron,
    match_fitness,
    sample_network_population,
    sthor_network,
    unit_view,
)

MICRO = SearchConfig(
    seed=7,
    optimal_runs=1,
    optimal_budget_per_dim=2,
    seed_candidates=16,
    path_budget_per_dim=1,
    subspace_runs=2,
    reconstruct_runs=1,
    reconstruct_budget_per_dim=2,
)

# enough budget to converge on a small linear unit, cheap everywhere else
CONVERGED = SearchConfig(
    seed=7,
    optimal_runs=2,
    optimal_budget_per_dim=100,
    seed_candidates=60,
    path_budget_per_dim=20,
    subspace_runs=2,
    reconstruct_runs=1,
    reconstruct_budget_per_dim=2,
)


def small_task(seed=3, **overrides):
    defaults = dict(n_classes=4, samples_per_class=6, seed=seed)
    defaults.update(overrides)
    return generate_task_stimuli(TaskSpec(**defaults))


def linear_target(seed=0, n=121):
    rng = np.random.default_rng(seed)
    side = int(np.sqrt(n))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    return linear_neuron(Stimulus.from_values(v, side, side))


class TestTaskGeneration:
    def test_counts_and_labels(self):
        task = generate_task_stimuli(TaskSpec(n_classes=2, samples_per_class=5))
        assert len(task) == 10
        assert task.labels == (0,) * 5 + (1,) * 5

    def test_zero_jitter_freezes_classes(self):
        task = generate_task_stimuli(
            TaskSpec(n_classes=3, samples_per_class=4, phase_jitter=0.0,
                     position_jitter=0.0)
        )
        for k in range(3):
            block = [task[k * 4 + j].values for j in range(4)]
            for values in block[1:]:
                assert np.array_equal(values, block[0])

    def test_seed_reproducible(self):
        spec = TaskSpec(n_classes=4, samples_per_class=3, seed=11)
        first = generate_task_stimuli(spec)
        second = generate_task_stimuli(spec)
        for a, b in zip(first, second):
            assert np.array_equal(a.values, b.values)
        shifted = generate_task_stimuli(
            TaskSpec(n_classes=4, samples_per_class=3, seed=12)
        )
        assert not np.array_equal(first[0].values, shifted[0].values)

    def test_common_energy(self):
        task = generate_task_stimuli(TaskSpec(energy=2.5))
        for item in task:
            assert np.linalg.norm(item.values) == pytest.approx(2.5, abs=1e-9)

    @pytest.mark.parametrize("key, value", [("samples_per_class", 2.5), ("seed", 1.5)])
    def test_non_integer_count_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            TaskSpec(**{key: value})

    def test_classes_are_distinct(self):
        task = generate_task_stimuli(
            TaskSpec(n_classes=4, samples_per_class=1, phase_jitter=0.0,
                     position_jitter=0.0)
        )
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(task[i].values, task[j].values)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(n_classes=1)
        with pytest.raises(ValueError):
            TaskSpec(frequency_range=(3.0, 1.0))
        with pytest.raises(ValueError):
            TaskSpec(position_jitter=-0.5)


class TestPairMatching:
    def test_one_hot_representation_is_perfect(self):
        task = small_task()
        labels = np.array(task.labels)

        def one_hot(matrix):
            # class identity leaked through a lookup on the exact values
            out = np.zeros((matrix.shape[0], 4))
            table = {task[i].values.tobytes(): labels[i] for i in range(len(task))}
            for row in range(matrix.shape[0]):
                out[row, table[matrix[row].tobytes()]] = 1.0
            return out

        target = TargetHandle(11, 11, 4, one_hot, name="one-hot")
        assert pair_matching_performance(target, task, 200, split_seed=5) == 1.0

    def test_input_independent_noise_is_chance(self):
        task = small_task()
        rng = np.random.default_rng(21)

        def noise(matrix):
            return rng.standard_normal((matrix.shape[0], 8))

        target = TargetHandle(11, 11, 8, noise, name="noise")
        accuracy = pair_matching_performance(target, task, 200, split_seed=5)
        assert abs(accuracy - 0.5) <= 0.1

    def test_identity_with_frozen_classes_is_perfect(self):
        task = small_task(phase_jitter=0.0, position_jitter=0.0)
        identity = TargetHandle(11, 11, 121, lambda m: np.array(m), name="identity")
        assert pair_matching_performance(identity, task, 100, split_seed=5) == 1.0

    def test_threshold_is_pure_function_of_train_half(self):
        task = small_task()
        identity = TargetHandle(11, 11, 121, lambda m: np.array(m), name="identity")
        n_pairs, split_seed = 120, 17
        detail = pair_matching_detail(identity, task, n_pairs, split_seed)

        # replay the seeded sampling that the implementation commits to
        rng = derive_rng(split_seed, "pairs")
        pairs, flags = sample_pairs(task.labels, n_pairs, rng)
        responses = identity.batch(task.matrix())
        distances = np.linalg.norm(
            responses[pairs[:, 0]] - responses[pairs[:, 1]], axis=1
        )
        order = rng.permutation(n_pairs)
        train, test = order[: n_pairs // 2], order[n_pairs // 2 :]
        assert set(train.tolist()).isdisjoint(test.tolist())
        expected = choose_distance_threshold(distances[train], flags[train])
        assert detail.threshold == expected
        held_out = float(
            np.mean((distances[test] <= expected) == flags[test])
        )
        assert detail.accuracy == held_out
        assert detail.n_train == 60 and detail.n_test == 60

    def test_balanced_pair_sampling(self):
        task = small_task()
        rng = np.random.default_rng(3)
        pairs, flags = sample_pairs(task.labels, 100, rng)
        assert flags.sum() == 50
        labels = np.array(task.labels)
        for (a, b), same in zip(pairs, flags):
            assert a != b
            assert (labels[a] == labels[b]) == same

    def test_unlabelled_task_rejected(self):
        task = small_task()
        bare = type(task)(items=task.items)
        identity = TargetHandle(11, 11, 121, lambda m: np.array(m), name="identity")
        with pytest.raises(ValueError):
            pair_matching_performance(identity, bare, 100)

    def test_shape_mismatch_rejected(self):
        task = small_task()
        tiny = linear_target(n=16)
        with pytest.raises(ValueError):
            pair_matching_performance(tiny, task, 100)

    def test_tiny_split_degenerates(self):
        task = small_task()
        identity = TargetHandle(11, 11, 121, lambda m: np.array(m), name="identity")
        with pytest.raises(DegenerateSplitError):
            pair_matching_performance(identity, task, 2, split_seed=0)


class TestCharacterizeUnit:
    def test_linear_unit_baseline(self):
        target = linear_target(n=16)
        report, artifacts = characterize_unit(target, CONVERGED)
        assert report.inpp <= 0.02
        assert report.slpp <= 0.02
        assert 0.0 <= report.ossc <= 1.0
        assert report.osep is None
        assert report.insc is None
        assert artifacts["optimal"].fitness == pytest.approx(1.0, abs=0.05)
        assert len(artifacts["paths"]) == 2

    def test_task_and_subspace_fill_remaining_fields(self):
        target = linear_target()
        task = small_task()
        report, artifacts = characterize_unit(
            target, MICRO, task=task, with_subspace=True
        )
        assert report.osep is not None and 0.0 <= report.osep <= 1.0
        assert report.insc is not None
        assert report.itsa is not None and report.stsa is not None
        assert set(artifacts["subspace"]) == {"invariance", "selectivity"}

    def test_network_unit_shares_forward_calls_with_unchanged_bytes(self):
        network = sthor_network(default_l1_spec(weight_seed=21))
        rows = []

        def recording_batch(matrix):
            rows.append(len(matrix))
            return network.batch(matrix)

        unit = unit_view(replace(network, batch=recording_batch), 4)
        config = replace(MICRO, path_budget_per_dim=2, subspace_runs=3)
        report, artifacts = characterize_unit(unit, config, task=small_task(), with_subspace=True)
        protocol_rows = rows[:]

        # the five procedures one by one
        del rows[:]
        optimal = optimal_stimulus(unit, config)
        optimum_calls = len(rows)
        x_hat = optimal.x_hat
        paths = [invariance_path(unit, x_hat, config), selectivity_path(unit, x_hat, config)]
        kinds = ("invariance", "selectivity")
        samples = {kind: subspace_sample(unit, x_hat, config, kind=kind) for kind in kinds}

        # the optimum runs alone; the cone stage forwards the same rows in
        # fewer calls, more than one generation's rows per call
        assert protocol_rows[:optimum_calls] == rows[:optimum_calls]
        cone_rows, separate_rows = protocol_rows[optimum_calls:], rows[optimum_calls:]
        assert sum(cone_rows) == sum(separate_rows) and len(cone_rows) < len(separate_rows)
        assert sum(cone_rows) / len(cone_rows) > default_population_size(unit.size)

        assert artifacts["optimal"].x_hat.values.tobytes() == x_hat.values.tobytes()
        assert artifacts["optimal"].run_records == optimal.run_records
        for path, expected in zip(artifacts["paths"], paths):
            assert path.kind == expected.kind and path.fitnesses == expected.fitnesses
            assert [p.values.tobytes() for p in path.points] == [
                p.values.tobytes() for p in expected.points
            ]
        assert list(artifacts["subspace"]) == list(kinds)
        for kind in kinds:
            sample, expected = artifacts["subspace"][kind], samples[kind]
            assert sample.fitnesses == expected.fitnesses
            assert [c.values.tobytes() for c in sample.columns] == [
                c.values.tobytes() for c in expected.columns
            ]
        assert report.provenance["optimum_fitness"] == optimal.fitness


class TestCharacterizePopulation:
    def test_fills_every_measure(self):
        target = linear_target()
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        report, artifacts = characterize_population(target, task, refs, MICRO,
                                                    unit_sample=1)
        for name, value in report.as_dict().items():
            assert value is not None, name
        assert report.provenance["level"] == "population"
        assert report.provenance["best_reference"] in (0, 1)
        assert sphere_violation(artifacts["x_hat"], 1.0) <= 1e-9
        assert len(artifacts["reconstructions"]) == 2

    def test_deterministic(self):
        target = linear_target()
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        first, _ = characterize_population(target, task, refs, MICRO, unit_sample=1)
        second, _ = characterize_population(target, task, refs, MICRO, unit_sample=1)
        assert first.as_dict() == second.as_dict()

    def test_shape_mismatch_rejected(self):
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        with pytest.raises(ValueError):
            characterize_population(linear_target(n=16), task, refs, MICRO)


class TestSampleReferences:
    def test_members_and_determinism(self):
        task = small_task()
        refs = sample_references(task, 5, seed=2)
        assert len(refs) == 5
        pool = {item.values.tobytes() for item in task}
        for item in refs:
            assert item.values.tobytes() in pool
        again = sample_references(task, 5, seed=2)
        for a, b in zip(refs, again):
            assert np.array_equal(a.values, b.values)

    def test_bad_count_rejected(self):
        task = small_task()
        with pytest.raises(ValueError):
            sample_references(task, 0, seed=2)
        with pytest.raises(ValueError):
            sample_references(task, len(task) + 1, seed=2)


class TestCorrelationTable:
    def make_reports(self, n=12, seed=4):
        rng = np.random.default_rng(seed)
        reports = [
            MeasureReport(**{name: float(v) for name, v in
                             zip(MeasureReport.FIELDS, rng.uniform(0, 1, 8))})
            for _ in range(n)
        ]
        performances = rng.uniform(0.4, 1.0, n)
        return reports, performances

    def test_rows_follow_study_order(self):
        reports, perf = self.make_reports()
        rows, all_r2 = correlation_table(reports, perf, seed=0, n_perm=200)
        assert [row["measure"] for row in rows] == [
            "OSEP", "INPP", "SLPP", "INSC", "ITSA", "STSA", "TSES", "ALL",
        ]
        for row, (_, field_name) in zip(rows, FIG9_ROWS):
            values = np.array([getattr(r, field_name) for r in reports])
            assert row["spearman"] == pytest.approx(spearman(values, perf))
            assert row["pearson"] == pytest.approx(pearson(values, perf))
            assert 0.0 < row["p_perm"] <= 1.0

    def test_all_row_is_joint_r2(self):
        reports, perf = self.make_reports()
        rows, all_r2 = correlation_table(reports, perf, seed=0, n_perm=200)
        design = np.column_stack(
            [[getattr(r, name) for r in reports] for name in MeasureReport.FIELDS]
        )
        assert all_r2 == pytest.approx(multiple_r2(design, perf), abs=1e-12)
        assert rows[-1]["pearson"] == all_r2
        assert rows[-1]["spearman"] is None


def study_fixtures(n_targets, seed_offset=0):
    task = small_task()
    refs = sample_references(task, 2, seed=9)
    targets = [linear_target(seed=seed_offset + i) for i in range(n_targets)]
    return targets, task, refs


class TestRunStudy:
    def test_fractional_pair_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="n_pairs"):
            BenchConfig(store_dir=str(tmp_path / "store"), n_pairs=2.5)

    def test_smoke_emits_all_measure_columns(self, tmp_path):
        targets, task, refs = study_fixtures(2)
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(tmp_path / "store"))
        result = run_study(targets, task, refs, config)
        assert len(result.reports) == 2
        assert result.all_r2 is None and result.correlation_rows == ()
        lines = (tmp_path / "store" / "measures.csv").read_text().splitlines()
        assert lines[0] == (
            "network,performance,ossc,osep,tses,inpp,slpp,insc,itsa,stsa"
        )
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 10
            assert all(cell for cell in cells)

    def test_network_artifacts_written(self, tmp_path):
        targets, task, refs = study_fixtures(1)
        store = tmp_path / "store"
        run_study(targets, task, refs,
                  BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                              store_dir=str(store)))
        net = store / "network_000"
        for name in ("report.json", "x_hat.csv", "x_hat.pgm", "fd.csv"):
            assert (net / name).exists(), name
        with open(net / "report.json") as fh:
            blob = json.load(fh)
        assert set(blob) == {"measures", "performance", "provenance"}
        assert set(blob["measures"]) == set(MeasureReport.FIELDS)

    def test_interrupted_fd_write_leaves_no_fd_csv(self, tmp_path, fail_write_of):
        fail_write_of("fd.csv")
        targets, task, refs = study_fixtures(1)
        store = tmp_path / "store"
        with pytest.raises(OSError, match="disk full"):
            run_study(targets, task, refs,
                      BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                                  store_dir=str(store)))
        net = store / "network_000"
        assert not (net / "fd.csv").exists()
        assert not (net / "report.json").exists()
        assert not list(net.glob(".*.tmp"))

    def test_recomputation_from_artifacts(self, tmp_path):
        targets, task, refs = study_fixtures(1)
        store = tmp_path / "store"
        result = run_study(targets, task, refs,
                           BenchConfig(seed=1, search=MICRO, n_pairs=60,
                                       unit_sample=1, store_dir=str(store)))
        report = result.reports[0]
        net = store / "network_000"

        x_hat = read_stimulus_csv(net / "x_hat.csv")
        assert spectral_complexity(x_hat) == pytest.approx(report.ossc, abs=1e-9)

        curves = {"invariance": [], "selectivity": []}
        for line in (net / "fd.csv").read_text().splitlines()[1:]:
            series, delta, fitness = line.split(",")
            curves[series].append((float(delta), float(fitness)))

        class Curve:
            def __init__(self, samples):
                samples = sorted(samples)
                self.deltas = tuple(d for d, _ in samples)
                self.fitnesses = tuple(f for _, f in samples)

        assert path_potential_population(
            Curve(curves["invariance"])
        ) == pytest.approx(report.inpp, abs=1e-9)
        assert path_potential_population(
            Curve(curves["selectivity"])
        ) == pytest.approx(report.slpp, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        targets, task, refs = study_fixtures(2)
        stores = []
        for name in ("a", "b"):
            store = tmp_path / name
            run_study(targets, task, refs,
                      BenchConfig(seed=1, search=MICRO, n_pairs=60,
                                  unit_sample=1, store_dir=str(store)))
            stores.append(store)
        for filename in ("measures.csv",):
            first = (stores[0] / filename).read_bytes()
            second = (stores[1] / filename).read_bytes()
            assert first == second
        first = (stores[0] / "network_000" / "report.json").read_bytes()
        second = (stores[1] / "network_000" / "report.json").read_bytes()
        assert first == second

    def test_resume_reuses_partial_store(self, tmp_path):
        targets, task, refs = study_fixtures(2)
        fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(fresh))

        run_study(targets, task, refs, config)
        # interrupted run: only the first network finished
        run_study(targets[:1], task, refs, replace(config, store_dir=str(resumed)))
        marker = resumed / "network_000" / "report.json"
        stamp = marker.stat().st_mtime_ns
        # the config fingerprint pins the full population size
        (resumed / "study_config.json").unlink()
        run_study(targets, task, refs, replace(config, store_dir=str(resumed)))
        assert marker.stat().st_mtime_ns == stamp  # reused, not recomputed
        assert (fresh / "measures.csv").read_bytes() == (
            resumed / "measures.csv"
        ).read_bytes()

    def test_rerun_into_completed_store_is_a_noop(self, tmp_path):
        targets, task, refs = study_fixtures(2)
        store = tmp_path / "store"
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(store))
        first = run_study(targets, task, refs, config)
        before = (store / "measures.csv").read_bytes()
        second = run_study(targets, task, refs, config)
        assert (store / "measures.csv").read_bytes() == before
        assert second.performances == first.performances

    def test_store_config_mismatch_rejected(self, tmp_path):
        targets, task, refs = study_fixtures(1)
        store = tmp_path / "store"
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(store))
        run_study(targets, task, refs, config)
        with pytest.raises(ValueError):
            run_study(targets, task, refs, replace(config, seed=2))

    def test_changed_network_ranges_rejected_on_resume(self, tmp_path):
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        store = tmp_path / "store"
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(store))
        first, _ = sample_network_population(
            default_l1_spec(), 1, HyperRanges(pool_exponent=(1.0,)), seed=33
        )
        run_study(first, task, refs, config)
        changed, _ = sample_network_population(
            default_l1_spec(), 1, HyperRanges(pool_exponent=(10.0,)), seed=33
        )
        with pytest.raises(ValueError, match="different study config"):
            run_study(changed, task, refs, config)

    def test_changed_task_rejected_on_resume(self, tmp_path):
        targets, task, refs = study_fixtures(1)
        store = tmp_path / "store"
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(store))
        run_study(targets, task, refs, config)
        other = small_task(seed=4)
        with pytest.raises(ValueError, match="different study config"):
            run_study(targets, other, sample_references(other, 2, seed=9), config)

    def test_truncated_report_is_recomputed_on_resume(self, tmp_path):
        targets, task, refs = study_fixtures(2)
        store = tmp_path / "store"
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(store))
        run_study(targets, task, refs, config)
        report = store / "network_001" / "report.json"
        finished = report.read_bytes()
        measures = (store / "measures.csv").read_bytes()
        # a run killed while writing left half a file behind
        report.write_bytes(finished[: len(finished) // 2])
        kept = store / "network_000" / "report.json"
        stamp = kept.stat().st_mtime_ns
        run_study(targets, task, refs, config)
        assert report.read_bytes() == finished
        assert kept.stat().st_mtime_ns == stamp
        assert (store / "measures.csv").read_bytes() == measures
        assert not list(store.rglob("*.tmp"))

    def test_identical_population_fails_in_correlation_stage(self, tmp_path):
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        targets = [linear_target(seed=0)] * 10
        store = tmp_path / "store"
        with pytest.raises(ZeroVarianceError):
            run_study(targets, task, refs,
                      BenchConfig(seed=1, search=MICRO, n_pairs=60,
                                  unit_sample=1, store_dir=str(store)))
        lines = (store / "measures.csv").read_text().splitlines()
        assert len(lines) == 11  # measures were still emitted
        assert not (store / "correlation.csv").exists()

    def test_collect_reports_round_trips(self, tmp_path):
        targets, task, refs = study_fixtures(2)
        store = tmp_path / "store"
        result = run_study(targets, task, refs,
                           BenchConfig(seed=1, search=MICRO, n_pairs=60,
                                       unit_sample=1, store_dir=str(store)))
        performances, reports = collect_reports(store)
        assert performances == result.performances
        for loaded, computed in zip(reports, result.reports):
            assert loaded.as_dict() == computed.as_dict()

    def test_worker_pool_matches_sequential(self, tmp_path):
        handles, manifest = sample_network_population(
            default_l1_spec(), 2, HyperRanges(), seed=33
        )
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        sequential = tmp_path / "seq"
        parallel = tmp_path / "par"
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(sequential))
        run_study(handles, task, refs,
                  replace(config, store_dir=str(sequential), workers=1))
        run_study(handles, task, refs,
                  replace(config, store_dir=str(parallel), workers=2))
        assert (sequential / "measures.csv").read_bytes() == (
            parallel / "measures.csv"
        ).read_bytes()

    def test_worker_pool_studies_the_views_it_is_sent(self, tmp_path):
        network = sthor_network(default_l1_spec(weight_seed=34))
        views = [unit_view(network, 3), unit_view(network, 5)]
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(tmp_path / "workers1"))
        stores = []
        for workers in (1, 2):
            store = tmp_path / f"workers{workers}"
            config = replace(config, store_dir=str(store), workers=workers)
            result = run_study(views, task, refs, config)
            assert [report.provenance["unit_indices"] for report in result.reports] == [[0], [0]]
            files = sorted(path for path in store.rglob("*") if path.is_file())
            stores.append({path.relative_to(store): path.read_bytes() for path in files})
        assert len(stores[0]) > 3
        assert stores[0] == stores[1]

    def test_views_of_two_units_fingerprint_apart(self):
        network = sthor_network(default_l1_spec(weight_seed=34))
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        config = BenchConfig(seed=1, search=MICRO, store_dir="store")

        def fingerprint(handle):
            return _study_fingerprint([handle], task, refs, config)["networks"][0]

        cascade = fingerprint(network)
        assert set(cascade) == {"spec", "kernels_sha256"}
        assert fingerprint(unit_view(network, 3)) == {"view": "sthor-l1[3]", "network": cascade}
        assert fingerprint(unit_view(network, 3)) != fingerprint(unit_view(network, 5))

    @staticmethod
    def match_views(network, seed, count=2):
        """``match_fitness`` views of ``network`` on random references."""
        rng = np.random.default_rng(seed)
        return [
            match_fitness(network, network.batch(rng.standard_normal((1, network.size)))[0])
            for _ in range(count)
        ]

    def test_handles_that_bind_other_data_fingerprint_apart(self):
        network = sthor_network(default_l1_spec(weight_seed=34))
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        config = BenchConfig(seed=1, search=MICRO, store_dir="store")

        def fingerprint(handle):
            return _study_fingerprint([handle], task, refs, config)["networks"][0]

        first, second = self.match_views(network, seed=35)
        probe = np.random.default_rng(36).standard_normal((3, network.size))
        assert not np.array_equal(first.batch(probe), second.batch(probe))
        assert fingerprint(first) != fingerprint(second)
        assert fingerprint(first) == fingerprint(self.match_views(network, seed=35)[0])
        assert fingerprint(first)["network"] == fingerprint(network)

        templates = [
            project_sphere(np.random.default_rng(seed).standard_normal(16), 1.0, (4, 4))
            for seed in (37, 38)
        ]
        neurons = [linear_neuron(template) for template in templates]
        assert fingerprint(neurons[0]) != fingerprint(neurons[1])
        assert fingerprint(neurons[0]) == fingerprint(linear_neuron(templates[0]))

    def test_changed_reference_rejected_on_resume(self, tmp_path):
        network = sthor_network(default_l1_spec(weight_seed=34))
        task = small_task()
        refs = sample_references(task, 2, seed=9)
        config = BenchConfig(seed=1, search=MICRO, n_pairs=60, unit_sample=1,
                             store_dir=str(tmp_path / "store"))
        first, second = self.match_views(network, seed=35)
        run_study([first], task, refs, config)
        with pytest.raises(ValueError, match="different study config"):
            run_study([second], task, refs, config)
