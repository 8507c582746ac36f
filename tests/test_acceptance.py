"""End-to-end acceptance gate.

Each criterion prints exactly one verdict line (through the capture, so
it shows up in any pytest run).  The two expensive population fixtures
are session-scoped and shared: `unit_study` feeds criteria 5 and 6,
`l2_bench` feeds criteria 3 and 8.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from tunescope.bench import (
    BenchConfig,
    TaskSpec,
    characterize_population,
    generate_task_stimuli,
    run_study,
    sample_references,
)
from tunescope.measures import (
    MeasureReport,
    path_potential_population,
    path_potential_unit,
    spectral_complexity,
    ssim,
    subspace_capacity,
)
from tunescope.search import (
    PathResult,
    SearchConfig,
    SubspaceSample,
    cone_violation,
    invariance_path,
    optimal_stimulus,
    random_walk_curve,
    selectivity_path,
    sphere_violation,
    subspace_sample,
)
from tunescope.seeds import derive_int, derive_rng
from tunescope.stats import d_prime, multiple_r2, pearson, permutation_test, spearman
from tunescope.stimulus import Stimulus, read_stimulus_csv
from tunescope.targets import (
    HyperRanges,
    default_l1_spec,
    default_l2_spec,
    linear_neuron,
    quadratic_neuron,
    sample_network_population,
    unit_view,
)

DELTAS = tuple(0.1 * np.pi * k for k in range(1, 6))


@contextmanager
def verdict(capsys, number: int, description: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} FAIL: {description}", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} PASS: {description}", flush=True)


def unit_vector(n: int, seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# shared population fixtures

UNIT_SEARCH = dict(
    optimal_runs=1,
    optimal_budget_per_dim=30,
    seed_candidates=200,
    path_budget_per_dim=8,
)


def strongest_unit(net, rng) -> int:
    probe = rng.standard_normal((64, net.size))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    return int(np.argmax(net.batch(probe).max(axis=0)))


@pytest.fixture(scope="session")
def unit_study():
    """One strong unit from each of 20 shallow and 20 deep cascades."""
    populations = {
        "l1": sample_network_population(default_l1_spec(), 20, HyperRanges(),
                                        seed=101)[0],
        "l2": sample_network_population(default_l2_spec(), 20, HyperRanges(),
                                        seed=202)[0],
    }
    rows = {"l1": [], "l2": []}
    for name, nets in populations.items():
        for i, net in enumerate(nets):
            seed = derive_int(7, name, i)
            config = SearchConfig(seed=seed, **UNIT_SEARCH)
            target = unit_view(net, strongest_unit(net, derive_rng(seed, "unit-pick")))
            optimal = optimal_stimulus(target, config)
            selectivity = selectivity_path(target, optimal.x_hat, config)
            row = {
                "ossc": spectral_complexity(optimal.x_hat),
                "slpp": path_potential_unit(selectivity, optimal.fitness),
                "f_opt": optimal.fitness,
            }
            if name == "l2":
                invariance = invariance_path(target, optimal.x_hat, config)
                walks = random_walk_curve(target, optimal.x_hat, config.deltas,
                                          20, derive_rng(seed, "walks"))
                by_delta = {}
                for delta, fitness in walks:
                    by_delta.setdefault(round(delta, 12), []).append(
                        fitness / optimal.fitness)
                row["invariance"] = np.array(invariance.fitnesses) / optimal.fitness
                row["selectivity"] = np.array(selectivity.fitnesses) / optimal.fitness
                row["walk"] = np.array(
                    [np.mean(by_delta[k]) for k in sorted(by_delta)]
                )
            rows[name].append(row)
    return rows


BENCH_SEED = 424
BENCH_SEARCH = SearchConfig(
    optimal_runs=1,
    optimal_budget_per_dim=10,
    seed_candidates=100,
    path_budget_per_dim=4,
    subspace_runs=3,
    reconstruct_runs=1,
    reconstruct_budget_per_dim=10,
)


@pytest.fixture(scope="session")
def l2_bench(tmp_path_factory):
    """The same 20-network deep-cascade study, run twice into two stores."""
    networks, _ = sample_network_population(default_l2_spec(), 20, HyperRanges(),
                                            seed=55)
    task = generate_task_stimuli(TaskSpec(height=21, width=21, seed=11))
    references = sample_references(task, 2, seed=9)
    stores = []
    results = []
    for name in ("first", "second"):
        store = tmp_path_factory.mktemp(f"bench_{name}") / "store"
        config = BenchConfig(seed=BENCH_SEED, search=BENCH_SEARCH, n_pairs=100,
                             unit_sample=1, store_dir=str(store))
        results.append(run_study(networks, task, references, config))
        stores.append(store)
    return {
        "networks": networks,
        "task": task,
        "references": references,
        "stores": stores,
        "results": results,
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_linear_neuron_identity(capsys):
    with verdict(capsys, 1, "linear-neuron identity: template recovery, "
                            "cosine paths, near-zero potentials"):
        for side in (4, 11):
            n = side * side
            w = unit_vector(n, seed=300 + side)
            target = linear_neuron(Stimulus.from_values(w, side, side))
            config = SearchConfig(
                seed=derive_int(909, "identity", side),
                optimal_runs=1,
                optimal_budget_per_dim=100,
                seed_candidates=400,
                path_budget_per_dim=20,
            )
            started = time.perf_counter()
            optimal = optimal_stimulus(target, config)
            cosine = float(w @ optimal.x_hat.values)
            assert cosine >= 0.99, f"N={n}: cosine {cosine}"
            for build, label in ((invariance_path, "inpp"),
                                 (selectivity_path, "slpp")):
                path = build(target, optimal.x_hat, config)
                for delta, fitness in zip(path.deltas, path.fitnesses):
                    assert abs(fitness - np.cos(delta)) <= 0.01, (
                        f"N={n} {path.kind} at {delta}: {fitness}"
                    )
                potential = path_potential_unit(path, optimal.fitness)
                assert potential <= 0.02, f"N={n} {label}: {potential}"
            elapsed = time.perf_counter() - started
            if n == 121:
                assert elapsed < 60.0, f"N=121 characterization took {elapsed:.1f}s"


def test_criterion_2_quadratic_neuron_oracle(capsys):
    with verdict(capsys, 2, "quadratic neuron: top eigenvector recovered, "
                            "cone subspaces span the extreme eigenspaces"):
        n = 16
        rng = np.random.default_rng(41)
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigenvalues = np.linspace(8.0, -8.0, n)
        q = basis @ np.diag(eigenvalues) @ basis.T
        target = quadratic_neuron(q, np.zeros(n), 0.0, (4, 4))
        config = SearchConfig(
            seed=derive_int(909, "quadratic"),
            optimal_runs=2,
            optimal_budget_per_dim=100,
            seed_candidates=400,
            path_budget_per_dim=40,
            subspace_runs=12,
        )
        optimal = optimal_stimulus(target, config)
        x_hat = optimal.x_hat.values
        top = basis[:, 0]
        assert abs(float(top @ x_hat)) >= 0.99

        # eigendecomposition oracle for where the orthogonal energy lands
        spans = {
            "invariance": basis[:, :2],
            "selectivity": basis[:, -2:],
        }
        for kind, span in spans.items():
            sample = subspace_sample(target, optimal.x_hat, config, kind=kind)
            assert abs(sample.delta - 0.1 * np.pi) < 1e-12
            for column in sample.columns:
                residual = column.values - (column.values @ x_hat) * x_hat
                energy = float(residual @ residual)
                assert energy > 0
                in_span = float(np.sum((span.T @ residual) ** 2))
                assert in_span / energy >= 0.9, (
                    f"{kind}: {in_span / energy:.3f} of orthogonal energy"
                )


def test_criterion_3_constraint_audit(capsys, l2_bench):
    with verdict(capsys, 3, "constraint audit: every emitted stimulus on the "
                            "sphere (1e-9) and cone (1e-6)"):
        store = l2_bench["stores"][0]
        audited = 0
        for net_dir in sorted(store.glob("network_*")):
            x_hat = read_stimulus_csv(net_dir / "x_hat.csv")
            assert sphere_violation(x_hat, 1.0) <= 1e-9, net_dir.name
            audited += 1
        assert audited == 20

        # replay the study protocol on the first five networks and audit
        # every stimulus the search stages emit
        task, references = l2_bench["task"], l2_bench["references"]
        checked = 0
        for index in range(5):
            config = replace(BENCH_SEARCH, seed=derive_int(BENCH_SEED, "network", index))
            _, artifacts = characterize_population(
                l2_bench["networks"][index], task, references, config,
                unit_sample=1,
            )
            x_hat = artifacts["x_hat"]
            stored = read_stimulus_csv(
                store / f"network_{index:03d}" / "x_hat.csv"
            )
            assert np.array_equal(stored.values, x_hat.values)
            on_sphere = [x_hat, *artifacts["unit_hats"]]
            for recon_set in artifacts["reconstructions"]:
                on_sphere.extend(recon_set.reconstructions)
            for stimulus in on_sphere:
                assert sphere_violation(stimulus, 1.0) <= 1e-9
                checked += 1
            on_cone = [
                (point, delta)
                for path in artifacts["paths"]
                for delta, point in zip(path.deltas, path.points)
            ] + [
                (column, sample.delta)
                for sample in artifacts["subspace"].values()
                for column in sample.columns
            ]
            for point, delta in on_cone:
                assert sphere_violation(point, 1.0) <= 1e-9
                assert cone_violation(point, x_hat, delta) <= 1e-6
                checked += 1
        assert checked >= 5 * (1 + 1 + 2 + 10 + 6)


def test_criterion_4_measure_bounds_and_anchors(capsys):
    with verdict(capsys, 4, "measure bounds and anchors: [0,1] ranges, exact "
                            "fixtures, quadrature oracles"):
        rng = np.random.default_rng(77)

        def stim(values, h, w):
            return Stimulus.from_values(np.asarray(values, dtype=np.float64),
                                        h, w)

        def sample_of(columns, anchor=None):
            return SubspaceSample(
                kind="invariance", delta=0.1 * np.pi,
                columns=tuple(columns), fitnesses=(0.0,) * len(columns),
                anchor=anchor,
            )

        def curve(fitnesses):
            return PathResult(kind="invariance", deltas=DELTAS, points=(),
                              fitnesses=tuple(float(f) for f in fitnesses))

        # exact anchors
        base = stim(rng.standard_normal(16), 4, 4)
        assert subspace_capacity(sample_of([base] * 4)) == 0.0
        eye = [stim(np.eye(16)[i], 4, 4) for i in range(4)]
        assert subspace_capacity(sample_of(eye)) == pytest.approx(1.0, abs=1e-12)
        img = stim(rng.uniform(0, 1, 256), 16, 16)
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

        # closed-form spectrum fixture: a pure cosine grating concentrates
        # on two symmetric frequency bins
        xs = np.arange(16)
        grating = stim(np.cos(2 * np.pi * 3 * xs / 16)[None, :].repeat(16, 0),
                       16, 16)
        expected = (np.sqrt(2.0) - 1.0) / (np.sqrt(256.0) - 1.0)
        assert spectral_complexity(grating) == pytest.approx(expected, abs=1e-9)

        # hand quadrature for the piecewise path fixture
        piecewise = path_potential_unit(curve([1.0, 1.0, 1.0, 0.0, 0.0]), 1.0)
        gaps = np.array([0.1, 0.2, 0.3, 0.1, 0.0]) * np.pi
        hand = np.trapezoid(np.concatenate([[0.0], gaps]),
                            np.concatenate([[0.0], DELTAS])) / (np.pi**2 / 8)
        assert piecewise == pytest.approx(hand, abs=1e-12)

        # bounds sweeps
        for _ in range(40):
            assert 0.0 <= spectral_complexity(
                stim(rng.standard_normal(64), 8, 8)
            ) <= 1.0
            f_opt = float(rng.uniform(0.1, 5.0))
            wild = rng.uniform(-3 * f_opt, 3 * f_opt, 5)
            assert 0.0 <= path_potential_unit(curve(wild), f_opt) <= 1.0
            match_curve = curve(rng.uniform(0.0, 1.0, 5))
            assert 0.0 <= path_potential_population(match_curve) <= 1.0
            columns = [stim(rng.standard_normal(16), 4, 4) for _ in range(6)]
            assert 0.0 <= subspace_capacity(sample_of(columns)) <= 1.0


def test_criterion_5_shallow_vs_deep_direction(capsys, unit_study):
    with verdict(capsys, 5, "shallow-vs-deep direction: deep cascades score "
                            "higher complexity and selectivity potential"):
        for key in ("ossc", "slpp"):
            shallow = np.array([row[key] for row in unit_study["l1"]])
            deep = np.array([row[key] for row in unit_study["l2"]])
            assert len(shallow) >= 20 and len(deep) >= 20
            assert deep.mean() > shallow.mean(), (
                f"{key}: deep {deep.mean():.3f} vs shallow {shallow.mean():.3f}"
            )
            p = permutation_test(shallow, deep, statistic="mean_diff",
                                 n_perm=20_000, seed=3)
            assert p < 0.05, f"{key}: p={p}"


def test_criterion_6_fitness_distance_ordering(capsys, unit_study):
    with verdict(capsys, 6, "fitness-distance ordering: invariance >= "
                            "random walk >= selectivity per angle"):
        deep = unit_study["l2"]
        invariance = np.mean([row["invariance"] for row in deep], axis=0)
        walk = np.mean([row["walk"] for row in deep], axis=0)
        selectivity = np.mean([row["selectivity"] for row in deep], axis=0)
        holds = [
            invariance[k] >= walk[k] >= selectivity[k] for k in range(5)
        ]
        assert sum(holds) >= 4, (
            f"ordering holds at {sum(holds)}/5 angles: "
            f"inv={np.round(invariance, 3)} walk={np.round(walk, 3)} "
            f"sel={np.round(selectivity, 3)}"
        )


def test_criterion_7_statistics_oracles(capsys):
    with verdict(capsys, 7, "statistics oracles: closed forms, exhaustive "
                            "permutations, exact unit sensitivity"):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(40)
        assert pearson(x, 2.5 * x - 1.0) == pytest.approx(1.0, abs=1e-12)
        assert spearman(x, -x) == pytest.approx(-1.0, abs=1e-12)
        design = rng.standard_normal((30, 3))
        y = design @ [1.0, -2.0, 0.5] + 4.0
        assert multiple_r2(design, y) == pytest.approx(1.0, abs=1e-10)

        # exhaustive two-group enumeration: 3+3 values, C(6,3)=20 relabelings
        from itertools import combinations

        a, b = [0.0, 1.0, 2.0], [10.0, 11.0, 12.0]
        pooled = a + b
        observed = abs(np.mean(b) - np.mean(a))
        hits = 0
        draws = 0
        for picks in combinations(range(6), 3):
            first = [pooled[i] for i in picks]
            second = [pooled[i] for i in range(6) if i not in picks]
            draws += 1
            if abs(np.mean(second) - np.mean(first)) >= observed - 1e-15:
                hits += 1
        expected = (1 + hits) / (1 + draws)
        assert permutation_test(a, b, statistic="mean_diff") == pytest.approx(
            expected, abs=1e-12
        )

        assert d_prime([-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]) == 1.0


def test_criterion_8_study_plumbing(capsys, l2_bench):
    with verdict(capsys, 8, "study plumbing: full measure table with joint "
                            "fit, byte-identical reruns"):
        first, second = l2_bench["stores"]
        result = l2_bench["results"][0]
        lines = (first / "measures.csv").read_text().splitlines()
        assert lines[0] == "network,performance," + ",".join(MeasureReport.FIELDS)
        assert len(lines) == 21
        table = (first / "correlation.csv").read_text().splitlines()
        names = [line.split(",")[0] for line in table[1:]]
        assert names == ["OSEP", "INPP", "SLPP", "INSC", "ITSA", "STSA",
                         "TSES", "ALL"]
        assert result.all_r2 is not None and 0.0 <= result.all_r2 <= 1.0

        for filename in ("measures.csv", "correlation.csv", "summary.json"):
            assert (first / filename).read_bytes() == (
                second / filename
            ).read_bytes(), filename
        for net_dir in sorted(first.glob("network_*")):
            twin = second / net_dir.name
            for artifact in sorted(net_dir.iterdir()):
                assert artifact.read_bytes() == (
                    twin / artifact.name
                ).read_bytes(), f"{net_dir.name}/{artifact.name}"
