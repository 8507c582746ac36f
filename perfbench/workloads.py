"""The benchmark workloads, their output checks and digests.

Every input is built from the benchmark seed: network weights, task
set, references and every search seed.  Two choices keep the cost of a
run from depending on the draw, so that run-to-run spread measures the
machine and not the seed:

- The L2 network's hyperparameters are pinned to the values of
  ``default_l2_spec()``.  ``HyperRanges()`` draws the level-1 filter
  count from (8, 16, 32), which moves the forward cost by up to 4x and
  the unit optimum by two orders of magnitude from one seed to the
  next.  The seed still draws the weights.
- The L1 study pins the pool exponent to that of ``default_l1_spec()``.
  An exponent of 10 costs a general power where 2 costs a square root,
  and the count of such networks among 10 moves with the seed.  The
  normalization strengths are still drawn, so the networks differ in
  more than their weights.

Searches keep the protocol's stagnation rule.  Every search budget is
above the solver's lazy eigendecomposition gap (about 2.0 evaluations
per dimension at N=441 and 2.2 at N=121), so each search that spends
its budget pays for at least one ``eigh`` of its covariance.
Iterations are kept short by cutting the cone angles to two and the
subspace searches to two per kind, not the budgets.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import tunescope.bench as ts_bench
from tunescope.bench import BenchConfig, TaskSpec, generate_task_stimuli, sample_references
from tunescope.search import SearchConfig, cone_violation, sphere_violation
from tunescope.stimulus import Stimulus
from tunescope.targets import (
    HyperRanges,
    default_l1_spec,
    default_l2_spec,
    sample_network_population,
    unit_view,
)

TOLERANCE = 1e-9
# the first and third of the protocol's five cone angles
DELTAS = (0.1 * math.pi, 0.3 * math.pi)

_L2_LEVEL = default_l2_spec().levels[0]
PINNED_L2 = HyperRanges(
    n_filters=(_L2_LEVEL.n_filters,),
    pool_exponent=(_L2_LEVEL.pool_exponent,),
    norm_strength=(_L2_LEVEL.norm_strength,),
)
STUDY_L1 = HyperRanges(pool_exponent=(default_l1_spec().levels[0].pool_exponent,))


class Checker:
    """Collects output-check failures and the bytes of the result digest."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self._hash = hashlib.sha256()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def feed(self, blob: bytes) -> None:
        self._hash.update(blob)

    def digest(self) -> str:
        return self._hash.hexdigest()

    def sphere(self, label: str, points, energy: float) -> None:
        for i, point in enumerate(points):
            self.feed(np.ascontiguousarray(point.values).tobytes())
            violation = sphere_violation(point, energy)
            if not violation <= TOLERANCE:
                self.fail(f"{label}[{i}] sphere violation {violation:.3e}")

    def cone(self, label: str, points, x_hat: Stimulus, deltas) -> None:
        self.sphere(label, points, x_hat.energy)
        for i, (point, delta) in enumerate(zip(points, deltas)):
            violation = cone_violation(point, x_hat, delta)
            if not violation <= TOLERANCE:
                self.fail(f"{label}[{i}] cone violation {violation:.3e} at delta {delta:.4f}")

    def values(self, label: str, mapping: dict) -> None:
        """Digest every value; every non-None value must be finite."""
        for key in sorted(mapping):
            value = mapping[key]
            self.feed(f"{label}.{key}={value!r};".encode())
            if value is not None and not math.isfinite(value):
                self.fail(f"{label}.{key} is not finite: {value!r}")

    def report(self, label: str, report) -> None:
        self.values(label, report.as_dict())
        self.values(f"{label}.optimum", {"fitness": report.provenance["optimum_fitness"]})

    def paths_and_subspace(self, label: str, x_hat: Stimulus, paths, subspace: dict) -> None:
        self.sphere(f"{label}.x_hat", [x_hat], x_hat.energy)
        for path in paths:
            self.cone(f"{label}.path.{path.kind}", path.points, x_hat, path.deltas)
        for kind, sample in sorted(subspace.items()):
            deltas = [sample.delta] * len(sample.columns)
            self.cone(f"{label}.subspace.{kind}", sample.columns, x_hat, deltas)


class UnitL2:
    """``characterize_unit`` with subspaces on unit 12 of one L2 network."""

    operations = 1

    def __init__(self, seed: int) -> None:
        nets, _ = sample_network_population(default_l2_spec(), 1, PINNED_L2, seed)
        self.networks = nets
        self.task = generate_task_stimuli(TaskSpec(height=21, width=21, seed=seed))
        self.config = SearchConfig(
            seed=seed,
            optimal_runs=1,
            optimal_budget_per_dim=10,
            seed_candidates=200,
            deltas=DELTAS,
            path_budget_per_dim=3,
            subspace_runs=2,
        )

    def call(self, networks, workdir: Path):
        unit = unit_view(networks[0], 12)
        return ts_bench.characterize_unit(unit, self.config, self.task, with_subspace=True)

    def verify(self, result, workdir: Path, check: Checker) -> float:
        report, artifacts = result
        check.report("unit", report)
        check.paths_and_subspace(
            "unit", artifacts["optimal"].x_hat, artifacts["paths"], artifacts["subspace"]
        )
        return report.provenance["optimum_fitness"]


def relative_distance(fitness: float, reference_response) -> float:
    """``||f(x) - r|| / ||r||`` from a match fitness ``exp(-||f(x) - r||)``.

    Dividing by the reference response's norm makes the distance
    comparable across networks, whose response scales differ.
    """
    return -math.log(fitness) / float(np.linalg.norm(reference_response))


def match_quality(reports, networks, references) -> float:
    """Inverse of the mean relative distance of the match optima.

    Doubling every distance halves it; ``exp(-distance)`` would hide
    such a loss near 1.
    """
    distances = []
    for report, network in zip(reports, networks):
        responses = network.batch(references.matrix())
        best = responses[report.provenance["best_reference"]]
        distances.append(relative_distance(report.provenance["optimum_fitness"], best))
    return 1.0 / statistics.fmean(distances)


def _check_population(check: Checker, label: str, report, artifacts) -> None:
    check.report(label, report)
    x_hat = artifacts["x_hat"]
    check.paths_and_subspace(label, x_hat, artifacts["paths"], artifacts["subspace"])
    check.sphere(f"{label}.unit_hats", artifacts["unit_hats"], x_hat.energy)
    for i, recon in enumerate(artifacts["reconstructions"]):
        check.sphere(f"{label}.reconstruct[{i}]", recon.reconstructions, x_hat.energy)


@contextmanager
def _capturing(name: str, sink: list):
    """Record what ``tunescope.bench.<name>`` returns while inside."""
    original = getattr(ts_bench, name)

    def capture(*args, **kwargs):
        out = original(*args, **kwargs)
        sink.append(out)
        return out

    setattr(ts_bench, name, capture)
    try:
        yield
    finally:
        setattr(ts_bench, name, original)


class StudyL1:
    """``run_study`` over 10 L1 networks into a fresh store."""

    networks_in_study = 10
    operations = networks_in_study
    store_files = ("measures.csv", "correlation.csv", "summary.json")

    def __init__(self, seed: int) -> None:
        nets, _ = sample_network_population(
            default_l1_spec(), self.networks_in_study, STUDY_L1, seed
        )
        self.networks = nets
        self.task = generate_task_stimuli(TaskSpec(height=11, width=11, seed=seed))
        self.references = sample_references(self.task, 2, seed)
        self.search = SearchConfig(
            optimal_runs=1,
            optimal_budget_per_dim=3,
            seed_candidates=50,
            deltas=DELTAS,
            path_budget_per_dim=3,
            subspace_runs=2,
            reconstruct_runs=1,
            reconstruct_budget_per_dim=3,
        )
        self.seed = seed

    def call(self, networks, workdir: Path):
        config = BenchConfig(
            seed=self.seed,
            search=self.search,
            n_pairs=200,
            unit_sample=2,
            store_dir=str(workdir / "store"),
            workers=1,
        )
        captured: list = []
        # the capture keeps each network's artifacts for the output check
        with _capturing("characterize_population", captured):
            result = ts_bench.run_study(list(networks), self.task, self.references, config)
        return result, captured

    def verify(self, result, workdir: Path, check: Checker) -> float:
        study, captured = result
        if len(captured) != len(self.networks):
            check.fail(f"{len(captured)} networks characterized, expected {len(self.networks)}")
        for index, (report, artifacts) in enumerate(captured):
            _check_population(check, f"network{index}", report, artifacts)
        check.values("performance", dict(enumerate(study.performances)))
        for row in study.correlation_rows:
            numbers = {key: value for key, value in row.items() if key != "measure"}
            check.values(f"correlation.{row['measure']}", numbers)
        if study.all_r2 is None:
            check.fail("correlation stage did not run")
        store = workdir / "store"
        for name in self.store_files:
            path = store / name
            if not path.is_file():
                check.fail(f"store file {name} missing")
                continue
            check.feed(path.read_bytes())
        return match_quality(study.reports, self.networks, self.references)


WORKLOADS = {"unit_l2": UnitL2, "study_l1": StudyL1}
