"""Desk-scale task pipeline: synthetic stimuli, matching accuracy, study.

The study correlates landscape measures with a per-network behavioural
score.  Since no natural-image corpus ships with the package, the task
set is a family of oriented gratings (one orientation/frequency pair per
class, phase and position jittered within class) and the behavioural
readout is same/different pair matching with a distance threshold chosen
on a training split.  Absolute accuracies are not comparable to any
natural-image benchmark; only the variation across networks matters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .artifacts import write_csv, write_json
from .errors import DegenerateSplitError, RankDeficientError, ZeroVarianceError, check_fields
from .errors import is_finite_real
from .measures import (
    MeasureReport,
    build_fd_diagram,
    encoding_specificity,
    explanation_power,
    path_potential_population,
    path_potential_unit,
    spectral_complexity,
    subspace_alignment,
    subspace_capacity,
    write_fd_csv,
)
from .search import SearchConfig, cone_stage, encode_plans, optimal_plan, optimal_stimulus, run_plans
# unused here; perfbench/tracing.py wraps each procedure by its name here
from .search import invariance_path, reconstruct, selectivity_path, subspace_sample
from .seeds import derive_int, derive_rng
from .stats import multiple_r2, pearson, permutation_test, spearman, write_correlation_csv
from .stimulus import (
    StimulusSet,
    project_sphere,
    write_stimulus_csv,
    write_stimulus_pgm,
)
from .targets import TargetHandle, float64_sha256, match_fitness, unit_view

__all__ = [
    "TaskSpec",
    "BenchConfig",
    "BenchResult",
    "MIN_NETWORKS_FOR_TABLE",
    "TRAJECTORY_VERSION",
    "generate_task_stimuli",
    "sample_references",
    "sample_pairs",
    "pair_split",
    "study_pair_split",
    "choose_distance_threshold",
    "pair_matching_performance",
    "characterize_unit",
    "characterize_population",
    "correlation_table",
    "correlation_stage",
    "run_study",
    "collect_reports",
    "read_study_config",
]

# the correlation stage needs at least this many networks
MIN_NETWORKS_FOR_TABLE = 10

# Recorded in a store's fingerprint and run.json, so a store half-written
# by other search trajectories is refused on resume.  Bump it in any
# change that moves trajectories on purpose.
TRAJECTORY_VERSION = 2

# correlation-table rows in order, each labelled by its measure's name in
# capitals; the spectrum column, OSSC, joins only the ALL fit
FIG9_ROWS = tuple(
    (name.upper(), name) for name in ("osep", "inpp", "slpp", "insc", "itsa", "stsa", "tses")
)


@dataclass(frozen=True)
class TaskSpec:
    """Oriented-texture task family.

    Class k gets orientation pi*k/n_classes and a frequency from the
    linear ramp over ``frequency_range`` (cycles per patch).  Within a
    class, phase and position are jittered uniformly; zero jitter makes
    all class members identical.
    """

    n_classes: int = 8
    samples_per_class: int = 12
    height: int = 11
    width: int = 11
    frequency_range: tuple[float, float] = (1.0, 4.0)
    phase_jitter: float = float(np.pi)
    position_jitter: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(
            self, dict(n_classes=2, samples_per_class=1, height=1, width=1, seed=None),
            nonnegative=("phase_jitter", "position_jitter"), lists=("frequency_range",),
        )
        bounds = tuple(self.frequency_range)
        reals = len(bounds) == 2 and all(map(is_finite_real, bounds))
        if not (reals and 0 < bounds[0] <= bounds[1]):
            raise ValueError(
                f"frequency_range is {bounds!r}; it must be two finite reals, 0 < low <= high"
            )


def _oriented_grating(
    height: int,
    width: int,
    frequency: float,
    orientation: float,
    phase: float,
    dy: float,
    dx: float,
) -> np.ndarray:
    rows, cols = np.mgrid[0:height, 0:width].astype(np.float64)
    rows -= (height - 1) / 2 + dy
    cols -= (width - 1) / 2 + dx
    along = cols * np.cos(orientation) + rows * np.sin(orientation)
    side = max(height, width)
    return np.cos(2 * np.pi * frequency * along / side + phase)


def generate_task_stimuli(spec: TaskSpec) -> StimulusSet:
    """Labelled task set, every item projected to unit energy."""
    rng = derive_rng(spec.seed, "task")
    lo, hi = spec.frequency_range
    frequencies = np.linspace(lo, hi, spec.n_classes)
    items = []
    labels = []
    for k in range(spec.n_classes):
        orientation = np.pi * k / spec.n_classes
        for _ in range(spec.samples_per_class):
            phase = rng.uniform(-spec.phase_jitter, spec.phase_jitter)
            dy = rng.uniform(-spec.position_jitter, spec.position_jitter)
            dx = rng.uniform(-spec.position_jitter, spec.position_jitter)
            patch = _oriented_grating(
                spec.height, spec.width, frequencies[k], orientation, phase, dy, dx
            )
            items.append(project_sphere(patch.ravel(), 1.0, patch.shape))
            labels.append(k)
    return StimulusSet(items=tuple(items), labels=tuple(labels))


def sample_references(task: StimulusSet, n: int, seed: int) -> StimulusSet:
    """Uniform sample without replacement, in stable index order."""
    if not 1 <= n <= len(task):
        raise ValueError(f"cannot draw {n} references from {len(task)} items")
    rng = derive_rng(seed, "references")
    picked = np.sort(rng.choice(len(task), size=n, replace=False))
    labels = None
    if task.labels is not None:
        labels = tuple(task.labels[i] for i in picked)
    return StimulusSet(items=tuple(task[int(i)] for i in picked), labels=labels)


# ---------------------------------------------------------------------------
# pair-matching performance


def sample_pairs(
    labels, n_pairs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced same/different item pairs as (n_pairs, 2) indices + flags."""
    labels = list(labels)
    classes: dict = {}
    for index, label in enumerate(labels):
        classes.setdefault(label, []).append(index)
    names = sorted(classes)
    if len(names) < 2:
        raise ValueError("pair sampling needs at least 2 classes")
    rich = [name for name in names if len(classes[name]) >= 2]
    if not rich:
        raise ValueError("no class has 2 items to form a same pair")
    if n_pairs < 2:
        raise ValueError("need at least 2 pairs")

    pairs = np.empty((n_pairs, 2), dtype=np.intp)
    flags = np.zeros(n_pairs, dtype=bool)
    n_same = n_pairs // 2
    for row in range(n_same):
        name = rich[rng.integers(len(rich))]
        a, b = rng.choice(len(classes[name]), size=2, replace=False)
        pairs[row] = classes[name][a], classes[name][b]
        flags[row] = True
    for row in range(n_same, n_pairs):
        first, second = rng.choice(len(names), size=2, replace=False)
        group_a, group_b = classes[names[first]], classes[names[second]]
        pairs[row] = (
            group_a[rng.integers(len(group_a))],
            group_b[rng.integers(len(group_b))],
        )
    return pairs, flags


def choose_distance_threshold(distances: np.ndarray, same_flags: np.ndarray) -> float:
    """Best same/different cut among the distance quantiles.

    Pure function of its inputs; callers must pass training data only.
    """
    distances = np.asarray(distances, dtype=np.float64)
    same_flags = np.asarray(same_flags, dtype=bool)
    candidates = np.quantile(distances, np.linspace(0.0, 1.0, 21))
    best = None
    for candidate in candidates:
        accuracy = float(np.mean((distances <= candidate) == same_flags))
        if best is None or accuracy > best[1]:
            best = (float(candidate), accuracy)
    return best[0]


def pair_split(labels, n_pairs: int, split_seed: int) -> tuple[np.ndarray, ...]:
    """``sample_pairs``'s pairs and same flags, then the train and test
    halves as pair indices: a pure function of its arguments.

    Raises ``ValueError`` when the labels cannot form both pair types and
    ``DegenerateSplitError`` when a half lacks one.
    """
    if labels is None:
        raise ValueError("task set must be labelled")
    rng = derive_rng(split_seed, "pairs")
    pairs, flags = sample_pairs(labels, n_pairs, rng)
    order = rng.permutation(n_pairs)
    n_train = n_pairs // 2
    train, test = order[:n_train], order[n_train:]
    if len(train) == 0 or len(test) == 0:
        raise DegenerateSplitError("both halves of the pair split must be non-empty")
    for half, half_name in ((train, "train"), (test, "test")):
        kinds = set(flags[half].tolist())
        if len(kinds) < 2:
            raise DegenerateSplitError(f"{half_name} half has only one pair type")
    return pairs, flags, train, test


def study_pair_split(task: StimulusSet, config: BenchConfig) -> tuple[np.ndarray, ...]:
    """The one pair split that scores every network of a study."""
    return pair_split(task.labels, config.n_pairs, derive_int(config.seed, "pairs"))


def pair_matching_performance(target: TargetHandle, task: StimulusSet, split) -> float:
    """Threshold chosen on the train half, accuracy from the test half;
    ``split`` is ``pair_split``'s (pairs, flags, train, test) for ``task``."""
    if task.shape != target.input_shape:
        raise ValueError(f"task shape {task.shape} != target {target.input_shape}")
    pairs, flags, train, test = split
    responses = target.batch(task.matrix())
    distances = np.linalg.norm(
        responses[pairs[:, 0]] - responses[pairs[:, 1]], axis=1
    )
    threshold = choose_distance_threshold(distances[train], flags[train])
    return float(np.mean((distances[test] <= threshold) == flags[test]))


# ---------------------------------------------------------------------------
# per-target characterization bundles


def _subspace_measures(samples: dict, task: StimulusSet | None) -> dict:
    """``subspace.json``'s measures: ``capacity`` and, with a task, each alignment."""
    measures = {"capacity": subspace_capacity(samples["invariance"])}
    if task is not None:
        for kind, sample in samples.items():
            raw, normalized = subspace_alignment(sample, task)
            measures[f"{kind}_alignment"] = {"raw": raw, "normalized": normalized}
    return measures


def characterize_unit(
    target: TargetHandle,
    config: SearchConfig,
    task: StimulusSet | None = None,
    with_subspace: bool = False,
) -> tuple[MeasureReport, dict]:
    """Intrinsic scalar-unit protocol: optimum, two paths, four measures."""
    optimal = optimal_stimulus(target, config)
    x_hat = optimal.x_hat
    paths, samples = cone_stage(target, x_hat, config, with_subspace)
    osep = None if task is None else explanation_power(x_hat, task)
    measures = _subspace_measures(samples, task) if with_subspace else {}
    artifacts = {"optimal": optimal, "paths": paths, "subspace": samples,
                 "subspace_measures": measures}
    report = MeasureReport(
        ossc=spectral_complexity(x_hat),
        osep=osep,
        inpp=path_potential_unit(paths[0], optimal.fitness),
        slpp=path_potential_unit(paths[1], optimal.fitness),
        insc=measures.get("capacity"),
        itsa=measures.get("invariance_alignment", {}).get("normalized"),
        stsa=measures.get("selectivity_alignment", {}).get("normalized"),
        provenance={
            "level": "unit",
            "target": target.name,
            "optimum_fitness": float(optimal.fitness),
            "seed": int(config.seed),
        },
    )
    return report, artifacts


def characterize_population(
    target: TargetHandle,
    task: StimulusSet,
    references: StimulusSet,
    config: SearchConfig,
    unit_sample: int = 2,
) -> tuple[MeasureReport, dict]:
    """Population protocol around the best-matched reference response.

    The landscape is the match fitness to the reference with the largest
    response magnitude.  Unit optimal stimuli enter only through the
    explanation-power average.

    Every search reads ``target``, so independent searches run in
    lockstep: the population optimum, the unit optima and the
    reconstructions together, then the cone stage.
    """
    if task.shape != target.input_shape or references.shape != target.input_shape:
        raise ValueError("task/reference shapes must match the target input")

    reference_responses = target.batch(references.matrix())
    best_ref = int(np.argmax(np.linalg.norm(reference_responses, axis=1)))
    matcher = match_fitness(target, reference_responses[best_ref])
    pop_config = replace(config, seed=derive_int(config.seed, "population"))

    unit_rng = derive_rng(config.seed, "bench", "units")
    n_units = min(unit_sample, target.response_dim)
    unit_indices = sorted(
        int(i) for i in unit_rng.choice(target.response_dim, size=n_units, replace=False)
    )
    plans = [optimal_plan(matcher, pop_config)]
    plans += [
        optimal_plan(unit_view(target, index), replace(config, seed=derive_int(config.seed, "unit", index)))
        for index in unit_indices
    ]
    plans += encode_plans(target, references, config)
    optimal, *rest = run_plans(plans)
    x_hat = optimal.x_hat
    unit_hats = [result.x_hat for result in rest[:n_units]]
    recon_sets = rest[n_units:]
    osep = float(np.mean([explanation_power(h, task) for h in unit_hats]))
    scores = [encoding_specificity(recon) for recon in recon_sets]

    paths, samples = cone_stage(matcher, x_hat, pop_config, with_subspace=True)
    measures = _subspace_measures(samples, task)
    itsa, stsa = measures["invariance_alignment"], measures["selectivity_alignment"]

    report = MeasureReport(
        ossc=spectral_complexity(x_hat),
        osep=osep,
        tses=float(np.mean(scores)),
        inpp=path_potential_population(paths[0]),
        slpp=path_potential_population(paths[1]),
        insc=measures["capacity"],
        itsa=itsa["normalized"],
        stsa=stsa["normalized"],
        provenance={
            "level": "population",
            "target": target.name,
            "seed": int(config.seed),
            "best_reference": best_ref,
            "optimum_fitness": float(optimal.fitness),
            "unit_indices": unit_indices,
            "alignment_raw": {"itsa": itsa["raw"], "stsa": stsa["raw"]},
        },
    )
    artifacts = {
        "x_hat": x_hat,
        "paths": paths,
        "subspace": samples,
        "reconstructions": recon_sets,
        "specificities": scores,
        "unit_hats": unit_hats,
    }
    return report, artifacts


# ---------------------------------------------------------------------------
# the study


@dataclass(frozen=True)
class BenchConfig:
    store_dir: str
    seed: int = 0
    search: SearchConfig = field(default_factory=SearchConfig)
    n_pairs: int = 200
    unit_sample: int = 2
    workers: int = 1

    def __post_init__(self) -> None:
        check_fields(self, dict(seed=None, n_pairs=2, unit_sample=1, workers=1))


@dataclass(frozen=True)
class BenchResult:
    performances: tuple[float, ...]
    reports: tuple[MeasureReport, ...]
    correlation_rows: tuple[dict, ...]
    all_r2: float | None


def _varying(name: str, values, error: type = ZeroVarianceError) -> np.ndarray:
    """``values`` as floats; ``error``, naming the column, if they are all equal."""
    values = np.asarray(values, dtype=np.float64)
    if np.all(values == values[0]):
        raise error(f"{name} is the same for every network")
    return values


def correlation_table(
    reports, performances, seed: int = 0, n_perm: int = 10_000
) -> tuple[tuple[dict, ...], float]:
    """Measure-vs-performance statistics plus the joint R² of all eight.

    A column that is the same for every network raises an error naming it.
    """
    perf = _varying("performance", performances)
    rows = []
    for label, field_name in FIG9_ROWS:
        values = _varying(label, [getattr(r, field_name) for r in reports])
        rows.append(
            {
                "measure": label,
                "spearman": spearman(values, perf),
                "pearson": pearson(values, perf),
                "p_perm": permutation_test(
                    values,
                    perf,
                    statistic="slope",
                    n_perm=n_perm,
                    seed=derive_int(seed, "correlation", label),
                ),
            }
        )
    _varying("OSSC", [r.ossc for r in reports], RankDeficientError)
    design = np.column_stack(
        [[getattr(r, name) for r in reports] for name in MeasureReport.FIELDS]
    )
    all_r2 = multiple_r2(design, perf)
    # the joint fit is the squared multiple correlation, a Pearson-family
    # statistic, so it sits in the pearson column of the summary row
    rows.append({"measure": "ALL", "spearman": None, "pearson": all_r2, "p_perm": None})
    return tuple(rows), all_r2


def _network_dir(store: Path, index: int) -> Path:
    return store / f"network_{index:03d}"


def _write_network_artifacts(
    net_dir: Path, performance: float, report: MeasureReport, artifacts: dict
) -> None:
    write_stimulus_csv(artifacts["x_hat"], net_dir / "x_hat.csv")
    write_stimulus_pgm(artifacts["x_hat"], net_dir / "x_hat.pgm")
    write_fd_csv(build_fd_diagram(artifacts["paths"], None), net_dir / "fd.csv")
    blob = {
        "measures": report.as_dict(),
        "performance": performance,
        "provenance": report.provenance,
    }
    write_json(net_dir / "report.json", blob)


def _load_network(net_dir: Path) -> tuple[float, MeasureReport] | None:
    """A finished network's result, or None while it is pending.

    A missing, truncated or unreadable ``report.json`` counts as pending.
    """
    try:
        with open(net_dir / "report.json", encoding="ascii") as fh:
            blob = json.load(fh)
        report = MeasureReport(**blob["measures"], provenance=blob.get("provenance", {}))
        return float(blob["performance"]), report
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _study_network(
    target: TargetHandle,
    task: StimulusSet,
    references: StimulusSet,
    search_config: SearchConfig,
    split: tuple[np.ndarray, ...],
    unit_sample: int,
    net_dir: Path,
) -> None:
    performance = pair_matching_performance(target, task, split)
    report, artifacts = characterize_population(
        target, task, references, search_config, unit_sample
    )
    _write_network_artifacts(net_dir, performance, report, artifacts)


def _study_fingerprint(
    population, task: StimulusSet, references: StimulusSet, config: BenchConfig
) -> dict:
    blob = {
        "trajectory_version": TRAJECTORY_VERSION,
        "seed": config.seed,
        "n_pairs": config.n_pairs,
        "unit_sample": config.unit_sample,
        "search": asdict(config.search),
        "n_networks": len(population),
        "networks": [handle.fingerprint or handle.name for handle in population],
        "n_task_items": len(task),
        "task_sha256": float64_sha256(task.matrix()),
        "n_references": len(references),
        "references_sha256": float64_sha256(references.matrix()),
    }
    # round-trip so tuples compare equal to a reloaded store fingerprint
    return json.loads(json.dumps(blob))


def write_measures_csv(path, performances, reports) -> None:
    rows = [("network", "performance", *MeasureReport.FIELDS)]
    for index, (performance, report) in enumerate(zip(performances, reports)):
        rows.append((index, performance, *report.as_dict().values()))
    write_csv(path, rows)


def correlation_stage(
    out: Path, reports, performances, seed: int
) -> tuple[tuple[dict, ...], float | None]:
    """Correlate measures with performance; write the result under ``out``.

    Below ``MIN_NETWORKS_FOR_TABLE`` networks the table is skipped and
    ``all_r2`` is None.  ``summary.json`` is always written and
    ``correlation.csv`` only when the table ran.
    """
    rows: tuple[dict, ...] = ()
    summary = {"seed": seed, "n_networks": len(reports), "all_r2": None,
               "performances": list(performances)}
    if len(reports) >= MIN_NETWORKS_FOR_TABLE:
        rows, summary["all_r2"] = correlation_table(reports, performances, seed=seed)
        summary["correlations"] = list(rows)
        write_correlation_csv(list(rows), out / "correlation.csv")
    write_json(out / "summary.json", summary)
    return rows, summary["all_r2"]


def run_study(
    population: list[TargetHandle],
    task: StimulusSet,
    references: StimulusSet,
    config: BenchConfig,
) -> BenchResult:
    """Characterize every network, then correlate measures with accuracy.

    Per-network results are persisted under ``store_dir`` as they finish
    and are reused on re-runs, so an interrupted study continues instead
    of restarting.  The tables are built from the store, read back
    through ``collect_reports`` as ``report`` reads it.  The correlation
    stage needs ``MIN_NETWORKS_FOR_TABLE`` networks and is skipped below
    that (smoke runs still emit the measure table and ``summary.json``).

    With ``workers`` above 1 and more than one pending network, each
    pending network's handle is pickled to a worker process, which
    studies that very handle; every built-in handle pickles, and a custom
    handle that does not fails there.  The pool gets at most one worker
    per pending network, and a lone pending network runs in-process.
    """
    if not population:
        raise ValueError("empty population")
    split = study_pair_split(task, config)
    store = Path(config.store_dir)
    fingerprint = _study_fingerprint(population, task, references, config)
    fp_path = store / "study_config.json"
    if not fp_path.exists():
        write_json(fp_path, fingerprint)
    elif read_study_config(store) != fingerprint:
        raise ValueError(f"artifact store {store} was built with a different study config")

    jobs = []
    for index, target in enumerate(population):
        net_dir = _network_dir(store, index)
        if _load_network(net_dir) is None:
            search_config = replace(config.search, seed=derive_int(config.seed, "network", index))
            jobs.append(
                (target, task, references, search_config, split, config.unit_sample, net_dir)
            )
    # the pool starts all its workers at once, so it gets no more than there are jobs
    workers = min(config.workers, len(jobs))
    if workers > 1:
        # imported only here: a process that starts no pool skips its memory and import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            list(pool.map(_study_network, *zip(*jobs)))
    else:
        for job in jobs:
            _study_network(*job)

    performances, reports = collect_reports(store)
    write_measures_csv(store / "measures.csv", performances, reports)

    correlation_rows, all_r2 = correlation_stage(store, reports, performances, config.seed)
    return BenchResult(
        performances=performances,
        reports=reports,
        correlation_rows=correlation_rows,
        all_r2=all_r2,
    )


def collect_reports(store_dir) -> tuple[tuple[float, ...], tuple[MeasureReport, ...]]:
    """Re-read, in index order, every network report that an artifact
    store's ``study_config.json`` records.

    Unlike ``--resume``, which recomputes such a network, a network whose
    directory or ``report.json`` is missing or unreadable is an error
    here: a table over the remaining networks would silently describe a
    different study.
    """
    store = Path(store_dir)
    n_networks = read_study_config(store)["n_networks"]
    net_dirs = [_network_dir(store, index) for index in range(n_networks)]
    loaded = [_load_network(net_dir) for net_dir in net_dirs]
    unreadable = [net_dir.name for net_dir, entry in zip(net_dirs, loaded) if entry is None]
    if unreadable:
        raise ValueError(
            f"missing or unreadable report.json under {store}: {', '.join(unreadable)}"
        )
    return tuple(entry[0] for entry in loaded), tuple(entry[1] for entry in loaded)


def read_study_config(store_dir) -> dict:
    """An artifact store's ``study_config.json``; ``ValueError`` naming the file
    unless it is a JSON object with an integer ``seed`` and ``n_networks`` >= 1."""
    path = Path(store_dir) / "study_config.json"
    try:
        blob = json.loads(path.read_text(encoding="ascii"))
        fields = SimpleNamespace(n_networks=blob["n_networks"], seed=blob["seed"])
        check_fields(fields, dict(n_networks=1, seed=None))
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ValueError(f"cannot read n_networks and seed from {path}: {exc!r}") from exc
    return blob
