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

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import write_artifact, write_json
from .errors import DegenerateSplitError, check_fields
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
from .targets import TargetHandle, match_fitness, spec_to_json, unit_view

__all__ = [
    "TaskSpec",
    "BenchConfig",
    "BenchResult",
    "MIN_NETWORKS_FOR_TABLE",
    "PairMatchingDetail",
    "generate_task_stimuli",
    "sample_references",
    "sample_pairs",
    "choose_distance_threshold",
    "pair_matching_detail",
    "pair_matching_performance",
    "characterize_unit",
    "characterize_population",
    "correlation_table",
    "correlation_stage",
    "run_study",
    "collect_reports",
]

# the correlation stage needs at least this many networks
MIN_NETWORKS_FOR_TABLE = 10

# correlation-table row order; the spectrum column joins only the ALL fit
FIG9_ROWS = (
    ("OSEP", "osep"),
    ("INPP", "inpp"),
    ("SLPP", "slpp"),
    ("INSC", "insc"),
    ("ITSA", "itsa"),
    ("STSA", "stsa"),
    ("TSES", "tses"),
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
    energy: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(
            self, dict(n_classes=2, samples_per_class=1, height=1, width=1, seed=None),
            positive=("energy",), nonnegative=("phase_jitter", "position_jitter"),
        )
        lo, hi = self.frequency_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad frequency range {self.frequency_range}")


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
    """Labelled task set, every item projected to the shared energy."""
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
            items.append(project_sphere(patch.ravel(), spec.energy, patch.shape))
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


@dataclass(frozen=True)
class PairMatchingDetail:
    accuracy: float
    threshold: float
    train_accuracy: float
    n_train: int
    n_test: int


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


def _split_accuracy(distances, flags, threshold) -> float:
    return float(np.mean((distances <= threshold) == flags))


def pair_matching_detail(
    target: TargetHandle, task: StimulusSet, n_pairs: int = 200, split_seed: int = 0
) -> PairMatchingDetail:
    """Threshold chosen on the train half, accuracy from the test half."""
    if task.labels is None:
        raise ValueError("task set must be labelled")
    if task.shape != target.input_shape:
        raise ValueError(f"task shape {task.shape} != target {target.input_shape}")
    rng = derive_rng(split_seed, "pairs")
    pairs, flags = sample_pairs(task.labels, n_pairs, rng)
    responses = target.batch(task.matrix())
    distances = np.linalg.norm(
        responses[pairs[:, 0]] - responses[pairs[:, 1]], axis=1
    )

    order = rng.permutation(n_pairs)
    n_train = n_pairs // 2
    train, test = order[:n_train], order[n_train:]
    if len(train) == 0 or len(test) == 0:
        raise DegenerateSplitError("both halves of the pair split must be non-empty")
    for half, half_name in ((train, "train"), (test, "test")):
        kinds = set(flags[half].tolist())
        if len(kinds) < 2:
            raise DegenerateSplitError(f"{half_name} half has only one pair type")

    threshold = choose_distance_threshold(distances[train], flags[train])
    return PairMatchingDetail(
        accuracy=_split_accuracy(distances[test], flags[test], threshold),
        threshold=threshold,
        train_accuracy=_split_accuracy(distances[train], flags[train], threshold),
        n_train=len(train),
        n_test=len(test),
    )


def pair_matching_performance(
    target: TargetHandle, task: StimulusSet, n_pairs: int = 200, split_seed: int = 0
) -> float:
    return pair_matching_detail(target, task, n_pairs, split_seed).accuracy


# ---------------------------------------------------------------------------
# per-target characterization bundles


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
    insc = itsa = stsa = None
    artifacts = {"optimal": optimal, "paths": paths, "subspace": samples}
    if with_subspace:
        insc = subspace_capacity(samples["invariance"])
        if task is not None:
            _, itsa = subspace_alignment(samples["invariance"], task)
            _, stsa = subspace_alignment(samples["selectivity"], task)
    report = MeasureReport(
        ossc=spectral_complexity(x_hat),
        osep=osep,
        inpp=path_potential_unit(paths[0], optimal.fitness),
        slpp=path_potential_unit(paths[1], optimal.fitness),
        insc=insc,
        itsa=itsa,
        stsa=stsa,
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
    itsa_raw, itsa = subspace_alignment(samples["invariance"], task)
    stsa_raw, stsa = subspace_alignment(samples["selectivity"], task)

    report = MeasureReport(
        ossc=spectral_complexity(x_hat),
        osep=osep,
        tses=float(np.mean(scores)),
        inpp=path_potential_population(paths[0]),
        slpp=path_potential_population(paths[1]),
        insc=subspace_capacity(samples["invariance"]),
        itsa=itsa,
        stsa=stsa,
        provenance={
            "level": "population",
            "target": target.name,
            "seed": int(config.seed),
            "best_reference": best_ref,
            "optimum_fitness": float(optimal.fitness),
            "unit_indices": unit_indices,
            "alignment_raw": {"itsa": float(itsa_raw), "stsa": float(stsa_raw)},
        },
    )
    artifacts = {
        "x_hat": x_hat,
        "paths": paths,
        "subspace": samples,
        "reconstructions": recon_sets,
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


def correlation_table(
    reports, performances, seed: int = 0, n_perm: int = 10_000
) -> tuple[tuple[dict, ...], float]:
    """Measure-vs-performance statistics plus the joint R² of all eight."""
    perf = np.asarray(performances, dtype=np.float64)
    rows = []
    for label, field_name in FIG9_ROWS:
        values = np.array([getattr(r, field_name) for r in reports], dtype=np.float64)
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
    n_pairs: int,
    split_seed: int,
    unit_sample: int,
    net_dir: Path,
) -> tuple[float, MeasureReport]:
    performance = pair_matching_performance(target, task, n_pairs, split_seed)
    report, artifacts = characterize_population(
        target, task, references, search_config, unit_sample
    )
    _write_network_artifacts(net_dir, performance, report, artifacts)
    return performance, report


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _bound_sha256(function) -> str | None:
    """Digest of the arrays and floats a ``functools.partial`` binds;
    None when it binds none or ``function`` is no partial."""
    bound = (*function.args, *function.keywords.values()) if isinstance(function, partial) else ()
    data = [value for value in bound if isinstance(value, (np.ndarray, float))]
    return _sha256(*data) if data else None


def _network_fingerprint(handle: TargetHandle):
    """Spec and kernel digest of a built cascade.  A view of a network
    gives its name, its network's fingerprint and the data its readout
    binds; other targets give their name and the data their batch binds."""
    if handle.network is not None:
        blob = {"view": handle.name, "network": _network_fingerprint(handle.network)}
        digest = _bound_sha256(handle.readout)
        return blob if digest is None else dict(blob, readout_sha256=digest)
    meta = handle.meta or {}
    if "spec" not in meta:
        digest = _bound_sha256(handle.batch)
        return handle.name if digest is None else {"name": handle.name, "batch_sha256": digest}
    return {
        "spec": spec_to_json(meta["spec"]),
        "kernels_sha256": _sha256(*meta["kernels"]),
    }


def _study_fingerprint(
    population, task: StimulusSet, references: StimulusSet, config: BenchConfig
) -> dict:
    blob = {
        "seed": config.seed,
        "n_pairs": config.n_pairs,
        "unit_sample": config.unit_sample,
        "search": asdict(config.search),
        "n_networks": len(population),
        "networks": [_network_fingerprint(handle) for handle in population],
        "n_task_items": len(task),
        "task_sha256": _sha256(task.matrix()),
        "n_references": len(references),
        "references_sha256": _sha256(references.matrix()),
    }
    # round-trip so tuples compare equal to a reloaded store fingerprint
    return json.loads(json.dumps(blob))


def _float_cell(value) -> str:
    return "" if value is None else repr(float(value))


def write_measures_csv(path, performances, reports) -> None:
    lines = ["network,performance," + ",".join(MeasureReport.FIELDS)]
    for index, (performance, report) in enumerate(zip(performances, reports)):
        cells = [str(index), repr(float(performance))]
        cells += [_float_cell(getattr(report, name)) for name in MeasureReport.FIELDS]
        lines.append(",".join(cells))
    write_artifact(path, "\n".join(lines) + "\n")


def correlation_stage(
    out: Path, reports, performances, seed: int, n_perm: int = 10_000
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
        rows, summary["all_r2"] = correlation_table(reports, performances, seed=seed, n_perm=n_perm)
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
    of restarting.  The correlation stage needs ``MIN_NETWORKS_FOR_TABLE``
    networks and is skipped below that (smoke runs still emit the measure
    table and ``summary.json``).

    With ``workers`` above 1, each pending network's handle is pickled to
    a worker process, which studies that very handle; every built-in
    handle pickles, and a custom handle that does not fails there.
    """
    if not population:
        raise ValueError("empty population")
    store = Path(config.store_dir)
    fingerprint = _study_fingerprint(population, task, references, config)
    fp_path = store / "study_config.json"
    if fp_path.exists():
        with open(fp_path, encoding="ascii") as fh:
            if json.load(fh) != fingerprint:
                raise ValueError(
                    f"artifact store {store} was built with a different study config"
                )
    else:
        write_json(fp_path, fingerprint)

    split_seed = derive_int(config.seed, "pairs")
    results: dict[int, tuple[float, MeasureReport]] = {}
    pending = []
    jobs = []
    for index, target in enumerate(population):
        net_dir = _network_dir(store, index)
        loaded = _load_network(net_dir)
        if loaded is not None:
            results[index] = loaded
            continue
        pending.append(index)
        search_config = replace(config.search, seed=derive_int(config.seed, "network", index))
        jobs.append(
            (target, task, references, search_config, config.n_pairs, split_seed,
             config.unit_sample, net_dir)
        )
    if config.workers > 1 and jobs:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_study_network, *zip(*jobs)))
    else:
        outcomes = [_study_network(*job) for job in jobs]
    results.update(zip(pending, outcomes))

    performances = tuple(results[i][0] for i in range(len(population)))
    reports = tuple(results[i][1] for i in range(len(population)))
    write_measures_csv(store / "measures.csv", performances, reports)

    correlation_rows, all_r2 = correlation_stage(store, reports, performances, config.seed)
    return BenchResult(
        performances=performances,
        reports=reports,
        correlation_rows=correlation_rows,
        all_r2=all_r2,
    )


def collect_reports(store_dir) -> tuple[tuple[float, ...], tuple[MeasureReport, ...]]:
    """Re-read every persisted network report from an artifact store.

    Unlike ``--resume``, which recomputes such a network, a
    ``network_*`` directory whose ``report.json`` is missing or
    unreadable is an error here: a table over the remaining networks
    would silently describe a different study.
    """
    store = Path(store_dir)
    loaded = []
    unreadable = []
    for net_dir in sorted(store.glob("network_*")):
        entry = _load_network(net_dir)
        if entry is None:
            unreadable.append(net_dir.name)
        else:
            loaded.append(entry)
    if unreadable:
        raise ValueError(
            f"missing or unreadable report.json under {store}: {', '.join(unreadable)}"
        )
    if not loaded:
        raise FileNotFoundError(f"no network reports under {store}")
    performances = tuple(entry[0] for entry in loaded)
    reports = tuple(entry[1] for entry in loaded)
    return performances, reports
