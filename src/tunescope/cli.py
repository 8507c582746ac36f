"""Command-line driver: build targets, characterize them, run studies.

Anything nested (solver budgets, task families, study layouts) lives in
JSON config files with a documented key schema.  Flags cover paths,
seeds, the resume switch, the work pool and seven scalar settings:
``--shape``, ``--levels``, ``--unit``, ``--unit-sample``, ``--walks``,
``--references`` and ``--permutations``.  Every payload a command emits
is a pure function of (config file, master seed): no timestamps,
sorted JSON keys, repr'd floats.  Exit codes: 0 success, 1 bad
configuration, 2 failure while running.  Failures print a single JSON
object to stderr so callers never have to scrape tracebacks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .artifacts import write_csv, write_json
from .bench import (
    MIN_NETWORKS_FOR_TABLE,
    TRAJECTORY_VERSION,
    BenchConfig,
    TaskSpec,
    characterize_population,
    characterize_unit,
    collect_reports,
    correlation_stage,
    generate_task_stimuli,
    read_study_config,
    run_study,
    sample_references,
    study_pair_split,
)
from .errors import check_fields, from_mapping
from .measures import (
    MeasureReport,
    build_fd_diagram,
    check_ssim_side,
    encoding_specificity,
    report_to_json,
    subspace_alignment,
    subspace_capacity,
    write_fd_csv,
)
from .search import (
    SearchConfig,
    encode_plans,
    optimal_stimulus,
    random_walk_curve,
    run_plans,
    subspace_plan,
)
from .seeds import derive_int, derive_rng
from .solver import default_population_size
from .stimulus import Stimulus, StimulusSet, project_sphere, write_stimulus_csv
from .stimulus import write_stimulus_pgm
from .targets import (
    HyperRanges,
    TargetHandle,
    default_l1_spec,
    default_l2_spec,
    draw_kernels,
    linear_neuron,
    quadratic_neuron,
    read_network_weights,
    sample_network_population,
    spec_from_json,
    spec_to_json,
    sthor_network,
    unit_view,
    write_network_weights,
)

__all__ = ["main"]

# the default cascade of each depth, for gen-net --levels and a study's levels
_DEFAULT_SPECS = {1: default_l1_spec, 2: default_l2_spec}


# ---------------------------------------------------------------------------
# config loading


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def _require_path(token: str, what: str) -> Path:
    path = Path(token)
    if not path.exists():
        raise ValueError(f"{what} {path} does not exist")
    return path


def _search_from(blob) -> SearchConfig:
    """Decode a solver config; it names no seed, as every search seed
    derives from the master seed."""
    if isinstance(blob, dict) and "seed" in blob:
        raise ValueError("solver config: search seeds derive from the master seed; remove seed")
    return from_mapping(SearchConfig, blob, "solver config")


def _master_seed(args, default: int = 0) -> int:
    return default if args.seed is None else args.seed


def _builtin_target(name: str, side: int, seed: int) -> TargetHandle:
    if side < 2:
        raise ValueError(f"--shape is {side}; a built-in target needs a side of at least 2")
    n = side * side
    rng = derive_rng(seed, "builtin", name)
    if name == "linear":
        return linear_neuron(project_sphere(rng.standard_normal(n), 1.0, (side, side)))
    a = rng.standard_normal((n, n))
    return quadratic_neuron((a + a.T) / 2.0, np.zeros(n), 0.0, (side, side))


def _load_target(token: str, side: int, seed: int) -> TargetHandle:
    """Resolve a target token: builtin name, manifest file, or its directory."""
    if token in ("linear", "quadratic"):
        return _builtin_target(token, side, seed)
    path = _require_path(token, "target")
    if path.is_dir():
        path = path / "manifest.json"
        if not path.exists():
            raise ValueError(f"{path.parent} has no manifest.json")
    blob = _load_json(path)
    if not isinstance(blob, dict) or "spec" not in blob or "weights" not in blob:
        raise ValueError(f"{path}: expected a manifest with 'spec' and 'weights'")
    spec = spec_from_json(blob["spec"])
    kernels = read_network_weights(path.parent / blob["weights"])
    return sthor_network(spec, kernels=kernels)


def _task_spec(blob, input_shape: tuple[int, int], what: str) -> TaskSpec:
    """Decode a task spec for a network of ``input_shape``; a missing
    ``height`` or ``width`` takes that shape's."""
    if isinstance(blob, dict):
        blob = {"height": input_shape[0], "width": input_shape[1], **blob}
    spec = from_mapping(TaskSpec, blob, "task spec")
    if (spec.height, spec.width) != input_shape:
        raise ValueError(f"task shape {(spec.height, spec.width)} != {what} input {input_shape}")
    return spec


def _task_from(args, input_shape: tuple[int, int]) -> tuple[StimulusSet | None, dict | None]:
    """The ``--task`` stimuli and the spec blob as written, or (None, None)."""
    token = getattr(args, "task", None)
    if not token:
        return None, None
    blob = _load_json(_require_path(token, "task spec"))
    return generate_task_stimuli(_task_spec(blob, input_shape, "target")), blob


# ---------------------------------------------------------------------------
# emission


def _write_matrix_csv(path: Path, stimuli) -> None:
    """Many stimuli in one file: a shape line, then one row per stimulus."""
    first = stimuli[0]
    rows = [("height", "width", "count"), (first.height, first.width, len(stimuli))]
    write_csv(path, rows + [stimulus.values for stimulus in stimuli])


def _write_stimulus(stimulus: Stimulus, stem: Path) -> None:
    """One stimulus as ``<stem>.csv`` and as the ``<stem>.pgm`` image."""
    write_stimulus_csv(stimulus, stem.with_suffix(".csv"))
    write_stimulus_pgm(stimulus, stem.with_suffix(".pgm"))


def _write_optimal(out: Path, optimal) -> None:
    _write_stimulus(optimal.x_hat, out / "x_hat")
    write_json(out / "optimal.json", {"fitness": optimal.fitness,
                                      "run_records": list(optimal.run_records)})


def _print_report(report: MeasureReport) -> None:
    for name, value in report.as_dict().items():
        if value is not None:
            print(f"{name}: {value!r}")


# ---------------------------------------------------------------------------
# subcommands
#
# Each subparser binds a resolver with ``set_defaults(resolve=...)``.  The
# resolver checks every input and returns the job: a partial of one of
# the functions below, with explicit arguments.  Resolution ends before
# any output directory is touched, so a malformed config can never leave
# partial artifacts behind.  The master seed is always explicit; nothing
# in the pipeline falls back to wall-clock seeding.


def _resolve_gen_net(args):
    seed = _master_seed(args)
    if args.spec:
        spec = spec_from_json(_load_json(_require_path(args.spec, "network spec")))
        if args.seed is not None:
            spec = replace(spec, weight_seed=seed)
    else:
        spec = _DEFAULT_SPECS[args.levels](weight_seed=seed)
    return partial(_gen_net, spec, Path(args.out))


def _gen_net(spec, out: Path) -> None:
    write_network_weights(draw_kernels(spec), out / "weights.bin")
    side = spec.input_shape[0]
    write_json(
        out / "manifest.json",
        {
            "input_shape": list(spec.input_shape),
            "response_dim": spec.levels[-1].n_filters,
            "weights": "weights.bin",
            "spec": spec_to_json(spec),
        },
    )
    print(f"input_shape: {side}x{side}")
    print(f"response_dim: {spec.levels[-1].n_filters}")
    print(f"manifest: {out / 'manifest.json'}")


@dataclass(frozen=True)
class _TargetRun:
    """The resolved inputs that the five target commands share."""

    out: Path
    seed: int
    search: SearchConfig
    target: TargetHandle  # already the unit view under --unit
    task: StimulusSet | None
    run_json: dict


def _check_budgets(search: SearchConfig, n: int, kinds: tuple[str, ...]) -> None:
    """Each ``<kind>_budget_per_dim`` must buy one generation at ``n`` inputs:
    the start point, then lambda draws."""
    needed = default_population_size(n) + 1
    for kind in kinds:
        name = f"{kind}_budget_per_dim"
        if getattr(search, name) * n < needed:
            raise ValueError(
                f"{name} is {getattr(search, name)}; at {n} inputs one generation "
                f"takes {needed} evaluations with the start point"
            )


def _resolve_target(args, scalar: bool, budgets: tuple[str, ...]) -> _TargetRun:
    """Load target, task and search; a ``scalar`` command needs one output,
    and each budget kind the command runs must buy one generation."""
    seed = _master_seed(args)
    blob = _load_json(_require_path(args.config, "solver config")) if args.config else {}
    search = replace(_search_from(blob), seed=seed)
    target = _load_target(args.target, args.shape, seed)
    _check_budgets(search, target.size, budgets)
    task, task_blob = _task_from(args, target.input_shape)
    unit = getattr(args, "unit", None)
    if unit is not None:
        target = unit_view(target, unit)
    elif scalar and target.response_dim != 1:
        raise ValueError(f"target has {target.response_dim} outputs; pick one with --unit")
    run_json = {
        "subcommand": args.subcommand,
        "seed": seed,
        "search": asdict(search),
        "target": args.target,
        "unit": unit,
        "task": task_blob,
    }
    return _TargetRun(Path(args.out), seed, search, target, task, run_json)


def _walk_count(args) -> int:
    if args.walks < 0:
        raise ValueError(f"--walks is {args.walks}; it must be at least 0")
    return args.walks


def _references(run: _TargetRun, count: int) -> StimulusSet:
    return sample_references(run.task, count, seed=derive_int(run.seed, "references"))


def _emit_paths(run: _TargetRun, optimal, paths, n_walks: int) -> None:
    walks = None
    if n_walks:
        rng = derive_rng(run.seed, "cli", "walks")
        walks = random_walk_curve(run.target, optimal.x_hat, run.search.deltas, n_walks, rng)
    _write_optimal(run.out, optimal)
    write_fd_csv(build_fd_diagram(paths, walks), run.out / "fd.csv")
    for path in paths:
        _write_matrix_csv(run.out / f"path_{path.kind}.csv", path.points)


def _emit_subspace(run: _TargetRun, samples: dict) -> None:
    blob = {"delta": run.search.subspace_delta}
    for kind, sample in samples.items():
        _write_matrix_csv(run.out / f"subspace_{kind}.csv", sample.columns)
        blob[f"{kind}_fitnesses"] = list(sample.fitnesses)
    blob["capacity"] = subspace_capacity(samples["invariance"])
    if run.task is not None:
        for kind, sample in samples.items():
            raw, normalized = subspace_alignment(sample, run.task)
            blob[f"{kind}_alignment"] = {"raw": raw, "normalized": normalized}
    write_json(run.out / "subspace.json", blob)


# the budget kinds of a unit protocol: the optimum, then the cone searches
_UNIT_BUDGETS = ("optimal", "path")


def _resolve_characterize(args):
    return partial(_characterize, _resolve_target(args, True, _UNIT_BUDGETS), _walk_count(args))


def _characterize(run: _TargetRun, walks: int) -> None:
    report, artifacts = characterize_unit(
        run.target, run.search, task=run.task, with_subspace=True
    )
    optimal = artifacts["optimal"]
    _emit_paths(run, optimal, artifacts["paths"], walks)
    _emit_subspace(run, artifacts["subspace"])
    write_json(run.out / "report.json", report_to_json(report))
    write_json(run.out / "run.json", run.run_json)
    print(f"optimum_fitness: {optimal.fitness!r}")
    _print_report(report)


def _resolve_paths(args):
    return partial(_paths, _resolve_target(args, True, _UNIT_BUDGETS), _walk_count(args))


def _paths(run: _TargetRun, walks: int) -> None:
    _, artifacts = characterize_unit(run.target, run.search)
    optimal = artifacts["optimal"]
    _emit_paths(run, optimal, artifacts["paths"], walks)
    write_json(run.out / "run.json", run.run_json)
    print(f"optimum_fitness: {optimal.fitness!r}")
    print(f"fd: {run.out / 'fd.csv'}")


def _resolve_subspace(args):
    return partial(_subspace, _resolve_target(args, True, _UNIT_BUDGETS))


def _subspace(run: _TargetRun) -> None:
    optimal = optimal_stimulus(run.target, run.search)
    kinds = ("invariance", "selectivity")
    plans = [subspace_plan(run.target, optimal.x_hat, run.search, kind) for kind in kinds]
    samples = dict(zip(kinds, run_plans(plans)))
    _write_optimal(run.out, optimal)
    _emit_subspace(run, samples)
    write_json(run.out / "run.json", run.run_json)
    print(f"optimum_fitness: {optimal.fitness!r}")
    print(f"capacity: {subspace_capacity(samples['invariance'])!r}")


def _resolve_encode(args):
    run = _resolve_target(args, False, ("reconstruct",))
    check_ssim_side(run.target.input_shape)
    return partial(_encode, run, _references(run, args.references))


def _encode(run: _TargetRun, references: StimulusSet) -> None:
    recon_sets = run_plans(encode_plans(run.target, references, run.search))
    per_reference = []
    for i, (reference, recons) in enumerate(zip(references, recon_sets)):
        specificity = encoding_specificity(recons)
        best = int(np.argmax(recons.fitnesses))
        _write_stimulus(reference, run.out / f"reference_{i:02d}")
        _write_stimulus(recons.reconstructions[best], run.out / f"reconstruction_{i:02d}")
        per_reference.append(
            {"reference": i, "specificity": specificity, "best_fitness": recons.fitnesses[best]}
        )
    tses = float(np.mean([row["specificity"] for row in per_reference]))
    write_json(run.out / "encode.json", {"per_reference": per_reference, "tses": tses})
    write_json(run.out / "run.json", run.run_json)
    print(f"references: {len(references)}")
    print(f"tses: {tses!r}")


def _resolve_measure(args):
    run = _resolve_target(args, False, _UNIT_BUDGETS)
    if args.unit_sample < 1:
        raise ValueError(f"--unit-sample is {args.unit_sample}; it must be at least 1")
    references = None
    if run.target.response_dim != 1:
        if run.task is None:
            raise ValueError("population-level measure needs --task")
        _check_budgets(run.search, run.target.size, ("reconstruct",))
        check_ssim_side(run.target.input_shape)
        references = _references(run, args.references)
    return partial(_measure, run, references, args.unit_sample)


def _measure(run: _TargetRun, references: StimulusSet | None, unit_sample: int) -> None:
    """Full MeasureReport for one target: unit or population protocol."""
    if run.target.response_dim == 1:
        report, artifacts = characterize_unit(
            run.target, run.search, task=run.task, with_subspace=True
        )
        x_hat = artifacts["optimal"].x_hat
    else:
        report, artifacts = characterize_population(
            run.target, run.task, references, run.search, unit_sample=unit_sample
        )
        x_hat = artifacts["x_hat"]
    _write_stimulus(x_hat, run.out / "x_hat")
    write_json(run.out / "report.json", report_to_json(report))
    write_json(run.out / "run.json", run.run_json)
    _print_report(report)


@dataclass(frozen=True)
class _Study:
    """A study config file; nested objects stay JSON until resolved."""

    seed: int = 0
    levels: int = 1
    n_networks: int = 20
    ranges: dict = field(default_factory=dict)
    task: dict = field(default_factory=dict)
    n_references: int = 12
    n_pairs: int = 200
    unit_sample: int = 2
    search: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self, dict(seed=None, levels=1, n_networks=1, n_references=1))
        if self.levels not in _DEFAULT_SPECS:
            raise ValueError(f"levels is {self.levels}; it must be one of {list(_DEFAULT_SPECS)}")


def _resolve_bench(args):
    blob = _load_json(_require_path(args.config, "study config"))
    study = from_mapping(_Study, blob, "study config")
    seed = _master_seed(args, study.seed)
    search = _search_from(study.search)
    store = Path(args.out)
    if store.exists() and any(store.iterdir()) and not args.resume:
        raise ValueError(f"store {store} is not empty; pass --resume to continue")
    config = BenchConfig(
        store_dir=str(store),
        seed=seed,
        search=search,
        n_pairs=study.n_pairs,
        unit_sample=study.unit_sample,
        workers=args.workers,
    )

    base_spec = _DEFAULT_SPECS[study.levels]()
    ranges = from_mapping(HyperRanges, study.ranges, "hyperparameter ranges")

    if not isinstance(study.task, dict):
        raise ValueError(f"task spec must be a JSON object, got {type(study.task).__name__}")
    task_blob = {"seed": derive_int(seed, "task"), **study.task}
    task = generate_task_stimuli(_task_spec(task_blob, base_spec.input_shape, "network"))
    study_pair_split(task, config)

    population, manifest = sample_network_population(
        base_spec, study.n_networks, ranges, seed=derive_int(seed, "networks")
    )
    references = sample_references(task, study.n_references, seed=derive_int(seed, "references"))
    run_json = {
        "subcommand": args.subcommand,
        "seed": seed,
        "search": asdict(search),
        "target": None,
        "unit": None,
        "task": task_blob,
        "study": blob,
        "networks": manifest,
        "trajectory_version": TRAJECTORY_VERSION,
    }
    return partial(_bench, population, task, references, config, run_json)


def _bench(population, task, references, config: BenchConfig, run_json: dict) -> None:
    result = run_study(population, task, references, config)
    write_json(Path(config.store_dir) / "run.json", run_json)
    print(f"networks: {len(result.reports)}")
    print(f"store: {config.store_dir}")
    if result.all_r2 is None:
        print(f"correlation: skipped (needs {MIN_NETWORKS_FOR_TABLE} networks)")
    else:
        print(f"all_r2: {result.all_r2!r}")


def _resolve_report(args):
    store = Path(args.store)
    read_study_config(store)
    if args.permutations < 1:
        raise ValueError(f"--permutations is {args.permutations}; it must be at least 1")
    out = Path(args.out) if args.out else store
    return partial(_report, store, out, _master_seed(args), args.permutations)


def _report(store: Path, out: Path, seed: int, permutations: int) -> None:
    performances, reports = collect_reports(store)
    _, all_r2 = correlation_stage(out, reports, performances, seed, n_perm=permutations)
    if all_r2 is None:
        print(
            f"correlation: skipped ({len(reports)} networks, "
            f"needs {MIN_NETWORKS_FOR_TABLE})"
        )
    else:
        print(f"all_r2: {all_r2!r}")


# ---------------------------------------------------------------------------
# parser and entry point


def _add_target_flags(sub, resolve, with_unit=True):
    sub.set_defaults(resolve=resolve)
    sub.add_argument("--target", required=True,
                     help="builtin name (linear, quadratic) or manifest path")
    sub.add_argument("--shape", type=int, default=11,
                     help="side length for builtin targets")
    if with_unit:
        sub.add_argument("--unit", type=int, default=None,
                         help="output unit index for multi-output targets")
    sub.add_argument("--config", default=None, help="solver config JSON")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunescope",
        description="tuning-landscape characterization pipeline",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    gen = subparsers.add_parser("gen-net", help="build a random cascade")
    gen.set_defaults(resolve=_resolve_gen_net)
    gen.add_argument("--levels", type=int, choices=tuple(_DEFAULT_SPECS), default=1)
    gen.add_argument("--spec", default=None, help="network spec JSON")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    char = subparsers.add_parser("characterize",
                                 help="full single-unit report bundle")
    _add_target_flags(char, _resolve_characterize)
    char.add_argument("--task", default=None, help="task spec JSON")
    char.add_argument("--walks", type=int, default=20,
                      help="random-walk curves in the distance diagram")

    paths = subparsers.add_parser("paths", help="optimum and both cone paths")
    _add_target_flags(paths, _resolve_paths)
    paths.add_argument("--walks", type=int, default=20)

    sub = subparsers.add_parser("subspace", help="cone solution subspaces")
    _add_target_flags(sub, _resolve_subspace)
    sub.add_argument("--task", default=None, help="task spec JSON")

    enc = subparsers.add_parser("encode",
                                help="reconstruct task references from responses")
    _add_target_flags(enc, _resolve_encode, with_unit=False)
    enc.add_argument("--task", required=True, help="task spec JSON")
    enc.add_argument("--references", type=int, default=12)

    mea = subparsers.add_parser("measure", help="one target, all measures")
    _add_target_flags(mea, _resolve_measure)
    mea.add_argument("--task", default=None, help="task spec JSON")
    mea.add_argument("--references", type=int, default=12)
    mea.add_argument("--unit-sample", dest="unit_sample", type=int, default=2)

    ben = subparsers.add_parser("bench", help="population study into a store")
    ben.set_defaults(resolve=_resolve_bench)
    ben.add_argument("--config", required=True, help="study config JSON")
    ben.add_argument("--out", required=True, help="artifact store directory")
    ben.add_argument("--seed", type=int, default=None)
    ben.add_argument("--resume", action="store_true",
                     help="continue into a non-empty store")
    ben.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                     help="worker processes, at most one per pending network")

    rep = subparsers.add_parser("report", help="correlation table from a store")
    rep.set_defaults(resolve=_resolve_report)
    rep.add_argument("--store", required=True)
    rep.add_argument("--out", default=None, help="defaults to the store")
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--permutations", type=int, default=10_000)

    return parser


def _emit_error(exc: BaseException) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on its own for usage errors and --help
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        job = args.resolve(args)
    except Exception as exc:
        _emit_error(exc)
        return 1
    try:
        job()
    except Exception as exc:
        _emit_error(exc)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
