"""Command-line driver: build targets, characterize them, run studies.

Anything nested (solver budgets, task families, study layouts) lives in
JSON config files with a documented key schema.  Flags cover paths,
seeds, the resume switch, the work pool and six scalar settings:
``--shape``, ``--levels``, ``--unit``, ``--unit-sample``, ``--walks``
and ``--references``.  Every payload a command emits is a pure
function of (config file, master seed): no timestamps, sorted JSON
keys, repr'd floats.  Exit codes: 0 success, 1 bad configuration, 2
failure while running.  Failures print a single JSON object to stderr
so callers never have to scrape tracebacks.
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
from .measures import MeasureReport, build_fd_diagram, check_ssim_side, report_to_json
from .measures import write_fd_csv
from .search import SearchConfig, random_walk_curve
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
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc


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


_BUILTIN_TARGETS = ("linear", "quadratic")


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
    """Resolve a target token: builtin name, manifest file, or its directory.
    A manifest's ``input_shape`` and ``response_dim`` must be those of the
    network its spec and weights build."""
    if token in _BUILTIN_TARGETS:
        return _builtin_target(token, side, seed)
    path = _require_path(token, "target")
    if path.is_dir():
        path = path / "manifest.json"
        if not path.exists():
            raise ValueError(f"{path.parent} has no manifest.json")
    blob = _load_json(path)
    if not isinstance(blob, dict) or "spec" not in blob or "weights" not in blob:
        raise ValueError(f"{path}: expected a manifest with 'spec' and 'weights'")
    if not isinstance(blob["weights"], str):
        raise ValueError(f"{path}: 'weights' must name a file, got {blob['weights']!r}")
    spec = spec_from_json(blob["spec"])
    kernels = read_network_weights(path.parent / blob["weights"])
    target = sthor_network(spec, kernels=kernels)
    built = {"input_shape": list(target.input_shape), "response_dim": target.response_dim}
    for key, value in built.items():
        if blob.get(key) != value:
            raise ValueError(f"{path}: {key} is {blob.get(key)!r}; its spec builds {value!r}")
    return target


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
    """The resolved inputs that the two target commands share."""

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


def _resolve_target(args, budgets: tuple[str, ...], flags: tuple[str, ...]) -> _TargetRun:
    """Load target, task and search; each budget kind the command runs
    must buy one generation.  ``run.json`` records every input that
    changes the bundle: the shared ones and the command's own ``flags``."""
    seed = _master_seed(args)
    blob = _load_json(_require_path(args.config, "solver config")) if args.config else {}
    search = replace(_search_from(blob), seed=seed)
    target = _load_target(args.target, args.shape, seed)
    _check_budgets(search, target.size, budgets)
    task, task_blob = _task_from(args, target.input_shape)
    unit = getattr(args, "unit", None)
    if unit is not None:
        target = unit_view(target, unit)
    run_json = {
        "subcommand": args.subcommand,
        "seed": seed,
        "search": asdict(search),
        "target": args.target,
        "shape": args.shape if args.target in _BUILTIN_TARGETS else None,
        "unit": unit,
        "task": task_blob,
        **{flag: getattr(args, flag) for flag in flags},
    }
    return _TargetRun(Path(args.out), seed, search, target, task, run_json)


# the budget kinds of a unit protocol: the optimum, then the cone searches
_UNIT_BUDGETS = ("optimal", "path")


def _resolve_characterize(args):
    run = _resolve_target(args, _UNIT_BUDGETS, ("walks",))
    if run.target.response_dim != 1:
        raise ValueError(f"target has {run.target.response_dim} outputs; pick one with --unit")
    if args.walks < 0:
        raise ValueError(f"--walks is {args.walks}; it must be at least 0")
    return partial(_characterize, run, args.walks)


def _characterize(run: _TargetRun, n_walks: int) -> None:
    """The unit protocol: the optimum, both cone paths and both subspaces."""
    report, artifacts = characterize_unit(
        run.target, run.search, task=run.task, with_subspace=True
    )
    optimal, paths, samples = artifacts["optimal"], artifacts["paths"], artifacts["subspace"]
    walks = None
    if n_walks:
        rng = derive_rng(run.seed, "cli", "walks")
        walks = random_walk_curve(run.target, optimal.x_hat, run.search.deltas, n_walks, rng)
    _write_stimulus(optimal.x_hat, run.out / "x_hat")
    write_json(run.out / "optimal.json", {"fitness": optimal.fitness,
                                          "run_records": list(optimal.run_records)})
    write_fd_csv(build_fd_diagram(paths, walks), run.out / "fd.csv")
    for path in paths:
        _write_matrix_csv(run.out / f"path_{path.kind}.csv", path.points)
    blob = {"delta": samples["invariance"].delta, **artifacts["subspace_measures"]}
    for kind, sample in samples.items():
        _write_matrix_csv(run.out / f"subspace_{kind}.csv", sample.columns)
        blob[f"{kind}_fitnesses"] = list(sample.fitnesses)
    write_json(run.out / "subspace.json", blob)
    write_json(run.out / "report.json", report_to_json(report))
    write_json(run.out / "run.json", run.run_json)
    print(f"optimum_fitness: {optimal.fitness!r}")
    _print_report(report)


def _resolve_measure(args):
    run = _resolve_target(args, (*_UNIT_BUDGETS, "reconstruct"), ("references", "unit_sample"))
    if run.target.response_dim == 1:
        raise ValueError(
            "target has 1 output; measure runs the population protocol, "
            "and characterize measures one unit"
        )
    if args.unit_sample < 1:
        raise ValueError(f"--unit-sample is {args.unit_sample}; it must be at least 1")
    check_ssim_side(run.target.input_shape)
    references = sample_references(run.task, args.references,
                                   seed=derive_int(run.seed, "references"))
    return partial(_measure, run, references, args.unit_sample)


def _measure(run: _TargetRun, references: StimulusSet, unit_sample: int) -> None:
    """Full MeasureReport for one network under the population protocol,
    with each reference beside its best reconstruction."""
    report, artifacts = characterize_population(
        run.target, run.task, references, run.search, unit_sample=unit_sample
    )
    per_reference = []
    scored = zip(references, artifacts["reconstructions"], artifacts["specificities"])
    for i, (reference, recons, specificity) in enumerate(scored):
        best = int(np.argmax(recons.fitnesses))
        _write_stimulus(reference, run.out / f"reference_{i:02d}")
        _write_stimulus(recons.reconstructions[best], run.out / f"reconstruction_{i:02d}")
        per_reference.append(
            {"reference": i, "specificity": specificity, "best_fitness": recons.fitnesses[best]}
        )
    write_json(run.out / "encode.json", {"per_reference": per_reference, "tses": report.tses})
    _write_stimulus(artifacts["x_hat"], run.out / "x_hat")
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
    # the study's own seed, so the stage redraws the permutations bench drew
    seed = read_study_config(store)["seed"]
    out = Path(args.out) if args.out else store
    return partial(_report, store, out, seed)


def _report(store: Path, out: Path, seed: int) -> None:
    performances, reports = collect_reports(store)
    _, all_r2 = correlation_stage(out, reports, performances, seed)
    if all_r2 is None:
        print(
            f"correlation: skipped ({len(reports)} networks, "
            f"needs {MIN_NETWORKS_FOR_TABLE})"
        )
    else:
        print(f"all_r2: {all_r2!r}")


# ---------------------------------------------------------------------------
# parser and entry point


def _add_target_flags(sub, resolve, task_required):
    sub.set_defaults(resolve=resolve)
    sub.add_argument("--target", required=True,
                     help="builtin name (linear, quadratic) or manifest path")
    sub.add_argument("--shape", type=int, default=11,
                     help="side length for builtin targets")
    sub.add_argument("--task", required=task_required, default=None, help="task spec JSON")
    sub.add_argument("--config", default=None, help="solver config JSON")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", required=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunescope",
        description="tuning-landscape characterization pipeline",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    # no prefix matching: a removed flag must not run as a longer one
    # (``--unit`` as ``--unit-sample``)
    add_parser = partial(subparsers.add_parser, allow_abbrev=False)

    gen = add_parser("gen-net", help="build a random cascade")
    gen.set_defaults(resolve=_resolve_gen_net)
    gen.add_argument("--levels", type=int, choices=tuple(_DEFAULT_SPECS), default=1)
    gen.add_argument("--spec", default=None, help="network spec JSON")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    char = add_parser("characterize",
                      help="unit protocol: optimum, cone paths, subspaces, measures")
    _add_target_flags(char, _resolve_characterize, task_required=False)
    char.add_argument("--unit", type=int, default=None,
                      help="output unit index for multi-output targets")
    char.add_argument("--walks", type=int, default=20,
                      help="random-walk curves in the distance diagram")

    mea = add_parser("measure",
                     help="population protocol: one network, all measures, reconstructions")
    _add_target_flags(mea, _resolve_measure, task_required=True)
    mea.add_argument("--references", type=int, default=12)
    mea.add_argument("--unit-sample", dest="unit_sample", type=int, default=2)

    ben = add_parser("bench", help="population study into a store")
    ben.set_defaults(resolve=_resolve_bench)
    ben.add_argument("--config", required=True, help="study config JSON")
    ben.add_argument("--out", required=True, help="artifact store directory")
    ben.add_argument("--seed", type=int, default=None)
    ben.add_argument("--resume", action="store_true",
                     help="continue into a non-empty store")
    ben.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                     help="worker processes, at most one per pending network")

    rep = add_parser("report", help="correlation table from a store")
    rep.set_defaults(resolve=_resolve_report)
    rep.add_argument("--store", required=True)
    rep.add_argument("--out", default=None, help="defaults to the store")

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
