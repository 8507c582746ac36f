"""Command-line driver: build targets, characterize them, run studies.

Anything nested (solver budgets, task families, study layouts) lives in
JSON config files with a documented key schema; flags cover only paths,
seeds, the resume switch and the work pool.  Every payload a command
emits is a pure function of (config file, master seed): no timestamps,
sorted JSON keys, repr'd floats.  Exit codes: 0 success, 1 bad
configuration, 2 failure while running.  Failures print a single JSON
object to stderr so callers never have to scrape tracebacks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from .bench import (
    MIN_NETWORKS_FOR_TABLE,
    BenchConfig,
    TaskSpec,
    _write_json,
    characterize_population,
    characterize_unit,
    collect_reports,
    correlation_stage,
    generate_task_stimuli,
    run_study,
    sample_references,
)
from .measures import (
    MeasureReport,
    build_fd_diagram,
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
from .stimulus import Stimulus, StimulusSet, write_stimulus_csv, write_stimulus_pgm
from .targets import (
    HyperRanges,
    TargetHandle,
    default_l1_spec,
    default_l2_spec,
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

__all__ = [
    "RunConfig",
    "main",
    "cmd_gen_net",
    "cmd_characterize",
    "cmd_paths",
    "cmd_subspace",
    "cmd_encode",
    "cmd_measure",
    "cmd_bench",
    "cmd_report",
]

@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation.

    Built entirely before any output directory is touched, so a
    malformed config can never leave partial artifacts behind.  The
    master seed is always explicit; nothing in the pipeline falls back
    to wall-clock seeding.
    """

    subcommand: str
    out: Path
    seed: int
    search: SearchConfig
    target: TargetHandle | None = None
    target_token: str | None = None
    unit: int | None = None
    task: StimulusSet | None = None
    task_blob: dict | None = None
    options: dict = field(default_factory=dict)


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


def _from_mapping(cls, blob, what: str):
    """Build a config dataclass from a JSON object, rejecting unknown keys."""
    if not isinstance(blob, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(blob).__name__}")
    allowed = {f.name for f in dataclass_fields(cls)}
    unknown = sorted(set(blob) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    coerced = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in blob.items()
    }
    return cls(**coerced)


def _search_from(args, master_seed: int) -> SearchConfig:
    blob = {}
    if getattr(args, "config", None):
        blob = _load_json(_require_path(args.config, "solver config"))
    config = _from_mapping(SearchConfig, blob, "solver config")
    return config.scaled(seed=master_seed)


def _master_seed(args, blob: dict | None = None) -> int:
    if args.seed is not None:
        return args.seed
    if blob and "seed" in blob:
        return int(blob["seed"])
    return 0


def _builtin_target(name: str, side: int, seed: int) -> TargetHandle:
    n = side * side
    rng = derive_rng(seed, "builtin", name)
    if name == "linear":
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return linear_neuron(Stimulus.from_values(v, side, side))
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


def _task_from(args) -> tuple[StimulusSet | None, dict | None]:
    token = getattr(args, "task", None)
    if not token:
        return None, None
    blob = _load_json(_require_path(token, "task spec"))
    spec = _from_mapping(TaskSpec, blob, "task spec")
    return generate_task_stimuli(spec), blob


def _check_task_shape(target: TargetHandle, task: StimulusSet | None) -> None:
    if task is not None and task.shape != target.input_shape:
        raise ValueError(
            f"task shape {task.shape} != target input {target.input_shape}"
        )


# ---------------------------------------------------------------------------
# emission


def _write_matrix_csv(path: Path, stimuli) -> None:
    """Many stimuli in one file: a shape line, then one row per stimulus."""
    first = stimuli[0]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("height,width,count\n")
        fh.write(f"{first.height},{first.width},{len(stimuli)}\n")
        for stimulus in stimuli:
            fh.write(",".join(f"{float(v)!r}" for v in stimulus.values) + "\n")


def _write_run_json(run: RunConfig, extra: dict | None = None) -> None:
    blob = {
        "subcommand": run.subcommand,
        "seed": run.seed,
        "search": asdict(run.search),
        "target": run.target_token,
        "unit": run.unit,
        "task": run.task_blob,
    }
    if extra:
        blob.update(extra)
    _write_json(run.out / "run.json", blob)


def _write_optimal(out: Path, optimal) -> None:
    write_stimulus_csv(optimal.x_hat, out / "x_hat.csv")
    write_stimulus_pgm(optimal.x_hat, out / "x_hat.pgm")
    _write_json(
        out / "optimal.json",
        {
            "fitness": optimal.fitness,
            "init_source": optimal.init_source,
            "run_records": list(optimal.run_records),
        },
    )


def _print_report(report: MeasureReport) -> None:
    for name, value in report.as_dict().items():
        if value is not None:
            print(f"{name}: {value!r}")


# ---------------------------------------------------------------------------
# subcommand resolution


def _resolve_gen_net(args) -> RunConfig:
    seed = _master_seed(args)
    if args.spec:
        spec = spec_from_json(_load_json(_require_path(args.spec, "network spec")))
        if args.seed is not None:
            spec = replace(spec, weight_seed=seed)
    else:
        build = default_l1_spec if args.levels == 1 else default_l2_spec
        spec = build(weight_seed=seed)
    return RunConfig(
        subcommand="gen-net",
        out=Path(args.out),
        seed=seed,
        search=SearchConfig(seed=seed),
        options={"spec": spec},
    )


def _resolve_target_command(args, subcommand: str) -> RunConfig:
    seed = _master_seed(args)
    search = _search_from(args, seed)
    target = _load_target(args.target, args.shape, seed)
    task, task_blob = _task_from(args)
    _check_task_shape(target, task)
    unit = getattr(args, "unit", None)
    needs_scalar = subcommand in ("characterize", "paths", "subspace")
    if needs_scalar and unit is None and target.response_dim != 1:
        raise ValueError(
            f"target has {target.response_dim} outputs; pick one with --unit"
        )
    population_protocol = unit is None and target.response_dim != 1
    if subcommand == "measure" and population_protocol and task is None:
        raise ValueError("population-level measure needs --task")
    options = {}
    if hasattr(args, "walks"):
        options["walks"] = args.walks
    if subcommand == "measure":
        if args.unit_sample < 1:
            raise ValueError(f"--unit-sample is {args.unit_sample}; it must be at least 1")
        options["unit_sample"] = args.unit_sample
    if subcommand == "encode" or (subcommand == "measure" and population_protocol):
        options["references"] = sample_references(
            task, args.references, seed=derive_int(seed, "references")
        )
    return RunConfig(
        subcommand=subcommand,
        out=Path(args.out),
        seed=seed,
        search=search,
        target=target,
        target_token=args.target,
        unit=unit,
        task=task,
        task_blob=task_blob,
        options=options,
    )


def _resolve_bench(args) -> RunConfig:
    blob = _load_json(_require_path(args.config, "study config"))
    if not isinstance(blob, dict):
        raise ValueError("study config must be a JSON object")
    allowed = {
        "seed", "levels", "base_spec", "n_networks", "ranges", "task",
        "n_references", "n_pairs", "unit_sample", "search",
    }
    unknown = sorted(set(blob) - allowed)
    if unknown:
        raise ValueError(f"unknown study config keys: {', '.join(unknown)}")
    if "levels" in blob and "base_spec" in blob:
        raise ValueError("study config: give either levels or base_spec, not both")
    seed = _master_seed(args, blob)

    search_blob = dict(blob.get("search", {}))
    if "seed" in search_blob:
        raise ValueError(
            "study config: per-network solver seeds derive from the master "
            "seed; remove search.seed"
        )
    search = _from_mapping(SearchConfig, search_blob, "solver config")

    if "base_spec" in blob:
        base_spec = spec_from_json(blob["base_spec"])
    else:
        build = default_l1_spec if blob.get("levels", 1) == 1 else default_l2_spec
        base_spec = build()
    ranges = _from_mapping(HyperRanges, blob.get("ranges", {}), "hyperparameter ranges")

    task_blob = dict(blob.get("task", {}))
    task_blob.setdefault("seed", derive_int(seed, "task"))
    task_spec = _from_mapping(TaskSpec, task_blob, "task spec")
    if (task_spec.height, task_spec.width) != base_spec.input_shape:
        raise ValueError(
            f"task shape {(task_spec.height, task_spec.width)} != network "
            f"input {base_spec.input_shape}"
        )
    task = generate_task_stimuli(task_spec)

    n_networks = int(blob.get("n_networks", 20))
    population, manifest = sample_network_population(
        base_spec, n_networks, ranges, seed=derive_int(seed, "networks")
    )
    references = sample_references(
        task, int(blob.get("n_references", 12)), seed=derive_int(seed, "references")
    )

    store = Path(args.out)
    if store.exists() and any(store.iterdir()) and not args.resume:
        raise ValueError(f"store {store} is not empty; pass --resume to continue")
    bench_config = BenchConfig(
        seed=seed,
        search=search,
        n_pairs=int(blob.get("n_pairs", 200)),
        unit_sample=int(blob.get("unit_sample", 2)),
        store_dir=str(store),
        resume=args.resume,
        workers=args.workers,
    )
    return RunConfig(
        subcommand="bench",
        out=store,
        seed=seed,
        search=search,
        task=task,
        task_blob=task_blob,
        options={
            "population": population,
            "manifest": manifest,
            "references": references,
            "bench_config": bench_config,
            "study": blob,
        },
    )


def _resolve_report(args) -> RunConfig:
    store = _require_path(args.store, "store")
    if not store.is_dir():
        raise ValueError(f"store {store} is not a directory")
    out = Path(args.out) if args.out else store
    return RunConfig(
        subcommand="report",
        out=out,
        seed=_master_seed(args),
        search=SearchConfig(),
        options={"store": store, "permutations": args.permutations},
    )


# ---------------------------------------------------------------------------
# subcommand execution


def cmd_gen_net(run: RunConfig) -> None:
    spec = run.options["spec"]
    handle = sthor_network(spec)
    out = run.out
    out.mkdir(parents=True, exist_ok=True)
    write_network_weights(handle.meta["kernels"], out / "weights.bin")
    side = spec.input_shape[0]
    _write_json(
        out / "manifest.json",
        {
            "input_shape": list(spec.input_shape),
            "response_dim": handle.response_dim,
            "weights": "weights.bin",
            "spec": spec_to_json(spec),
        },
    )
    print(f"input_shape: {side}x{side}")
    print(f"response_dim: {handle.response_dim}")
    print(f"manifest: {out / 'manifest.json'}")


def _scalar_target(run: RunConfig) -> TargetHandle:
    if run.unit is not None:
        return unit_view(run.target, run.unit)
    return run.target


def _walks_for(run: RunConfig, target: TargetHandle, x_hat: Stimulus):
    n_walks = run.options.get("walks", 0)
    if n_walks < 1:
        return None
    rng = derive_rng(run.seed, "cli", "walks")
    return random_walk_curve(target, x_hat, run.search.deltas, n_walks, rng)


def _emit_paths(run: RunConfig, optimal, paths, walks) -> None:
    _write_optimal(run.out, optimal)
    diagram = build_fd_diagram(paths, walks=walks, optimum_fitness=optimal.fitness)
    write_fd_csv(diagram, run.out / "fd.csv")
    for path in paths:
        _write_matrix_csv(run.out / f"path_{path.kind}.csv", path.points)


def _emit_subspace(run: RunConfig, samples: dict) -> None:
    blob = {"delta": run.search.subspace_delta}
    for kind, sample in samples.items():
        _write_matrix_csv(run.out / f"subspace_{kind}.csv", sample.columns)
        blob[f"{kind}_fitnesses"] = list(sample.fitnesses)
    blob["capacity"] = subspace_capacity(samples["invariance"])
    if run.task is not None:
        for kind, sample in samples.items():
            raw, normalized = subspace_alignment(sample, run.task)
            blob[f"{kind}_alignment"] = {"raw": raw, "normalized": normalized}
    _write_json(run.out / "subspace.json", blob)


def cmd_characterize(run: RunConfig) -> None:
    target = _scalar_target(run)
    report, artifacts = characterize_unit(
        target, run.search, task=run.task, with_subspace=True
    )
    optimal = artifacts["optimal"]
    walks = _walks_for(run, target, optimal.x_hat)
    run.out.mkdir(parents=True, exist_ok=True)
    _emit_paths(run, optimal, artifacts["paths"], walks)
    _emit_subspace(run, artifacts["subspace"])
    _write_json(run.out / "report.json", report_to_json(report))
    _write_run_json(run)
    print(f"optimum_fitness: {optimal.fitness!r}")
    _print_report(report)


def cmd_paths(run: RunConfig) -> None:
    target = _scalar_target(run)
    _, artifacts = characterize_unit(target, run.search)
    optimal = artifacts["optimal"]
    walks = _walks_for(run, target, optimal.x_hat)
    run.out.mkdir(parents=True, exist_ok=True)
    _emit_paths(run, optimal, artifacts["paths"], walks)
    _write_run_json(run)
    print(f"optimum_fitness: {optimal.fitness!r}")
    print(f"fd: {run.out / 'fd.csv'}")


def cmd_subspace(run: RunConfig) -> None:
    target = _scalar_target(run)
    optimal = optimal_stimulus(target, run.search)
    kinds = ("invariance", "selectivity")
    plans = [subspace_plan(target, optimal.x_hat, run.search, kind) for kind in kinds]
    samples = dict(zip(kinds, run_plans(plans)))
    run.out.mkdir(parents=True, exist_ok=True)
    _write_optimal(run.out, optimal)
    _emit_subspace(run, samples)
    _write_run_json(run)
    print(f"optimum_fitness: {optimal.fitness!r}")
    print(f"capacity: {subspace_capacity(samples['invariance'])!r}")


def cmd_encode(run: RunConfig) -> None:
    references = run.options["references"]
    recon_sets = run_plans(encode_plans(run.target, references, run.search))
    run.out.mkdir(parents=True, exist_ok=True)
    per_reference = []
    scores = []
    for i, (reference, recons) in enumerate(zip(references, recon_sets)):
        specificity = encoding_specificity(recons)
        best = int(np.argmax(recons.fitnesses))
        write_stimulus_csv(reference, run.out / f"reference_{i:02d}.csv")
        write_stimulus_pgm(reference, run.out / f"reference_{i:02d}.pgm")
        write_stimulus_csv(
            recons.reconstructions[best], run.out / f"reconstruction_{i:02d}.csv"
        )
        write_stimulus_pgm(
            recons.reconstructions[best], run.out / f"reconstruction_{i:02d}.pgm"
        )
        per_reference.append(
            {
                "reference": i,
                "specificity": specificity,
                "best_fitness": recons.fitnesses[best],
            }
        )
        scores.append(specificity)
    tses = float(np.mean(scores))
    _write_json(run.out / "encode.json", {"per_reference": per_reference, "tses": tses})
    _write_run_json(run)
    print(f"references: {len(references)}")
    print(f"tses: {tses!r}")


def cmd_measure(run: RunConfig) -> None:
    """Full MeasureReport for one target: unit or population protocol."""
    if run.unit is not None or run.target.response_dim == 1:
        target = _scalar_target(run)
        report, artifacts = characterize_unit(
            target, run.search, task=run.task, with_subspace=True
        )
        x_hat = artifacts["optimal"].x_hat
    else:
        report, artifacts = characterize_population(
            run.target, run.task, run.options["references"], run.search,
            unit_sample=run.options["unit_sample"],
        )
        x_hat = artifacts["x_hat"]
    run.out.mkdir(parents=True, exist_ok=True)
    write_stimulus_csv(x_hat, run.out / "x_hat.csv")
    write_stimulus_pgm(x_hat, run.out / "x_hat.pgm")
    _write_json(run.out / "report.json", report_to_json(report))
    _write_run_json(run)
    _print_report(report)


def cmd_bench(run: RunConfig) -> None:
    opts = run.options
    result = run_study(opts["population"], run.task, opts["references"],
                       opts["bench_config"])
    _write_run_json(run, extra={"study": opts["study"], "networks": opts["manifest"]})
    print(f"networks: {len(result.reports)}")
    print(f"store: {run.out}")
    if result.all_r2 is None:
        print(f"correlation: skipped (needs {MIN_NETWORKS_FOR_TABLE} networks)")
    else:
        print(f"all_r2: {result.all_r2!r}")


def cmd_report(run: RunConfig) -> None:
    performances, reports = collect_reports(run.options["store"])
    run.out.mkdir(parents=True, exist_ok=True)
    _, all_r2 = correlation_stage(
        run.out, reports, performances, run.seed, n_perm=run.options["permutations"]
    )
    if all_r2 is None:
        print(
            f"correlation: skipped ({len(reports)} networks, "
            f"needs {MIN_NETWORKS_FOR_TABLE})"
        )
    else:
        print(f"all_r2: {all_r2!r}")


# ---------------------------------------------------------------------------
# parser and entry point

_RESOLVERS = {
    "gen-net": _resolve_gen_net,
    "bench": _resolve_bench,
    "report": _resolve_report,
}
_COMMANDS = {
    "gen-net": cmd_gen_net,
    "characterize": cmd_characterize,
    "paths": cmd_paths,
    "subspace": cmd_subspace,
    "encode": cmd_encode,
    "measure": cmd_measure,
    "bench": cmd_bench,
    "report": cmd_report,
}


def _add_target_flags(sub, with_unit=True):
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunescope",
        description="tuning-landscape characterization pipeline",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    gen = subparsers.add_parser("gen-net", help="build a random cascade")
    gen.add_argument("--levels", type=int, choices=(1, 2), default=1)
    gen.add_argument("--spec", default=None, help="network spec JSON")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    char = subparsers.add_parser("characterize",
                                 help="full single-unit report bundle")
    _add_target_flags(char)
    char.add_argument("--task", default=None, help="task spec JSON")
    char.add_argument("--walks", type=int, default=20,
                      help="random-walk curves in the distance diagram")

    paths = subparsers.add_parser("paths", help="optimum and both cone paths")
    _add_target_flags(paths)
    paths.add_argument("--walks", type=int, default=20)

    sub = subparsers.add_parser("subspace", help="cone solution subspaces")
    _add_target_flags(sub)
    sub.add_argument("--task", default=None, help="task spec JSON")

    enc = subparsers.add_parser("encode",
                                help="reconstruct task references from responses")
    _add_target_flags(enc, with_unit=False)
    enc.add_argument("--task", required=True, help="task spec JSON")
    enc.add_argument("--references", type=int, default=12)

    mea = subparsers.add_parser("measure", help="one target, all measures")
    _add_target_flags(mea)
    mea.add_argument("--task", default=None, help="task spec JSON")
    mea.add_argument("--references", type=int, default=12)
    mea.add_argument("--unit-sample", dest="unit_sample", type=int, default=2)

    ben = subparsers.add_parser("bench", help="population study into a store")
    ben.add_argument("--config", required=True, help="study config JSON")
    ben.add_argument("--out", required=True, help="artifact store directory")
    ben.add_argument("--seed", type=int, default=None)
    ben.add_argument("--resume", action="store_true",
                     help="continue into a non-empty store")
    ben.add_argument("--workers", type=int, default=os.cpu_count() or 1)

    rep = subparsers.add_parser("report", help="correlation table from a store")
    rep.add_argument("--store", required=True)
    rep.add_argument("--out", default=None, help="defaults to the store")
    rep.add_argument("--seed", type=int, default=None)
    rep.add_argument("--permutations", type=int, default=10_000)

    return parser


def _emit_error(exc: BaseException) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on its own for usage errors and --help
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    resolver = _RESOLVERS.get(args.subcommand)
    try:
        if resolver is not None:
            run = resolver(args)
        else:
            run = _resolve_target_command(args, args.subcommand)
    except Exception as exc:
        _emit_error(exc)
        return 1
    try:
        _COMMANDS[run.subcommand](run)
    except Exception as exc:
        _emit_error(exc)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
