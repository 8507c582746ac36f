"""tunescope benchmark: protocol workloads, end to end and per layer.

    python3 perfbench/run.py --workload unit_l2 --seed 1 --seconds 50 --trace 0

Run from the repository root.  The package is imported from ``src/``
of the same checkout; without it the command fails before printing a
result.

``--trace 0`` measures the end-to-end metrics with no tracer installed:
set-up time (median of fresh processes that import the package and
build the workload's inputs), median wall seconds per iteration,
evaluations per second, peak RSS, optimum fitness and the share of
operations that passed.  One traced warm-up iteration comes first; it
supplies the deterministic row count and is not timed.

``--trace 1`` measures the per-layer metrics: traced and untraced
iterations alternate, and the layer probes run at the end.

Every iteration's outputs are checked (sphere and cone constraints,
finite measures, budgets) and digested; the digest must be the same
for every iteration, traced or not.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record (environment, every sample, per-layer
summaries, digests) and the span table of the last traced iteration are
written under ``.perfbench-out/`` at the repository root.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# The workloads run one process with workers=1, so the BLAS gets one
# thread unless the caller sets the count; this also keeps the
# timings from depending on what shares the other cores.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
HARD_STOP_S = 120.0
PROBE_BATCHES = {"b1": 1, "b_lambda": None, "b64": 64, "b256": 256}
PROBE_GENERATIONS = 100


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count reported by a loaded OpenBLAS, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load_average_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "num_threads_env": {
            key: value for key, value in sorted(os.environ.items()) if key.endswith("_NUM_THREADS")
        },
    }


def _environment_problems(env: dict) -> list[str]:
    limit = env["nproc"]
    problems = []
    if env["blas_threads"] is not None and env["blas_threads"] > limit:
        problems.append(f"BLAS uses {env['blas_threads']} threads on {limit} processors")
    for key, value in env["num_threads_env"].items():
        if value.isdigit() and int(value) > limit:
            problems.append(f"{key}={value} exceeds {limit} processors")
    return problems


class Run:
    """State of one benchmark run: its workload and every iteration."""

    def __init__(self, workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.optimum: float | None = None
        self.summaries: list[dict] = []
        self.last_tracer = None
        self._count = 0

    def iterate(self, traced: bool):
        """One workload call; returns its wall seconds, or None on failure."""
        from tracing import DETERMINISTIC, ROOT as ROOT_SPAN, Tracer
        from workloads import Checker

        self._count += 1
        workdir = self.workdir / f"iteration-{self._count}"
        workdir.mkdir(parents=True)
        tracer = Tracer() if traced else None
        networks = self.workload.networks
        if tracer is not None:
            networks = [tracer.network(handle) for handle in networks]
        self.attempted += self.workload.operations
        check = Checker()
        try:
            with tracer.installed() if traced else nullcontext():
                with tracer.span(ROOT_SPAN) if traced else nullcontext():
                    start = time.perf_counter()
                    result = self.workload.call(networks, workdir)
                    wall = time.perf_counter() - start
            optimum = self.workload.verify(result, workdir, check)
        except Exception:  # noqa: BLE001 - an operation that raises is a counted failure
            traceback.print_exc(file=sys.stderr)
            check.fail(f"iteration {self._count} raised")
            wall = None
            optimum = None
        store = workdir / "store"
        store_bytes = sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
        shutil.rmtree(workdir)

        if wall is not None:
            self.digests.add(check.digest())
            if len(self.digests) > 1:
                check.fail(f"iteration {self._count} digest differs from an earlier iteration")
            self.optimum = optimum
        if tracer is not None and wall is not None:
            for search in tracer.invalid_searches():
                check.fail(f"search used {search['evals_used']} of {search['evals_budget']} evaluations")
            summary = tracer.summary()
            summary["bench.store_bytes"] = store_bytes
            if self.summaries:
                for key in DETERMINISTIC:
                    if summary[key] != self.summaries[0][key]:
                        check.fail(f"{key} is {summary[key]}, earlier {self.summaries[0][key]}")
            self.summaries.append(summary)
            self.last_tracer = tracer
        if check.failures:
            self.failed += self.workload.operations
            self.failures += check.failures
            return None
        return wall


def _sample_loop(seconds: float, step, min_samples: int) -> bool:
    """Call ``step`` until the time is spent; False once a step fails."""
    start = time.perf_counter()
    durations = []
    while True:
        before = time.perf_counter()
        if not step():
            return False
        durations.append(time.perf_counter() - before)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            return True
        if len(durations) >= min_samples and elapsed + statistics.median(durations) > seconds:
            return True


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process: import plus building the inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _median_of(summaries: list[dict], key: str) -> float:
    return statistics.median(summary[key] for summary in summaries)


def per_layer_metrics(run: Run, traced_walls, untraced_walls, network, seed) -> dict:
    from probes import forward_rows_per_s, solver_seconds_per_generation
    from tracing import DETERMINISTIC
    from tunescope.solver import default_population_size

    first = run.summaries[0]
    # the warm-up iteration is excluded from times whenever others exist
    timed = run.summaries[1:] or run.summaries
    metrics = {}
    for key, value in first.items():
        metrics[key] = value if key in DETERMINISTIC else _median_of(timed, key)
    # each traced iteration runs right after an untraced one; pairing
    # them cancels the machine's slow drifts in speed
    metrics["trace.overhead_ratio"] = statistics.median(
        traced / untraced - 1.0 for traced, untraced in zip(traced_walls, untraced_walls)
    )
    for label, batch in PROBE_BATCHES.items():
        size = batch or default_population_size(network.size)
        metrics[f"targets.probe_rows_per_s.{label}"] = forward_rows_per_s(network, size, seed)
    for side in (11, 21):
        metrics[f"solver.probe_s_per_gen.n{side * side}"] = solver_seconds_per_generation(
            side, PROBE_GENERATIONS, seed
        )
    return metrics


def _emit(declared: list[dict], computed: dict, run: Run, correct: bool, extra: dict) -> None:
    metrics = {}
    for entry in declared:
        value = computed.get(entry["name"])
        if value is None:
            correct = False
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        print(f"{entry['name']:36s} {float(value):.6g} {entry['unit']}")
    for message in run.failures[:20]:
        print(f"FAILED: {message}")
    OUT.mkdir(exist_ok=True)
    record = dict(extra, correct=correct, attempted=run.attempted, failed=run.failed,
                  failures=run.failures, metrics=metrics)
    stem = f"{extra['workload']}-seed{extra['seed']}-trace{extra['trace']}"
    with open(OUT / f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if run.last_tracer is not None:
        run.last_tracer.write_csv(OUT / f"{stem}-spans.csv")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "tunescope" / "__init__.py").is_file():
        print(f"error: no tunescope sources under {SRC}", file=sys.stderr)
        return 2
    for key in _THREAD_VARIABLES:
        os.environ.setdefault(key, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import tunescope
    from workloads import WORKLOADS

    if Path(tunescope.__file__).resolve().parent != (SRC / "tunescope").resolve():
        print(f"error: tunescope imported from {tunescope.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(repr(time.perf_counter() - _PROCESS_START))
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    problems = _environment_problems(env)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    run = Run(workload, workdir)
    traced_walls: list[float] = []
    untraced_walls: list[float] = []
    setup: list[float] = []
    try:
        ok = run.iterate(traced=True) is not None  # warm-up; gives the row count

        def record(traced: bool) -> bool:
            wall = run.iterate(traced=traced)
            if wall is None:
                return False
            (traced_walls if traced else untraced_walls).append(wall)
            return True

        def untraced_step() -> bool:
            # set-up samples are spread over the run, like the iterations,
            # so both see the same mix of fast and slow stretches
            if len(setup) < SETUP_REPEATS:
                setup.append(setup_seconds(args.workload, args.seed))
            return record(False)

        if ok and args.trace:
            ok = _sample_loop(args.seconds, lambda: record(False) and record(True), 2)
        elif ok:
            ok = _sample_loop(args.seconds, untraced_step, 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = ok and not problems and run.failed == 0
    computed: dict = {}
    if ok and args.trace:
        computed = per_layer_metrics(
            run, traced_walls, untraced_walls, workload.networks[0], args.seed
        )
        declared_metrics = declared["per_layer"]
    elif ok:
        wall = statistics.median(untraced_walls)
        computed = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "evals_per_s": run.summaries[0]["targets.rows"] / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "optimum_fitness": run.optimum,
            "ok_ratio": (run.attempted - run.failed) / run.attempted,
        }
        print(f"wall_s samples={len(untraced_walls)} "
              f"min={min(untraced_walls):.4f} max={max(untraced_walls):.4f}")
        declared_metrics = declared["end_to_end"]
    else:
        declared_metrics = declared["per_layer" if args.trace else "end_to_end"]
    if run.digests:
        print(f"result_digest {sorted(run.digests)[0]}")
    extra = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "result_digest": sorted(run.digests),
        "untraced_walls_s": untraced_walls,
        "traced_walls_s": traced_walls,
        "setup_samples_s": setup,
        "layer_summaries": run.summaries,
        "computed": computed,
    }
    _emit(declared_metrics, computed, run, correct, extra)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
