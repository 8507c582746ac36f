"""Golden artifact bytes.

Pins the sha256 of every file that a tiny run of the command line
writes: a one-level cascade from ``gen-net``; ``characterize`` on four
of its units, with and without a task (the ``paths``, ``subspace`` and
``measure_unit`` directories keep the names of the unit commands that
``characterize`` replaced, so their hashes keep their keys); ``encode``
of two references through the whole cascade; a ten-network ``bench``
store (so the correlation stage runs); population ``measure``; a
``report`` re-read of that store; and a two-level cascade with
``characterize`` on one of its units, with no task because the task
above is 11x11.  Budgets are cut to a few generations per search so the
whole run takes seconds.

Float bytes depend on the numpy and BLAS build, so ``golden_sha256.json``
records the build beside the hashes.  On any other build this test
fails and names both builds; re-record the file there (the failure
message prints the new hashes) rather than skipping the test.  A change
that alters the bytes on purpose re-records them and says why.

Two-level bytes also depend on the BLAS thread count: at N=441 the
Cholesky factor and the large matrix products sum in another order with
more threads.  So the hashed run is a child process with one BLAS
thread, whatever the caller's setting.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tunescope
from tunescope.cli import main

SEARCH = {
    "optimal_runs": 1,
    "optimal_budget_per_dim": 2,
    "seed_candidates": 16,
    "path_budget_per_dim": 1,
    "subspace_runs": 2,
    "reconstruct_runs": 1,
    "reconstruct_budget_per_dim": 2,
}
TASK = {"n_classes": 4, "samples_per_class": 6, "seed": 3}
STUDY = {
    "seed": 4,
    "levels": 1,
    "n_networks": 10,
    "task": {"n_classes": 4, "samples_per_class": 6},
    "n_references": 2,
    "n_pairs": 60,
    "unit_sample": 1,
    "search": SEARCH,
}
COMMANDS = (
    ["gen-net", "--levels", "1", "--seed", "5", "--out", "out/net"],
    ["characterize", "--target", "out/net", "--unit", "0", "--task", "task.json",
     "--seed", "3", "--config", "search.json", "--walks", "2", "--out", "out/char"],
    ["characterize", "--target", "out/net", "--unit", "1", "--seed", "3",
     "--config", "search.json", "--walks", "2", "--out", "out/paths"],
    ["characterize", "--target", "out/net", "--unit", "2", "--task", "task.json",
     "--seed", "3", "--config", "search.json", "--out", "out/subspace"],
    ["encode", "--target", "out/net", "--task", "task.json", "--references", "2",
     "--seed", "3", "--config", "search.json", "--out", "out/encode"],
    ["bench", "--config", "study.json", "--out", "out/store", "--workers", "1"],
    ["characterize", "--target", "out/net", "--unit", "3", "--task", "task.json",
     "--seed", "3", "--config", "search.json", "--out", "out/measure_unit"],
    ["measure", "--target", "out/net", "--task", "task.json", "--references", "2",
     "--unit-sample", "1", "--seed", "3", "--config", "search.json",
     "--out", "out/measure_pop"],
    ["report", "--store", "out/store", "--seed", "4", "--permutations", "200",
     "--out", "out/report"],
    ["gen-net", "--levels", "2", "--seed", "5", "--out", "out/net2"],
    ["characterize", "--target", "out/net2", "--unit", "0", "--seed", "3",
     "--config", "search.json", "--walks", "2", "--out", "out/char_l2"],
)

GOLDEN = json.loads((Path(__file__).parent / "golden_sha256.json").read_text())
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# run every command in the child; the first that fails names itself
CHILD = """
import json, sys
from tunescope.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    if code:
        sys.exit(f"exit code {code}: {argv}")
"""


def running_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def write_configs(tmp_path, monkeypatch) -> None:
    # relative paths only, so no file records where the run took place
    monkeypatch.chdir(tmp_path)
    Path("search.json").write_text(json.dumps(SEARCH))
    Path("task.json").write_text(json.dumps(TASK))
    Path("study.json").write_text(json.dumps(STUDY))


def run_commands(tmp_path, monkeypatch) -> None:
    write_configs(tmp_path, monkeypatch)
    for argv in COMMANDS:
        assert main(argv) == 0, argv


def test_artifact_bytes_match_golden(tmp_path, monkeypatch):
    write_configs(tmp_path, monkeypatch)
    src = str(Path(tunescope.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, **ONE_BLAS_THREAD, PYTHONPATH=pythonpath)
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    digests = {
        path.relative_to("out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path("out").rglob("*"))
        if path.is_file()
    }

    build, recorded = running_build(), GOLDEN["build"]
    pinned = GOLDEN["sha256"]
    changed = sorted(
        name for name in set(digests) | set(pinned) if digests.get(name) != pinned.get(name)
    )
    table = json.dumps({"build": build, "sha256": digests}, indent=2, sort_keys=True)
    assert build == recorded and not changed, (
        f"golden hashes were recorded on numpy {recorded['numpy']} with {recorded['blas']}; "
        f"this run is numpy {build['numpy']} with {build['blas']}. "
        f"Files that differ: {changed}. This run:\n{table}"
    )


def test_every_file_is_renamed_into_place(tmp_path, monkeypatch, capsys):
    """Each command's files reach ``--out`` only by an atomic rename."""
    renamed = set()
    replace = os.replace

    def spy(src, dst):
        replace(src, dst)
        renamed.add(Path(dst).resolve())

    monkeypatch.setattr(os, "replace", spy)
    run_commands(tmp_path, monkeypatch)
    written = [path for path in Path("out").rglob("*") if path.is_file()]
    assert written
    assert not [path for path in written if path.resolve() not in renamed]
    assert not list(Path("out").rglob(".*.tmp"))
