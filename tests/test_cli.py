import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tunescope
from tunescope.cli import main
from tunescope.measures import MeasureReport
from tunescope.targets import default_l2_spec, spec_to_json

MICRO_SEARCH = {
    "optimal_runs": 1,
    "optimal_budget_per_dim": 2,
    "seed_candidates": 16,
    "path_budget_per_dim": 1,
    "subspace_runs": 2,
    "reconstruct_runs": 1,
    "reconstruct_budget_per_dim": 2,
}

CONVERGED_SEARCH = {
    "optimal_runs": 2,
    "optimal_budget_per_dim": 100,
    "seed_candidates": 60,
    "path_budget_per_dim": 20,
    "subspace_runs": 3,
    "reconstruct_runs": 1,
    "reconstruct_budget_per_dim": 2,
}

# search values no run can use; each is a config error
UNUSABLE_SEARCH = [
    {"deltas": []},
    {"subspace_runs": 1},
    {"optimal_runs": 0},
    {"optimal_budget_per_dim": 0},
    {"seed_candidates": 0},
    {"path_budget_per_dim": 0},
    {"reconstruct_runs": 0},
    {"reconstruct_budget_per_dim": 0},
    # counts that are not integers
    {"subspace_runs": 2.5},
    {"seed_candidates": 16.5},
    {"optimal_budget_per_dim": 2.5},
    {"optimal_runs": True},
    # values that would turn every search into a no-op or a non-finite start
    {"energy": 0},
    {"energy": float("inf")},
    {"optimal_sigma0": 0},
    {"path_sigma0": -0.1},
    {"stagnation_window": 0},
    {"step_tolerance": -1e-8},
    {"step_tolerance": float("nan")},
    # no exponent to draw seeding noise from
    {"alpha_set": []},
    {"alpha_set": [float("nan")]},
]
UNUSABLE_IDS = [f"{key}={value}" for bad in UNUSABLE_SEARCH for key, value in bad.items()]


@pytest.fixture
def micro_config(tmp_path):
    path = tmp_path / "search_micro.json"
    path.write_text(json.dumps(MICRO_SEARCH))
    return str(path)


@pytest.fixture
def task_file(tmp_path):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"n_classes": 4, "samples_per_class": 6, "seed": 3}))
    return str(path)


def error_payload(capsys):
    err = capsys.readouterr().err.strip()
    payload = json.loads(err.splitlines()[-1])
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"type", "message"}
    return payload["error"]


class TestParser:
    def test_no_subcommand_is_config_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["gen-net", "--out", "x", "--bogus"]) == 1

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0


class TestGenNet:
    def test_default_l1_reports_11x11(self, tmp_path, capsys):
        out = tmp_path / "net"
        assert main(["gen-net", "--levels", "1", "--seed", "5",
                     "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "input_shape: 11x11" in stdout
        assert "response_dim: 32" in stdout
        blob = json.loads((out / "manifest.json").read_text())
        assert blob["input_shape"] == [11, 11]
        assert (out / blob["weights"]).exists()

    def test_l2_reports_21x21(self, tmp_path, capsys):
        assert main(["gen-net", "--levels", "2", "--seed", "5",
                     "--out", str(tmp_path / "net")]) == 0
        assert "input_shape: 21x21" in capsys.readouterr().out

    def test_same_seed_gives_identical_weights(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(["gen-net", "--seed", "5",
                         "--out", str(tmp_path / name)]) == 0
        first = (tmp_path / "a" / "weights.bin").read_bytes()
        second = (tmp_path / "b" / "weights.bin").read_bytes()
        assert first == second
        assert main(["gen-net", "--seed", "6", "--out", str(tmp_path / "c")]) == 0
        assert (tmp_path / "c" / "weights.bin").read_bytes() != first

    def test_missing_out_dir_created(self, tmp_path, capsys):
        out = tmp_path / "deep" / "nested" / "net"
        assert main(["gen-net", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_spec_file_round_trip(self, tmp_path, capsys):
        first = tmp_path / "a"
        assert main(["gen-net", "--seed", "5", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(manifest["spec"]))
        second = tmp_path / "b"
        assert main(["gen-net", "--spec", str(spec_path),
                     "--out", str(second)]) == 0
        assert (first / "weights.bin").read_bytes() == (
            second / "weights.bin"
        ).read_bytes()

    def test_unknown_spec_key_is_config_error(self, tmp_path, capsys):
        first = tmp_path / "a"
        assert main(["gen-net", "--seed", "5", "--out", str(first)]) == 0
        spec = json.loads((first / "manifest.json").read_text())["spec"]
        spec["levels"][0]["pool_exponnt"] = 2.0  # typo
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        capsys.readouterr()
        second = tmp_path / "b"
        assert main(["gen-net", "--spec", str(spec_path), "--out", str(second)]) == 1
        assert "pool_exponnt" in error_payload(capsys)["message"]
        assert not second.exists()

    @pytest.mark.parametrize("key, value", [("pool_exponent", 0), ("kernel_size", 7.0),
                                            ("n_filters", 0), ("norm_threshold", 0)])
    def test_unusable_spec_value_is_config_error(self, tmp_path, capsys, key, value):
        spec = spec_to_json(default_l2_spec())
        spec["levels"][0][key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "net"
        assert main(["gen-net", "--spec", str(spec_path), "--out", str(out)]) == 1
        error = error_payload(capsys)
        assert error["type"] == "ValueError" and key in error["message"]
        assert not out.exists()


class TestCharacterize:
    def test_linear_builtin_baseline(self, tmp_path, capsys):
        config = tmp_path / "search.json"
        config.write_text(json.dumps(CONVERGED_SEARCH))
        out = tmp_path / "char"
        assert main(["characterize", "--target", "linear", "--shape", "4",
                     "--seed", "3", "--config", str(config),
                     "--walks", "3", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["inpp"] <= 0.02
        assert report["slpp"] <= 0.02
        for name in ("x_hat.csv", "x_hat.pgm", "optimal.json", "fd.csv",
                     "path_invariance.csv", "path_selectivity.csv",
                     "subspace_invariance.csv", "subspace_selectivity.csv",
                     "subspace.json", "report.json", "run.json"):
            assert (out / name).exists(), name
        series = {line.split(",")[0]
                  for line in (out / "fd.csv").read_text().splitlines()[1:]}
        assert series == {"invariance", "selectivity", "random_walk"}

    def test_unit_out_of_range_is_config_error(self, tmp_path, capsys,
                                               micro_config):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        out = tmp_path / "char"
        assert main(["characterize", "--target", str(net), "--unit", "99",
                     "--seed", "3", "--config", micro_config,
                     "--out", str(out)]) == 1
        error = error_payload(capsys)
        assert error["type"] == "IndexError"
        assert not out.exists()

    def test_multi_output_without_unit_is_config_error(self, tmp_path, capsys,
                                                       micro_config):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        assert main(["characterize", "--target", str(net), "--seed", "3",
                     "--config", micro_config,
                     "--out", str(tmp_path / "char")]) == 1
        assert error_payload(capsys)["type"] == "ValueError"

    @pytest.mark.parametrize("bad", [{"deltas": [4.0]}, {"deltas": [0.0, 0.5]},
                                     {"subspace_delta": -0.1}])
    def test_cone_angle_outside_range_is_config_error(self, tmp_path, capsys, bad):
        config = tmp_path / "search.json"
        config.write_text(json.dumps(dict(MICRO_SEARCH, **bad)))
        out = tmp_path / "char"
        assert main(["characterize", "--target", "linear", "--shape", "4",
                     "--seed", "3", "--config", str(config),
                     "--out", str(out)]) == 1
        assert "outside (0, pi]" in error_payload(capsys)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("bad", UNUSABLE_SEARCH, ids=UNUSABLE_IDS)
    def test_unusable_search_value_is_config_error(self, tmp_path, capsys, bad):
        config = tmp_path / "search.json"
        config.write_text(json.dumps(dict(MICRO_SEARCH, **bad)))
        out = tmp_path / "char"
        assert main(["characterize", "--target", "linear", "--shape", "4",
                     "--seed", "3", "--config", str(config),
                     "--out", str(out)]) == 1
        error = error_payload(capsys)
        assert error["type"] == "ValueError" and next(iter(bad)) in error["message"]
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path, capsys, micro_config):
        args = ["characterize", "--target", "linear", "--shape", "4",
                "--seed", "3", "--config", micro_config, "--walks", "2"]
        for name in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
        for filename in ("report.json", "fd.csv", "x_hat.csv", "optimal.json",
                         "run.json"):
            first = (tmp_path / "a" / filename).read_bytes()
            second = (tmp_path / "b" / filename).read_bytes()
            assert first == second, filename

    def test_network_unit_with_task(self, tmp_path, capsys, micro_config,
                                    task_file):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        out = tmp_path / "char"
        assert main(["characterize", "--target", str(net), "--unit", "0",
                     "--task", task_file, "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["osep"] is not None
        assert report["itsa"] is not None


class TestPathsAndSubspace:
    @pytest.mark.parametrize("command", ["characterize", "paths"])
    def test_negative_walks_is_config_error(self, tmp_path, capsys, micro_config, command):
        out = tmp_path / "out"
        argv = [command, "--target", "linear", "--shape", "4", "--seed", "3",
                "--config", micro_config, "--out", str(out)]
        assert main([*argv, "--walks", "-5"]) == 1
        assert "--walks" in error_payload(capsys)["message"]
        assert not out.exists()
        assert main([*argv, "--walks", "0"]) == 0
        rows = (out / "fd.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"invariance", "selectivity"}

    def test_paths_bundle(self, tmp_path, capsys, micro_config):
        out = tmp_path / "paths"
        assert main(["paths", "--target", "linear", "--shape", "4",
                     "--seed", "3", "--config", micro_config,
                     "--walks", "2", "--out", str(out)]) == 0
        header, shape = (out / "path_invariance.csv").read_text().splitlines()[:2]
        assert header == "height,width,count"
        assert shape == "4,4,5"

    def test_subspace_bundle(self, tmp_path, capsys, micro_config, task_file):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        out = tmp_path / "sub"
        assert main(["subspace", "--target", str(net), "--unit", "0",
                     "--task", task_file, "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 0
        blob = json.loads((out / "subspace.json").read_text())
        assert 0.0 <= blob["capacity"] <= 1.0
        assert "invariance_alignment" in blob
        assert len(blob["invariance_fitnesses"]) == 2


class TestEncodeAndMeasure:
    def test_encode_emits_reconstruction_pairs(self, tmp_path, capsys,
                                               micro_config, task_file):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        out = tmp_path / "enc"
        assert main(["encode", "--target", str(net), "--task", task_file,
                     "--references", "2", "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 0
        blob = json.loads((out / "encode.json").read_text())
        assert len(blob["per_reference"]) == 2
        assert -1.0 <= blob["tses"] <= 1.0
        for i in range(2):
            assert (out / f"reference_{i:02d}.pgm").exists()
            assert (out / f"reconstruction_{i:02d}.csv").exists()

    def test_no_reconstruction_runs_is_config_error(self, tmp_path, capsys, task_file):
        config = tmp_path / "search.json"
        config.write_text(json.dumps(dict(MICRO_SEARCH, reconstruct_runs=0)))
        out = tmp_path / "enc"
        assert main(["encode", "--target", "linear", "--task", task_file,
                     "--references", "2", "--seed", "3",
                     "--config", str(config), "--out", str(out)]) == 1
        assert "reconstruct_runs" in error_payload(capsys)["message"]
        assert not out.exists()

    def test_measure_population_protocol(self, tmp_path, capsys, micro_config,
                                         task_file):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        out = tmp_path / "mea"
        assert main(["measure", "--target", str(net), "--task", task_file,
                     "--references", "2", "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for name in MeasureReport.FIELDS:
            assert report[name] is not None, name
        assert report["provenance"]["level"] == "population"

    def test_unit_sample_below_one_is_config_error(self, tmp_path, capsys, micro_config,
                                                   task_file):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        out = tmp_path / "mea"
        assert main(["measure", "--target", str(net), "--task", task_file,
                     "--references", "2", "--unit-sample", "0", "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 1
        assert "--unit-sample" in error_payload(capsys)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, count", [("encode", 0), ("encode", 99), ("measure", 0)])
    def test_reference_count_outside_task_is_config_error(self, tmp_path, capsys, micro_config,
                                                          task_file, command, count):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--target", str(net), "--task", task_file,
                     "--references", str(count), "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 1
        assert f"cannot draw {count} references" in error_payload(capsys)["message"]
        assert not out.exists()

    def test_measure_population_needs_task(self, tmp_path, capsys,
                                           micro_config):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        assert main(["measure", "--target", str(net), "--seed", "3",
                     "--config", micro_config,
                     "--out", str(tmp_path / "mea")]) == 1


def study_blob(n_networks=2):
    return {
        "seed": 4,
        "levels": 1,
        "n_networks": n_networks,
        "task": {"n_classes": 4, "samples_per_class": 6},
        "n_references": 2,
        "n_pairs": 60,
        "unit_sample": 1,
        "search": MICRO_SEARCH,
    }


# study values no run can use: the key, its value and the field the error names
UNUSABLE_STUDY = [
    ("seed", 2.5, "seed"), ("seed", "7", "seed"), ("seed", True, "seed"),
    ("levels", 0, "levels"), ("levels", 3, "levels"), ("levels", True, "levels"),
    ("ranges", {"pool_exponent": [0.0]}, "pool_exponent"),
]


class TestBench:
    def write_config(self, tmp_path, blob):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(blob))
        return str(path)

    def test_two_network_smoke(self, tmp_path, capsys):
        config = self.write_config(tmp_path, study_blob())
        store = tmp_path / "store"
        assert main(["bench", "--config", config, "--out", str(store),
                     "--workers", "1"]) == 0
        stdout = capsys.readouterr().out
        assert "networks: 2" in stdout
        lines = (store / "measures.csv").read_text().splitlines()
        assert lines[0].endswith(",".join(MeasureReport.FIELDS))
        assert len(lines) == 3
        assert (store / "run.json").exists()
        summary = json.loads((store / "summary.json").read_text())
        assert summary["all_r2"] is None and "correlations" not in summary
        assert summary["n_networks"] == 2
        assert not (store / "correlation.csv").exists()

    def test_report_reproduces_study_table(self, tmp_path, capsys):
        config = self.write_config(tmp_path, study_blob(n_networks=10))
        store = tmp_path / "store"
        assert main(["bench", "--config", config, "--out", str(store),
                     "--seed", "6", "--workers", "1"]) == 0
        out = tmp_path / "rep"
        assert main(["report", "--store", str(store), "--seed", "6",
                     "--out", str(out)]) == 0
        for name in ("correlation.csv", "summary.json"):
            assert (out / name).read_bytes() == (store / name).read_bytes(), name

    def test_bad_cone_angle_in_study_config(self, tmp_path, capsys):
        blob = study_blob()
        blob["search"] = dict(MICRO_SEARCH, deltas=[0.5, 4.0])
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store)]) == 1
        assert "outside (0, pi]" in error_payload(capsys)["message"]
        assert not store.exists()

    def test_single_subspace_run_in_study_config(self, tmp_path, capsys):
        blob = study_blob()
        blob["search"] = dict(MICRO_SEARCH, subspace_runs=1)
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store)]) == 1
        assert "subspace_runs" in error_payload(capsys)["message"]
        assert not store.exists()

    def test_zero_initial_step_in_study_config(self, tmp_path, capsys):
        blob = study_blob()
        blob["search"] = dict(MICRO_SEARCH, optimal_sigma0=0)
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store)]) == 1
        assert "optimal_sigma0" in error_payload(capsys)["message"]
        assert not store.exists()

    def test_unit_sample_below_one_in_study_config(self, tmp_path, capsys):
        blob = dict(study_blob(), unit_sample=0)
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store)]) == 1
        assert "unit_sample" in error_payload(capsys)["message"]
        assert not store.exists()

    def test_n_pairs_below_two_in_study_config(self, tmp_path, capsys):
        blob = dict(study_blob(), n_pairs=1)
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 1
        assert "n_pairs" in error_payload(capsys)["message"]
        assert not store.exists()

    @pytest.mark.parametrize("key", ["n_networks", "n_references", "n_pairs", "unit_sample"])
    def test_fractional_count_in_study_config(self, tmp_path, capsys, key):
        blob = dict(study_blob(), **{key: 2.5})
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 1
        assert f"{key} is 2.5" in error_payload(capsys)["message"]
        assert not store.exists()

    @pytest.mark.parametrize("key, value, named", UNUSABLE_STUDY,
                             ids=[f"{key}={value!r}" for key, value, _ in UNUSABLE_STUDY])
    def test_unusable_seed_levels_or_range_in_study_config(self, tmp_path, capsys, key, value,
                                                           named):
        blob = dict(study_blob(), **{key: value})
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 1
        assert named in error_payload(capsys)["message"]
        assert not store.exists()

    def test_workers_below_one(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, study_blob()),
                     "--out", str(store), "--workers", "-3"]) == 1
        assert "workers" in error_payload(capsys)["message"]
        assert not store.exists()

    def test_malformed_config_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "study.json"
        config.write_text('{"n_networks": ')
        store = tmp_path / "store"
        assert main(["bench", "--config", str(config),
                     "--out", str(store)]) == 1
        assert error_payload(capsys)["type"] == "ValueError"
        assert not store.exists()

    def test_unknown_study_key_rejected(self, tmp_path, capsys):
        blob = study_blob()
        blob["n_network"] = 2  # typo
        config = self.write_config(tmp_path, blob)
        store = tmp_path / "store"
        assert main(["bench", "--config", config, "--out", str(store)]) == 1
        assert "n_network" in error_payload(capsys)["message"]
        assert not store.exists()

    def test_nonempty_store_needs_resume_flag(self, tmp_path, capsys):
        config = self.write_config(tmp_path, study_blob())
        store = tmp_path / "store"
        assert main(["bench", "--config", config, "--out", str(store),
                     "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["bench", "--config", config, "--out", str(store),
                     "--workers", "1"]) == 1
        assert "--resume" in error_payload(capsys)["message"]

    def test_resume_after_interrupt_restores_csv(self, tmp_path, capsys):
        config = self.write_config(tmp_path, study_blob())
        store = tmp_path / "store"
        assert main(["bench", "--config", config, "--out", str(store),
                     "--workers", "1"]) == 0
        final = (store / "measures.csv").read_bytes()
        # simulate an interrupt that lost the second network and the table
        (store / "measures.csv").unlink()
        for item in (store / "network_001").iterdir():
            item.unlink()
        (store / "network_001").rmdir()
        assert main(["bench", "--config", config, "--out", str(store),
                     "--resume", "--workers", "1"]) == 0
        assert (store / "measures.csv").read_bytes() == final

    def test_resume_with_changed_ranges_refused(self, tmp_path, capsys):
        blob = study_blob(n_networks=1)
        blob["ranges"] = {"pool_exponent": [1.0]}
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 0
        before = (store / "measures.csv").read_bytes()
        capsys.readouterr()
        blob["ranges"] = {"pool_exponent": [10.0]}
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--resume", "--workers", "1"]) == 2
        assert "different study config" in error_payload(capsys)["message"]
        assert (store / "measures.csv").read_bytes() == before

    def test_explicit_search_seed_rejected(self, tmp_path, capsys):
        blob = study_blob()
        blob["search"] = dict(MICRO_SEARCH, seed=9)
        config = self.write_config(tmp_path, blob)
        assert main(["bench", "--config", config,
                     "--out", str(tmp_path / "store")]) == 1


def store_files(store: Path) -> dict:
    files = sorted(path for path in store.rglob("*") if path.is_file())
    return {path.relative_to(store): path.read_bytes() for path in files}


# about half a second per network on one core, so a study of six runs
# long enough to be killed between its second and its last report
KILL_STUDY = dict(
    study_blob(n_networks=6),
    search=dict(MICRO_SEARCH, optimal_budget_per_dim=20, path_budget_per_dim=4,
                reconstruct_budget_per_dim=10),
)
KILL_AFTER_REPORTS = 2


@pytest.fixture(scope="module")
def clean_kill_study(tmp_path_factory):
    """The study config and every file of its uninterrupted store."""
    root = tmp_path_factory.mktemp("kill_study")
    config = root / "study.json"
    config.write_text(json.dumps(KILL_STUDY))
    store = root / "clean"
    assert main(["bench", "--config", str(config), "--out", str(store), "--workers", "1"]) == 0
    return config, store_files(store)


class TestKillAndResume:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_killed_study_resumes_to_clean_bytes(self, tmp_path, clean_kill_study, workers):
        config, clean = clean_kill_study
        store = tmp_path / "store"
        command = ["bench", "--config", str(config), "--out", str(store), "--workers", workers]
        src = str(Path(tunescope.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        # its own session, so one signal to its process group kills the pool too
        study = subprocess.Popen([sys.executable, "-m", "tunescope", *command], env=env,
                                 stdout=subprocess.DEVNULL, start_new_session=True)
        try:
            deadline = time.monotonic() + 300
            while len(list(store.glob("network_*/report.json"))) < KILL_AFTER_REPORTS:
                assert study.poll() is None, "the study ended before it could be killed"
                assert time.monotonic() < deadline, "no reports before the deadline"
                time.sleep(0.01)
        finally:
            if study.poll() is None:
                os.killpg(study.pid, signal.SIGKILL)
            study.wait(timeout=60)
        assert study.returncode == -signal.SIGKILL
        assert len(list(store.glob("network_*/report.json"))) < KILL_STUDY["n_networks"]
        assert main([*command, "--resume"]) == 0
        assert store_files(store) == clean


class TestReport:
    def fabricate_store(self, tmp_path, n=12, seed=0):
        """A store of plausible reports without running any searches."""
        rng = np.random.default_rng(seed)
        store = tmp_path / "store"
        store.mkdir()
        for i in range(n):
            net = store / f"network_{i:03d}"
            net.mkdir()
            measures = {
                name: float(v)
                for name, v in zip(MeasureReport.FIELDS, rng.uniform(0, 1, 8))
            }
            blob = {
                "measures": measures,
                "performance": float(rng.uniform(0.4, 1.0)),
                "provenance": {"level": "population", "seed": seed},
            }
            (net / "report.json").write_text(json.dumps(blob, sort_keys=True))
        return store

    def test_small_store_skips_correlation(self, tmp_path, capsys):
        store = self.fabricate_store(tmp_path, n=3)
        assert main(["report", "--store", str(store)]) == 0
        assert "skipped" in capsys.readouterr().out
        summary = json.loads((store / "summary.json").read_text())
        assert summary["all_r2"] is None
        assert not (store / "correlation.csv").exists()

    def test_full_store_emits_ordered_table(self, tmp_path, capsys):
        store = self.fabricate_store(tmp_path)
        out = tmp_path / "rep"
        assert main(["report", "--store", str(store), "--out", str(out),
                     "--seed", "1", "--permutations", "200"]) == 0
        lines = (out / "correlation.csv").read_text().splitlines()
        assert lines[0] == "measure,spearman,pearson,p_perm"
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["OSEP", "INPP", "SLPP", "INSC", "ITSA", "STSA",
                         "TSES", "ALL"]
        all_row = lines[-1].split(",")
        assert all_row[1] == "" and all_row[3] == ""  # only the joint fit
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_r2"] == float(all_row[2])

    @pytest.mark.parametrize("name", ["summary.json", "correlation.csv", "report.json"])
    def test_interrupted_write_keeps_previous_file(self, tmp_path, capsys, fail_write_of,
                                                    micro_config, name):
        if name == "report.json":
            out = tmp_path / "char"
            argv = ["characterize", "--target", "linear", "--shape", "4", "--seed", "3",
                    "--config", micro_config, "--walks", "2", "--out", str(out)]
        else:
            out = self.fabricate_store(tmp_path)
            argv = ["report", "--store", str(out), "--seed", "1", "--permutations", "50"]
        assert main(argv) == 0
        previous = (out / name).read_bytes()
        fail_write_of(name)
        assert main(argv) == 2
        assert (out / name).read_bytes() == previous
        assert not list(out.glob(".*.tmp"))

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_damaged_network_report_fails(self, tmp_path, capsys, damage):
        store = self.fabricate_store(tmp_path, n=10)
        assert main(["report", "--store", str(store), "--permutations", "50"]) == 0
        previous = (store / "summary.json").read_bytes()
        damaged = store / "network_003" / "report.json"
        if damage == "truncate":
            damaged.write_bytes(damaged.read_bytes()[:40])
        else:
            damaged.unlink()
        capsys.readouterr()
        assert main(["report", "--store", str(store), "--permutations", "50"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "network_003" in error["message"]
        assert "network_002" not in error["message"]
        assert (store / "summary.json").read_bytes() == previous

    def test_missing_store_is_config_error(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "absent")]) == 1

    @pytest.mark.parametrize("permutations", ["0", "-5"])
    def test_permutations_below_one_is_config_error(self, tmp_path, capsys, permutations):
        store = self.fabricate_store(tmp_path, n=10)
        out = tmp_path / "rep"
        assert main(["report", "--store", str(store), "--out", str(out),
                     "--permutations", permutations]) == 1
        assert "--permutations" in error_payload(capsys)["message"]
        assert not out.exists()
        assert not (store / "summary.json").exists()
