import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tunescope
import tunescope.bench
import tunescope.cli
from tunescope.bench import TRAJECTORY_VERSION
from tunescope.cli import _build_parser, main
from tunescope.measures import MeasureReport
from tunescope.targets import (
    LevelSpec,
    default_l1_spec,
    default_l2_spec,
    read_network_weights,
    spec_to_json,
    write_network_weights,
)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

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
    # a value that would turn every search into a no-op
    {"stagnation_window": 0},
    # a bool is not a real
    {"deltas": [True]},
    # a scalar where a list belongs
    {"deltas": 0.5},
    # keys that are gone: the energy, and the fixed initial steps, step
    # tolerance, seeding exponents and subspace angle, refused by name
    # whatever their value
    {"energy": 0},
    {"energy": float("inf")},
    {"optimal_sigma0": 0},
    {"path_sigma0": -0.1},
    {"step_tolerance": -1e-8},
    {"step_tolerance": float("nan")},
    {"alpha_set": []},
    {"alpha_set": [float("nan")]},
    {"subspace_delta": True},
    {"alpha_set": [True, False]},
    {"subspace_delta": float("nan")},
    {"alpha_set": 2.0},
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
                                            ("n_filters", 0), ("norm_threshold", 0),
                                            ("clip_bounds", [1.0, 0.0]),
                                            ("declared_input", 21.0), ("clip_bounds", 1.0)])
    def test_unusable_spec_value_is_config_error(self, tmp_path, capsys, key, value):
        spec = spec_to_json(default_l2_spec())
        record = spec if key in spec else spec["levels"][0]
        record[key] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "net"
        assert main(["gen-net", "--spec", str(spec_path), "--out", str(out)]) == 1
        error = error_payload(capsys)
        assert error["type"] == "ValueError" and key in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("overrides", [{"activation": "identity"},
                                           {"activation": "clipped", "clip_bounds": [-1.0, 1.0]}],
                             ids=["identity", "clipped-signed"])
    def test_fractional_pool_exponent_on_signed_activation_is_config_error(
        self, tmp_path, capsys, overrides
    ):
        # 1.5 is finite and above 0, but x ** 1.5 is NaN wherever x < 0
        level = dict(kernel_size=3, n_filters=2, pool_exponent=1.5, **overrides)
        with pytest.raises(ValueError, match="pool_exponent 1.5 .* activation"):
            LevelSpec(**level)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"levels": [level]}))
        out = tmp_path / "net"
        assert main(["gen-net", "--spec", str(spec_path), "--out", str(out)]) == 1
        error = error_payload(capsys)
        assert error["type"] == "ValueError"
        assert "pool_exponent" in error["message"] and "activation" in error["message"]
        assert not out.exists()

    def test_even_kernel_is_geometry_error(self, tmp_path, capsys):
        spec = spec_to_json(default_l1_spec())
        spec["levels"][0]["kernel_size"] = 4
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "net"
        assert main(["gen-net", "--spec", str(spec_path), "--out", str(out)]) == 1
        error = error_payload(capsys)
        assert error["type"] == "GeometryError" and "kernel size 4" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("blob", [{}, [], {"levels": None}],
                             ids=["empty", "list", "null-levels"])
    def test_spec_without_levels_is_config_error(self, tmp_path, capsys, blob):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(blob))
        out = tmp_path / "net"
        assert main(["gen-net", "--spec", str(spec_path), "--out", str(out)]) == 1
        error = error_payload(capsys)
        assert error["type"] == "ValueError" and '"levels" list' in error["message"]
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

    @pytest.mark.parametrize("bad", [{"deltas": [4.0]}, {"deltas": [0.0, 0.5]}])
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

    @pytest.mark.parametrize("bounds", ["[true, 4]", "[1.0, 1e400]", "2.0"])
    def test_unusable_task_frequency_range_is_config_error(self, tmp_path, capsys, micro_config,
                                                           bounds):
        task = tmp_path / "task.json"
        task.write_text(f'{{"n_classes": 4, "samples_per_class": 6, "frequency_range": {bounds}}}')
        out = tmp_path / "char"
        assert main(["characterize", "--target", "linear", "--shape", "11", "--task", str(task),
                     "--seed", "3", "--config", micro_config, "--out", str(out)]) == 1
        assert "frequency_range" in error_payload(capsys)["message"]
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

    def test_subspace_measures_are_computed_once(self, tmp_path, capsys, monkeypatch,
                                                 micro_config, task_file):
        """``subspace.json`` and ``report.json`` share one capacity and one
        alignment per kind, wherever the package looks the functions up."""
        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        for module in (tunescope.bench, tunescope.cli):
            for name in ("subspace_capacity", "subspace_alignment"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        out = tmp_path / "char"
        assert main(["characterize", "--target", "linear", "--shape", "4", "--task", task_file,
                     "--seed", "3", "--config", micro_config, "--out", str(out)]) == 0
        assert calls == {"subspace_capacity": 1, "subspace_alignment": 2}
        subspace = json.loads((out / "subspace.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert subspace["capacity"] == report["insc"]
        assert subspace["invariance_alignment"]["normalized"] == report["itsa"]
        assert subspace["selectivity_alignment"]["normalized"] == report["stsa"]


class TestDamagedWeights:
    """A manifest whose weights.bin does not fit its spec exits 1 at resolution."""

    def damage(self, tmp_path, capsys, levels, edit):
        net = tmp_path / "net"
        assert main(["gen-net", "--levels", levels, "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        edit(net / "weights.bin")
        return net

    def characterize(self, net, unit, micro_config):
        out = net.parent / f"char{unit}"
        code = main(["characterize", "--target", str(net), "--unit", unit, "--seed", "3",
                     "--config", micro_config, "--out", str(out)])
        return code, out

    def test_missing_level_kernel_is_geometry_error(self, tmp_path, capsys, micro_config):
        def drop_level_2(weights):
            write_network_weights(read_network_weights(weights)[:1], weights)

        net = self.damage(tmp_path, capsys, "2", drop_level_2)
        # unit 3 exists at level 1, unit 20 only at level 2
        for unit in ("3", "20"):
            code, out = self.characterize(net, unit, micro_config)
            assert code == 1
            assert error_payload(capsys) == {"type": "GeometryError",
                                             "message": "kernel count 1 != level count 2"}
            assert not out.exists()

    def test_non_finite_kernel_is_refused_at_load(self, tmp_path, capsys, micro_config):
        def poison(weights):
            kernels = read_network_weights(weights)
            kernels[0][2, 0, 1, 1] = np.nan
            write_network_weights(kernels, weights)

        net = self.damage(tmp_path, capsys, "1", poison)
        code, out = self.characterize(net, "0", micro_config)
        assert code == 1
        assert error_payload(capsys)["type"] == "NonFiniteError"
        assert not out.exists()


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """The files ``characterize`` reads for a one-level network unit."""
    net = tmp_path_factory.mktemp("reader_net") / "net"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
    files = {name: (net / name).read_bytes() for name in ("manifest.json", "weights.bin")}
    return dict(files, **{"search.json": json.dumps(MICRO_SEARCH).encode()})


@given(damage=st.sampled_from(["truncate", "extend", "cut", "cut-search", "flip", "weights"]),
       keep=st.integers(0, 1 << 20), extra=st.binary(min_size=1, max_size=64))
@example(damage="truncate", keep=0, extra=b"\0")  # empty weights.bin
@example(damage="truncate", keep=1 << 20, extra=b"\0")  # one byte short
@example(damage="cut", keep=0, extra=b"\0")  # empty manifest.json
@example(damage="cut", keep=1 << 20, extra=b"\0")  # all but the closing brace
@example(damage="cut-search", keep=1 << 20, extra=b"\0")  # search.json, likewise
@example(damage="flip", keep=0, extra=b"\0")  # manifest.json's opening brace
@example(damage="weights", keep=5, extra=b"\0")  # "weights": 5
@settings(max_examples=100, deadline=None)
def test_damaged_reader_input_exits_1_writing_nothing(reader_files, damage, keep, extra):
    """``truncate`` keeps the first ``keep`` bytes of ``weights.bin`` (at most
    all but one), and ``extend`` appends ``extra`` to it.  ``cut`` and
    ``cut-search`` keep the first ``keep`` bytes of ``manifest.json`` or
    ``search.json`` before its closing brace.  ``flip`` sets one byte of the
    two JSON files, counted through both from ``keep``, to 0xff, and
    ``weights`` sets the manifest's ``"weights"`` to the number ``keep``."""
    files = dict(reader_files)
    damaged = "weights.bin"
    if damage == "truncate":
        files[damaged] = files[damaged][:min(keep, len(files[damaged]) - 1)]
    elif damage == "extend":
        files[damaged] += extra
    elif damage == "flip":
        offset = keep % (len(files["manifest.json"]) + len(files["search.json"]))
        for damaged in ("manifest.json", "search.json"):
            if offset < len(files[damaged]):
                break
            offset -= len(files[damaged])
        files[damaged] = files[damaged][:offset] + b"\xff" + files[damaged][offset + 1:]
    elif damage == "weights":
        damaged = "manifest.json"
        files[damaged] = json.dumps(dict(json.loads(files[damaged]), weights=keep)).encode()
    else:
        damaged = "manifest.json" if damage == "cut" else "search.json"
        files[damaged] = files[damaged][:min(keep, files[damaged].rindex(b"}"))]
    with tempfile.TemporaryDirectory() as root:
        net = Path(root) / "net"
        net.mkdir()
        for name, content in files.items():
            (net / name).write_bytes(content)
        out = Path(root) / "char"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["characterize", "--target", str(net), "--unit", "0", "--seed", "3",
                         "--config", str(net / "search.json"), "--out", str(out)])
        error = json.loads(stderr.getvalue())["error"]
        assert code == 1
        assert error["type"] == "ValueError" and damaged in error["message"]
        assert not out.exists()


@pytest.mark.parametrize("claims", [{"input_shape": [21, 21]}, {"response_dim": 99},
                                    {"input_shape": [21, 21], "response_dim": 99}])
def test_manifest_claim_contradicting_its_network_is_config_error(tmp_path, capsys,
                                                                  reader_files, claims):
    """The 11x11, 32-output net's manifest, edited to claim another shape
    or output count, is refused by name before anything is written."""
    net = tmp_path / "net"
    net.mkdir()
    for name, content in reader_files.items():
        (net / name).write_bytes(content)
    manifest = net / "manifest.json"
    manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), **claims)))
    out = tmp_path / "char"
    assert main(["characterize", "--target", str(net), "--unit", "0", "--seed", "3",
                 "--config", str(net / "search.json"), "--out", str(out)]) == 1
    error = error_payload(capsys)
    assert error["type"] == "ValueError" and str(manifest) in error["message"]
    assert next(iter(claims)) in error["message"]
    assert not out.exists()


def test_run_json_records_every_bundle_flag(tmp_path, capsys, micro_config, task_file):
    """``--shape`` of a built-in target, ``--walks``, ``--references`` and
    ``--unit-sample`` each change the bundle, so ``run.json`` holds them;
    ``--out`` does not."""
    net = tmp_path / "net"
    assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
    char, mea = tmp_path / "char", tmp_path / "mea"
    assert main(["characterize", "--target", "linear", "--shape", "4", "--walks", "1",
                 "--seed", "3", "--config", micro_config, "--out", str(char)]) == 0
    assert main(["measure", "--target", str(net), "--task", task_file, "--references", "2",
                 "--unit-sample", "1", "--seed", "3", "--config", micro_config,
                 "--out", str(mea)]) == 0
    char_run = json.loads((char / "run.json").read_text())
    mea_run = json.loads((mea / "run.json").read_text())
    assert (char_run["shape"], char_run["walks"]) == (4, 1)
    assert (mea_run["shape"], mea_run["references"], mea_run["unit_sample"]) == (None, 2, 1)
    assert "out" not in char_run and "out" not in mea_run


class TestPathsAndSubspace:
    def test_negative_walks_is_config_error(self, tmp_path, capsys, micro_config):
        out = tmp_path / "out"
        argv = ["characterize", "--target", "linear", "--shape", "4", "--seed", "3",
                "--config", micro_config, "--out", str(out)]
        assert main([*argv, "--walks", "-5"]) == 1
        assert "--walks" in error_payload(capsys)["message"]
        assert not out.exists()
        assert main([*argv, "--walks", "0"]) == 0
        rows = (out / "fd.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"invariance", "selectivity"}

    @pytest.mark.parametrize("target, side", [("linear", "1"), ("quadratic", "1"),
                                              ("quadratic", "-3")])
    def test_builtin_side_below_two_is_config_error(self, tmp_path, capsys, micro_config,
                                                     target, side):
        out = tmp_path / "char"
        assert main(["characterize", "--target", target, "--shape", side, "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 1
        assert "--shape" in error_payload(capsys)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command, side, budgets, named", [
        ("characterize", "2", {"optimal_budget_per_dim": 3}, "path_budget_per_dim"),
        ("characterize", "3", {"optimal_budget_per_dim": 1}, "optimal_budget_per_dim"),
        ("measure", "2", {"optimal_budget_per_dim": 3, "path_budget_per_dim": 3,
                          "reconstruct_budget_per_dim": 1}, "reconstruct_budget_per_dim"),
        # 8 evaluations are lambda at N = 4, one short of the start point and a generation
        ("characterize", "2", {"optimal_budget_per_dim": 3, "path_budget_per_dim": 2},
         "path_budget_per_dim"),
    ])
    def test_budget_below_one_generation_is_config_error(self, tmp_path, capsys, command, side,
                                                          budgets, named):
        config = tmp_path / "search.json"
        config.write_text(json.dumps(dict(MICRO_SEARCH, **budgets)))
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"n_classes": 2, "samples_per_class": 2,
                                    "height": int(side), "width": int(side)}))
        out = tmp_path / "out"
        extra = ["--task", str(task), "--references", "1"] if command == "measure" else []
        assert main([command, "--target", "linear", "--shape", side, "--seed", "3",
                     "--config", str(config), *extra, "--out", str(out)]) == 1
        assert named in error_payload(capsys)["message"]
        assert not out.exists()

    def test_paths_bundle(self, tmp_path, capsys, micro_config):
        out = tmp_path / "char"
        assert main(["characterize", "--target", "linear", "--shape", "4",
                     "--seed", "3", "--config", micro_config,
                     "--walks", "2", "--out", str(out)]) == 0
        header, shape = (out / "path_invariance.csv").read_text().splitlines()[:2]
        assert header == "height,width,count"
        assert shape == "4,4,5"

    def test_subspace_bundle(self, tmp_path, capsys, micro_config, task_file):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        out = tmp_path / "sub"
        assert main(["characterize", "--target", str(net), "--unit", "0",
                     "--task", task_file, "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 0
        blob = json.loads((out / "subspace.json").read_text())
        assert 0.0 <= blob["capacity"] <= 1.0
        assert "invariance_alignment" in blob
        assert len(blob["invariance_fitnesses"]) == 2

    @pytest.mark.parametrize("command", ["paths", "subspace", "encode"])
    def test_removed_command_is_config_error(self, tmp_path, capsys, micro_config, command):
        # characterize writes every file paths and subspace wrote, and
        # measure every file encode wrote
        out = tmp_path / "out"
        assert main([command, "--target", "linear", "--shape", "4", "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 1
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not out.exists()

    def test_task_without_shape_takes_target_input(self, tmp_path, capsys, micro_config):
        net = tmp_path / "net2"
        assert main(["gen-net", "--levels", "2", "--seed", "5", "--out", str(net)]) == 0
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"n_classes": 8}))
        out = tmp_path / "sub"
        assert main(["characterize", "--target", str(net), "--unit", "0", "--task", str(task),
                     "--seed", "3", "--config", micro_config, "--out", str(out)]) == 0
        assert "invariance_alignment" in json.loads((out / "subspace.json").read_text())
        assert json.loads((out / "run.json").read_text())["task"] == {"n_classes": 8}

    def test_task_shape_contradicting_target_is_config_error(self, tmp_path, capsys,
                                                             micro_config):
        net = tmp_path / "net2"
        assert main(["gen-net", "--levels", "2", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"n_classes": 8, "width": 11}))
        out = tmp_path / "sub"
        assert main(["characterize", "--target", str(net), "--unit", "0", "--task", str(task),
                     "--seed", "3", "--config", micro_config, "--out", str(out)]) == 1
        assert "task shape (21, 11) != target input (21, 21)" in error_payload(capsys)["message"]
        assert not out.exists()


class TestEncodeAndMeasure:
    def measure(self, tmp_path, micro_config, task_file):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        out = tmp_path / "mea"
        assert main(["measure", "--target", str(net), "--task", task_file,
                     "--references", "2", "--unit-sample", "1", "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 0
        return out

    def test_measure_emits_reconstruction_pairs(self, tmp_path, capsys,
                                                micro_config, task_file):
        out = self.measure(tmp_path, micro_config, task_file)
        blob = json.loads((out / "encode.json").read_text())
        assert len(blob["per_reference"]) == 2
        assert -1.0 <= blob["tses"] <= 1.0
        for i in range(2):
            assert (out / f"reference_{i:02d}.pgm").exists()
            assert (out / f"reconstruction_{i:02d}.csv").exists()

    def test_encode_tses_is_report_tses(self, tmp_path, capsys, monkeypatch, micro_config,
                                        task_file):
        """Each reference's specificity is computed once, and ``encode.json``
        and ``report.json`` agree on their mean."""
        calls = []
        specificity = tunescope.bench.encoding_specificity

        def counted(recons):
            calls.append(recons)
            return specificity(recons)

        monkeypatch.setattr(tunescope.bench, "encoding_specificity", counted)
        out = self.measure(tmp_path, micro_config, task_file)
        assert len(calls) == 2 and not hasattr(tunescope.cli, "encoding_specificity")
        encode = json.loads((out / "encode.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert encode["tses"] == report["tses"]
        specificities = [row["specificity"] for row in encode["per_reference"]]
        assert encode["tses"] == float(np.mean(specificities))

    def test_no_reconstruction_runs_is_config_error(self, tmp_path, capsys, task_file):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        config = tmp_path / "search.json"
        config.write_text(json.dumps(dict(MICRO_SEARCH, reconstruct_runs=0)))
        out = tmp_path / "mea"
        assert main(["measure", "--target", str(net), "--task", task_file,
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

    @pytest.mark.parametrize("count", [0, 99])
    def test_reference_count_outside_task_is_config_error(self, tmp_path, capsys, micro_config,
                                                          task_file, count):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["measure", "--target", str(net), "--task", task_file,
                     "--references", str(count), "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 1
        assert f"cannot draw {count} references" in error_payload(capsys)["message"]
        assert not out.exists()

    def test_side_below_ssim_window_is_config_error(self, tmp_path, capsys):
        # a 3x3 receptive field cannot hold the 11-pixel window that
        # encoding specificity compares reconstructions through
        spec = spec_to_json(default_l1_spec())
        spec["levels"][0].update(kernel_size=3, pool_size=1, n_filters=4)
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        net = tmp_path / "net"
        assert main(["gen-net", "--spec", str(tmp_path / "spec.json"), "--out", str(net)]) == 0
        capsys.readouterr()
        config = tmp_path / "search.json"
        config.write_text(json.dumps(dict(MICRO_SEARCH, path_budget_per_dim=2)))
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"n_classes": 2, "samples_per_class": 2}))
        out = tmp_path / "out"
        assert main(["measure", "--target", str(net), "--task", str(task), "--references", "1",
                     "--seed", "3", "--config", str(config), "--out", str(out)]) == 1
        assert "window 11 exceeds image side 3" in error_payload(capsys)["message"]
        assert not out.exists()

    def test_measure_of_one_output_target_names_characterize(self, tmp_path, capsys,
                                                             micro_config, task_file):
        out = tmp_path / "mea"
        assert main(["measure", "--target", "linear", "--task", task_file, "--seed", "3",
                     "--config", micro_config, "--out", str(out)]) == 1
        assert "characterize" in error_payload(capsys)["message"]
        assert not out.exists()

    def test_measure_unit_flag_is_config_error(self, tmp_path, capsys, micro_config, task_file):
        # not read as an abbreviation of --unit-sample
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        out = tmp_path / "mea"
        assert main(["measure", "--target", str(net), "--unit", "3", "--task", task_file,
                     "--references", "2", "--seed", "3", "--config", micro_config,
                     "--out", str(out)]) == 1
        assert "unrecognized arguments: --unit 3" in capsys.readouterr().err
        assert not out.exists()

    def test_measure_population_needs_task(self, tmp_path, capsys,
                                           micro_config):
        net = tmp_path / "net"
        assert main(["gen-net", "--seed", "5", "--out", str(net)]) == 0
        capsys.readouterr()
        assert main(["measure", "--target", str(net), "--seed", "3",
                     "--config", micro_config,
                     "--out", str(tmp_path / "mea")]) == 1


@pytest.mark.parametrize("command", ["characterize", "measure"])
def test_solver_config_seed_is_config_error(tmp_path, capsys, task_file, command):
    config = tmp_path / "search.json"
    config.write_text(json.dumps(dict(MICRO_SEARCH, seed=99)))
    out = tmp_path / "out"
    task = ["--task", task_file] if command == "measure" else []
    assert main([command, "--target", "linear", "--shape", "11", *task, "--seed", "3",
                 "--config", str(config), "--out", str(out)]) == 1
    assert "master seed; remove seed" in error_payload(capsys)["message"]
    assert not out.exists()


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


# study values no run can use: the keys set, and the field the error names
UNUSABLE_STUDY = [
    ({"seed": 2.5}, "seed"), ({"seed": "7"}, "seed"), ({"seed": True}, "seed"),
    ({"levels": 0}, "levels"), ({"levels": 3}, "levels"), ({"levels": True}, "levels"),
    ({"ranges": {"pool_exponent": [0.0]}}, "pool_exponent"),
    # a bad value that only some seeds draw into the one network
    *(({"seed": seed, "n_networks": 1, "ranges": {"pool_exponent": [2.0, 0.0]}},
       "pool_exponent") for seed in range(1, 8)),
    ({"base_spec": {}}, "base_spec"),
    ({"ranges": {"n_filters": 8}}, "n_filters"),
    ({"ranges": {"pool_exponent": 2.0}}, "pool_exponent"),
]


# a study_config.json that no reader can use: truncated, not an object,
# a network count that is not an integer, and a seed missing or not an integer
DAMAGED_STUDY_CONFIGS = ['{"n_networks": ', "[]", '{"n_networks": "3", "seed": 4}',
                         '{"n_networks": 3}', '{"n_networks": 3, "seed": "4"}']
DAMAGED_IDS = ["truncated", "list", "string-count", "missing-seed", "string-seed"]


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
        # the store records seed 6, so report draws bench's permutations
        assert main(["report", "--store", str(store), "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("keys, error", [
        ({"task": {"samples_per_class": 1}}, "ValueError"),
        ({"n_pairs": 2}, "DegenerateSplitError"),
    ], ids=["one_item_per_class", "two_pairs"])
    def test_unworkable_pair_split_in_study_config(self, tmp_path, capsys, keys, error):
        blob = dict(study_blob(), **keys)
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 1
        assert error_payload(capsys)["type"] == error
        assert not store.exists()

    @pytest.mark.parametrize("key", ["n_networks", "n_references", "n_pairs", "unit_sample"])
    def test_fractional_count_in_study_config(self, tmp_path, capsys, key):
        blob = dict(study_blob(), **{key: 2.5})
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 1
        assert f"{key} is 2.5" in error_payload(capsys)["message"]
        assert not store.exists()

    @pytest.mark.parametrize(
        "keys, named", UNUSABLE_STUDY,
        ids=[",".join(f"{key}={value!r}" for key, value in keys.items())
             for keys, _ in UNUSABLE_STUDY],
    )
    def test_unusable_seed_levels_or_range_in_study_config(self, tmp_path, capsys, keys, named):
        blob = dict(study_blob(), **keys)
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 1
        assert named in error_payload(capsys)["message"]
        assert not store.exists()

    def test_study_without_task_shape_takes_network_input(self, tmp_path, capsys):
        blob = dict(study_blob(n_networks=1), levels=2)
        del blob["task"]
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 0
        assert "networks: 1" in capsys.readouterr().out
        assert set(json.loads((store / "run.json").read_text())["task"]) == {"seed"}

    @pytest.mark.parametrize("task", [5, [1], None], ids=["int", "list", "null"])
    def test_study_task_not_an_object_is_config_error(self, tmp_path, capsys, task):
        blob = dict(study_blob(n_networks=1), task=task)
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 1
        payload = error_payload(capsys)
        assert payload["type"] == "ValueError"
        assert payload["message"].startswith("task spec must be a JSON object, got ")
        assert not store.exists()

    def test_cli_import_loads_no_process_pool(self):
        """Only a study that starts workers imports the process pool."""
        src = str(Path(tunescope.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, tunescope.cli; print('concurrent.futures.process' in sys.modules)"
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, timeout=120, check=True)
        assert child.stdout.strip() == "False"

    def test_study_task_shape_contradicting_levels_is_config_error(self, tmp_path, capsys):
        blob = dict(study_blob(n_networks=1), levels=2)
        blob["task"] = dict(blob["task"], height=11)
        store = tmp_path / "store"
        assert main(["bench", "--config", self.write_config(tmp_path, blob),
                     "--out", str(store), "--workers", "1"]) == 1
        assert "task shape (11, 21) != network input (21, 21)" in error_payload(capsys)["message"]
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

    def test_resume_of_another_trajectory_version_refused(self, tmp_path, capsys):
        config = self.write_config(tmp_path, study_blob(n_networks=1))
        store = tmp_path / "store"
        assert main(["bench", "--config", config, "--out", str(store), "--workers", "1"]) == 0
        assert json.loads((store / "run.json").read_text())["trajectory_version"] == (
            TRAJECTORY_VERSION
        )
        fingerprint = json.loads((store / "study_config.json").read_text())
        assert fingerprint["trajectory_version"] == TRAJECTORY_VERSION
        fingerprint["trajectory_version"] = TRAJECTORY_VERSION - 1
        (store / "study_config.json").write_text(json.dumps(fingerprint))
        before = (store / "measures.csv").read_bytes()
        capsys.readouterr()
        assert main(["bench", "--config", config, "--out", str(store),
                     "--resume", "--workers", "1"]) == 2
        assert "different study config" in error_payload(capsys)["message"]
        assert (store / "measures.csv").read_bytes() == before

    def test_explicit_search_seed_rejected(self, tmp_path, capsys):
        blob = study_blob()
        blob["search"] = dict(MICRO_SEARCH, seed=9)
        config = self.write_config(tmp_path, blob)
        assert main(["bench", "--config", config,
                     "--out", str(tmp_path / "store")]) == 1

    @pytest.mark.parametrize("content", DAMAGED_STUDY_CONFIGS, ids=DAMAGED_IDS)
    def test_resume_with_damaged_study_config_names_it(self, tmp_path, capsys, content):
        config = self.write_config(tmp_path, study_blob(n_networks=3))
        store = tmp_path / "store"
        store.mkdir()
        (store / "study_config.json").write_text(content)
        assert main(["bench", "--config", config, "--out", str(store),
                     "--resume", "--workers", "1"]) == 2
        error = error_payload(capsys)
        assert error["type"] == "ValueError" and "study_config.json" in error["message"]
        assert store_files(store) == {Path("study_config.json"): content.encode()}

    def test_shipped_study_config_resolves(self, tmp_path):
        store = tmp_path / "store"
        args = _build_parser().parse_args(
            ["bench", "--config", str(SCRIPTS / "study_l2.json"), "--out", str(store)]
        )
        assert callable(args.resolve(args))
        assert not store.exists()


# fields that could only restate or contradict another, and the search
# settings that the protocol fixes; even a value that agrees is refused,
# by the file's own decoder
REMOVED_FIELDS = [
    ("spec", "top_layer_neurons", 32), ("spec", "declared_input", 21),
    ("solver", "energy", 1.0), ("task", "energy", 1.0),
    ("study.search", "energy", 1.0), ("study.task", "energy", 1.0),
    ("study.search", "optimal_sigma0", 0.3), ("study.search", "path_sigma0", 0.1),
    ("study.search", "step_tolerance", 1e-8),
    ("study.search", "alpha_set", [-4.0, -3.0, -2.0, -1.0, 0.0]),
    ("study.search", "subspace_delta", 0.1 * np.pi),
]


@pytest.mark.parametrize("where, key, value", REMOVED_FIELDS,
                         ids=[f"{where}-{key}" for where, key, _ in REMOVED_FIELDS])
def test_removed_field_is_config_error(tmp_path, capsys, where, key, value):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    if where == "spec":
        config.write_text(json.dumps(dict(spec_to_json(default_l2_spec()), **{key: value})))
        argv = ["gen-net", "--spec", str(config)]
    elif where in ("solver", "task"):
        files = {"solver": dict(MICRO_SEARCH), "task": {"n_classes": 4, "samples_per_class": 6}}
        files[where][key] = value
        for name, blob in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(blob))
        argv = ["characterize", "--target", "linear", "--shape", "11",
                "--config", str(tmp_path / "solver.json"), "--task", str(tmp_path / "task.json")]
    else:
        blob = study_blob()
        section = where.split(".")[1]
        blob[section] = dict(blob[section], **{key: value})
        config.write_text(json.dumps(blob))
        argv = ["bench", "--config", str(config)]
    assert main([*argv, "--out", str(out)]) == 1
    error = error_payload(capsys)
    assert error["type"] == "ValueError" and key in error["message"]
    assert not out.exists()


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
        (store / "study_config.json").write_text(json.dumps({"n_networks": n, "seed": seed}))
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
        assert main(["report", "--store", str(store), "--out", str(out)]) == 0
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
            argv = ["report", "--store", str(out)]
        assert main(argv) == 0
        previous = (out / name).read_bytes()
        fail_write_of(name)
        assert main(argv) == 2
        assert (out / name).read_bytes() == previous
        assert not list(out.glob(".*.tmp"))

    @pytest.mark.parametrize("damage", ["truncate", "delete"])
    def test_damaged_network_report_fails(self, tmp_path, capsys, damage):
        store = self.fabricate_store(tmp_path, n=10)
        assert main(["report", "--store", str(store)]) == 0
        previous = (store / "summary.json").read_bytes()
        damaged = store / "network_003" / "report.json"
        if damage == "truncate":
            damaged.write_bytes(damaged.read_bytes()[:40])
        else:
            damaged.unlink()
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "network_003" in error["message"]
        assert "network_002" not in error["message"]
        assert (store / "summary.json").read_bytes() == previous

    def test_interrupted_store_fails(self, tmp_path, capsys):
        # an interrupted run can leave a store without its last networks
        config = tmp_path / "study.json"
        config.write_text(json.dumps(study_blob(n_networks=12)))
        store = tmp_path / "store"
        assert main(["bench", "--config", str(config), "--out", str(store),
                     "--workers", "1"]) == 0
        names = ("summary.json", "correlation.csv", "measures.csv")
        previous = {name: (store / name).read_bytes() for name in names}
        shutil.rmtree(store / "network_010")
        shutil.rmtree(store / "network_011")
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == 2
        message = error_payload(capsys)["message"]
        assert "network_010" in message and "network_011" in message
        assert "network_009" not in message
        for name in names:
            assert (store / name).read_bytes() == previous[name], name

    def test_large_store_reads_in_index_order(self, tmp_path, capsys):
        store = self.fabricate_store(tmp_path, n=1001)
        assert main(["report", "--store", str(store)]) == 0
        expected = [
            json.loads((store / f"network_{i:03d}" / "report.json").read_text())["performance"]
            for i in range(1001)
        ]
        summary = json.loads((store / "summary.json").read_text())
        assert summary["n_networks"] == 1001
        assert summary["performances"] == expected

    def test_seed_flag_is_refused(self, tmp_path, capsys):
        """The seed is the one the store records; there is no flag to restate it."""
        store = self.fabricate_store(tmp_path, n=10)
        out = tmp_path / "rep"
        assert main(["report", "--store", str(store), "--seed", "6", "--out", str(out)]) == 1
        assert not out.exists()
        assert not (store / "summary.json").exists()

    def test_missing_store_is_config_error(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "absent")]) == 1

    def test_store_without_study_config_is_config_error(self, tmp_path, capsys):
        store = self.fabricate_store(tmp_path, n=10)
        (store / "study_config.json").unlink()
        out = tmp_path / "rep"
        assert main(["report", "--store", str(store), "--out", str(out)]) == 1
        assert "study_config.json" in error_payload(capsys)["message"]
        assert not out.exists()
        assert not (store / "summary.json").exists()

    @pytest.mark.parametrize("content", DAMAGED_STUDY_CONFIGS, ids=DAMAGED_IDS)
    def test_damaged_study_config_is_config_error(self, tmp_path, capsys, content):
        store = self.fabricate_store(tmp_path, n=3)
        (store / "study_config.json").write_text(content)
        assert main(["report", "--store", str(store)]) == 1
        error = error_payload(capsys)
        assert error["type"] == "ValueError" and "study_config.json" in error["message"]
        assert not (store / "summary.json").exists()

    @pytest.mark.parametrize("measure, error", [("osep", "ZeroVarianceError"),
                                                ("ossc", "RankDeficientError")])
    def test_constant_measure_is_named(self, tmp_path, capsys, measure, error):
        store = self.fabricate_store(tmp_path, n=10)
        for path in store.glob("network_*/report.json"):
            blob = json.loads(path.read_text())
            blob["measures"][measure] = 0.5
            path.write_text(json.dumps(blob, sort_keys=True))
        assert main(["report", "--store", str(store)]) == 2
        payload = error_payload(capsys)
        assert payload["type"] == error
        assert payload["message"] == f"{measure.upper()} is the same for every network"
        assert not (store / "summary.json").exists()

    def test_permutations_flag_is_refused(self, tmp_path, capsys):
        """The draw count is the one bench used; a store records no other."""
        store = self.fabricate_store(tmp_path, n=10)
        out = tmp_path / "rep"
        assert main(["report", "--store", str(store), "--permutations", "50",
                     "--out", str(out)]) == 1
        assert "unrecognized arguments: --permutations 50" in capsys.readouterr().err
        assert not out.exists()
        assert not (store / "summary.json").exists()
