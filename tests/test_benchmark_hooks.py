"""The benchmark's hooks into the package resolve.

``perfbench/`` imports some package names and, while it traces, patches
others in place.  A deleted or renamed name would otherwise show only as
a failed benchmark run; here it fails in seconds.  Nothing under
``perfbench/`` is edited.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import tunescope.search as ts_search
from tunescope.targets import default_l1_spec, sthor_network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("workloads", "probes", "tracing")


def test_benchmark_imports_and_tracer_patches_resolve(monkeypatch):
    # the benchmark's modules import one another as top-level modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        modules = {name: importlib.import_module(name) for name in MODULES}
        original = ts_search.maximize
        with modules["tracing"].Tracer().installed():
            assert ts_search.maximize is not original
        assert ts_search.maximize is original
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)


def test_traced_network_keeps_fingerprint_chunk_and_bytes(monkeypatch):
    """The tracer copies a network handle with ``dataclasses.replace``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracing").Tracer()
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)
    network = sthor_network(default_l1_spec(weight_seed=3))
    traced = tracer.network(network)
    assert traced.batch is not network.batch
    assert traced.fingerprint == network.fingerprint
    assert traced.chunk == network.chunk
    matrix = np.random.default_rng(4).standard_normal((70, network.size))
    assert traced.batch(matrix).tobytes() == network.batch(matrix).tobytes()
    assert tracer.rows["targets"] == 70
