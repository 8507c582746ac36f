"""The benchmark's hooks into the package resolve.

``perfbench/`` imports some package names and, while it traces, patches
others in place.  A deleted or renamed name would otherwise show only as
a failed benchmark run; here it fails in seconds.  Nothing under
``perfbench/`` is edited.
"""

import importlib
import sys
from pathlib import Path

import tunescope.search as ts_search

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
