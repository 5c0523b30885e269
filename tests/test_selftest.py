"""The benchmark's self-test must still count its corrupted graphs as
failures now that a graph's per-point data are numpy arrays.

perfbench/selftest.py is loaded read-only from its file, like the tracer
in test_tracer.py; its sibling modules (run, tracer, workloads, ...) are
imported as top-level modules, so they are dropped from sys.modules again
afterwards.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def selftest(monkeypatch):
    # importing run.py pins the BLAS thread variables; undo that afterwards
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_selftest",
                                                  PERFBENCH / "selftest.py")
    mod = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(mod)
        yield mod
    finally:
        for name in set(sys.modules) - before:
            if Path(getattr(sys.modules[name], "__file__", None) or ".").parent == PERFBENCH:
                del sys.modules[name]


def test_graph_cases_are_judged_as_labelled(selftest):
    # the generator is consumed lazily, as in selftest.main: the clean case
    # is checked before the "moved successor" case writes into
    # g.successor[:], which for an array is a view of the clean graph
    seen = []
    for label, wl, item, corrupted in selftest._graph_cases():
        seen.append(label)
        assert bool(wl.check(item)) == corrupted, label
    assert len(seen) == 8
