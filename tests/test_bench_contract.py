"""The benchmark's call contract: round 0 of each workload passes its checks.

bench/workloads.py calls the program only through public names and checks
every output (golden files, closure gates, verdicts). Running one round of
each workload here makes a renamed attribute or a changed output fail the
test suite, not only a benchmark run, and so does a name the benchmark's
tracer binds. bench/ is imported, never written.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _import_bench(name):
    sys.path.insert(0, str(BENCH_DIR))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH_DIR))


@pytest.fixture(scope="module")
def workloads():
    return _import_bench("workloads")


@pytest.mark.parametrize("name", ["simulate_mix", "verify_sweep", "closed_forms"])
def test_round_zero_passes_every_check(workloads, name):
    ops = workloads.WORKLOADS[name](seed=1).ops(0)
    assert ops
    failures = [(op.label, op.check(op.call())) for op in ops]
    assert [f for f in failures if f[1] is not None] == []


def test_every_traced_binding_resolves():
    """The benchmark's tests getattr every traced binding with no fallback."""
    tracing = _import_bench("tracing")
    missing = [
        (mod_name, attr)
        for bindings in tracing.LAYERS.values()
        for mod_name, attr in bindings
        if not hasattr(importlib.import_module(mod_name), attr)
    ]
    assert missing == []
