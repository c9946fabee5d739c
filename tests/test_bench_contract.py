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


@pytest.mark.parametrize("label,m,n", [("zf", 4, 3), ("z12", 24, 18), ("single:empty", 3, 3)])
def test_verify_case_decodes_once_per_trial_per_channel(workloads, label, m, n):
    """The benchmark's tests read decode.msgs_per_channel == VERIFY_TRIALS:
    one sic_decode call per trial for each effective channel."""
    tracer = _import_bench("tracing").Tracer()
    tracer.install()
    try:
        tracer.begin_op(large=max(m, n) > workloads.LARGE_ABOVE)
        verdict = workloads.verify_case(label, m, n, channel_seed=5)
    finally:
        tracer.uninstall()
    assert verdict[2] == "ok"
    names = [span[0] for span in tracer.spans]
    assert names.count("schemes.effective_channel") == 1
    assert names.count("decode.sic_decode") == workloads.VERIFY_TRIALS
    assert tracer.metrics(rounds=1, traced_s=1.0)["decode.msgs_per_channel"] == workloads.VERIFY_TRIALS
