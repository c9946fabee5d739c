"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import gzip
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import burstyx.cli  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_names_match_benchmark_json(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert len(SPEC["end_to_end"]) <= 16 and len(SPEC["per_layer"]) <= 128
    assert [m["name"] for m in spec] == list(result["metrics"])
    for entry in spec:
        assert NAME.fullmatch(entry["name"]) and len(entry["name"]) <= 64
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert isinstance(result["metrics"][entry["name"]]["value"], float)


def test_metric_lists_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.metric_units())


def _bindings():
    found = {}
    for bindings in tracing.LAYERS.values():
        for mod_name, attr in bindings:
            mod = sys.modules[mod_name]
            found[(mod_name, attr)] = getattr(mod, attr)
    for key, fn in burstyx.cli._SERIES.items():
        found[("_SERIES", key)] = fn
    return found


def test_tracer_sees_calls_and_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(before[key] is not value for key, value in _bindings().items())
        tracer.begin_op(large=False)
        w.verify_case("zf", 4, 3, channel_seed=5)
        tracer.begin_op(large=True)
        w.verify_case("z12", 24, 18, channel_seed=5)
        tracer.begin_op(large=False)
        w.run_cli(w.table_argv(4, 3, "0.5"))
        w.run_cli(["curves", "--sweep", "p", "--fixed", "0.75", "--step", "0.25"])
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    metrics = tracer.metrics(rounds=1, traced_s=1.0)
    for layer in ("decode.sic_decode", "linalg.solve_exact", "schemes.effective_channel", "linalg.carriers"):
        assert metrics[f"{layer}.calls.small"] > 0 and metrics[f"{layer}.calls.large"] > 0
    assert metrics["decode.msgs_per_channel"] == w.VERIFY_TRIALS
    assert metrics["decode.ok_ratio"] == 1.0
    assert metrics["formulas.dof_profile.calls"] == 1
    assert metrics["formulas.series.calls"] > 5  # curves plus the profile's own


def _flip_one_byte(text: str, index: int) -> str:
    return text[:index] + chr(ord(text[index]) ^ 1) + text[index + 1 :]


def _op(workload, label):
    return next(op for op in workload.ops(0) if op.label == label)


def test_closed_forms_outputs_match_golden_and_one_byte_is_caught():
    workload = w.ClosedForms(seed=1)
    for label in ("curves p 0.75", "table 4x3@0.5"):
        op = _op(workload, label)
        code, text = op.call()
        assert op.check((code, text)) is None
        assert op.check((code, _flip_one_byte(text, len(text) // 2))) is not None


def test_perturbed_golden_file_is_caught(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(w.GOLDEN_DIR, golden)
    path = golden / w.curves_file("r", "0.5")
    text = gzip.decompress(path.read_bytes()).decode()
    path.write_bytes(gzip.compress(_flip_one_byte(text, 100).encode(), mtime=0))
    op = _op(w.ClosedForms(seed=1, golden_dir=golden), "curves r 0.5")
    assert op.check(op.call()) is not None


def test_verify_verdicts_match_golden_and_a_changed_dof_is_caught():
    workload = w.VerifySweep(seed=1)
    op = _op(workload, "ia_refined 4x3")
    verdict = op.call()
    assert verdict[2:] == ["ok", 26, 26]
    assert op.check(verdict) is None
    assert op.check(verdict[:3] + [25, 26]) is not None
    skip = _op(workload, "zf 4x2")
    assert skip.units == 0 and skip.check(skip.call()) is None


def test_closure_gate_fails_a_gated_point_only():
    ops = w.SimulateMix(seed=1).ops(0)
    result = ops[0].call()
    assert ops[0].check(result) is None
    result.empirical_dof_per_slot = 0.98 * result.analytic_reference
    assert "closure gap" in ops[0].check(result)
    open_point = ops[1]
    assert open_point.label == "4x3@0.9"
    result = open_point.call()
    assert abs(w.closure_gap(result)) > 0.1  # the known open-regime shortfall
    assert open_point.check(result) is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "closed_forms", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
