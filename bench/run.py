"""Benchmark of burstyx, end to end and (with --trace 1) layer by layer.

    python3 bench/run.py --workload simulate_mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory, never from an
installed copy. One run measures one workload for at least --seconds,
checks every output, and prints each metric with its unit and, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones in BENCHMARK.json; with
--trace 1 they are the per-layer ones, from a traced run (tracing.py).
The exit code is 0 only when every output was correct. README.md explains
the workloads and what each metric should respond to.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("simulate_mix", "verify_sweep", "closed_forms")
HELD_OUT_SEED = 777  # not used while the benchmark was tuned; see README.md
SETUP_REPEATS = 11
REFERENCE_EVERY_S = 0.05
REFERENCE_NOMINAL_S = 4e-4  # about the fastest the reference ran on a shared 2-vCPU x86_64 host; see README.md
MAX_SPANS = 250_000  # later rounds of a traced run go untraced, to bound memory
END_TO_END = {
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
_SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import burstyx\n"
    "print(time.perf_counter() - t, burstyx.__file__)\n"
)


def import_program():
    """Import burstyx from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import burstyx
    except ImportError as exc:
        raise SystemExit(f"cannot import burstyx from {SRC}: {exc}")
    if not Path(burstyx.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"burstyx was imported from {burstyx.__file__}, not from {SRC}")
    return burstyx


def measure_setup_s() -> float:
    """Median time from a fresh interpreter until `import burstyx` returns.

    The first import is discarded: it may compile bytecode.
    """
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise SystemExit(f"set-up imported burstyx from {path}, not from {SRC}")
        times.append(float(seconds))
    return statistics.median(times[1:])


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_summary = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_summary = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_summary,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


class HostSpeed:
    """Gauges the host's speed during a run with a fixed reference task.

    On a shared host the same code runs tens of percent slower for seconds
    at a time while neighbours are busy, so raw times from runs made minutes
    apart differ by more than any bound worth keeping, whatever statistic is
    taken within a run. The reference is timed between ops, at least every
    REFERENCE_EVERY_S, and each op's time is scaled by REFERENCE_NOMINAL_S
    over the reference's time around it. The reference does what the
    program spends its time on: interpreter loops, dict and str churn and
    small dense solves. It depends on numpy alone, never on the program, so
    a change to the program moves scaled times as it moves raw ones.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._solve = np.linalg.solve
        self._a = rng.standard_normal((24, 24))
        self._b = rng.standard_normal(24)
        self.at = array("d")
        self.seconds = array("d")
        for _ in range(20):  # warm-up
            self._reference()

    def _reference(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(2000):
            s += i * i % 7
        d = {i: (i, str(i)) for i in range(300)}
        for _ in range(20):
            self._solve(self._a, self._b)
        del d
        return time.perf_counter() - t0

    def sample(self) -> None:
        """Time the reference; the fastest of three shrugs off a preemption."""
        self.at.append(time.perf_counter())
        self.seconds.append(min(self._reference() for _ in range(3)))

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= REFERENCE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Nominal over the mean reference time of the samples around [start, end]."""
        before = max(bisect.bisect_right(self.at, start) - 1, 0)
        after = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return 2 * REFERENCE_NOMINAL_S / (self.seconds[before] + self.seconds[after])


@dataclass
class Timings:
    """What a run keeps of its ops: start and seconds by label, not outputs.

    Outputs are checked as soon as an op returns and then dropped, and each
    op adds two floats to an array, so the benchmark's own memory hardly
    grows with the number of rounds.
    """

    host: HostSpeed
    units: Dict[str, int] = field(default_factory=dict)
    untraced: Dict[str, array] = field(default_factory=dict)
    traced: Dict[str, array] = field(default_factory=dict)
    traced_rounds: int = 0
    rounds: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


def run_rounds(workload, seconds: float, tracer=None) -> Timings:
    """Issue whole rounds of ops until `seconds` have passed.

    With a tracer, rounds alternate untraced and traced, starting untraced,
    until the tracer holds MAX_SPANS spans; there are at least two rounds.
    """
    t = Timings(HostSpeed())
    start = time.perf_counter()
    min_rounds = 2 if tracer is not None else 1
    while t.rounds < min_rounds or time.perf_counter() - start < seconds:
        traced = tracer is not None and t.rounds % 2 == 1 and len(tracer.spans) < MAX_SPANS
        times = t.traced if traced else t.untraced
        ops = workload.ops(t.rounds)
        if traced:
            tracer.install()
        try:
            for op in ops:
                if t.host.due():
                    t.host.sample()
                if traced:
                    tracer.begin_op(op.large)
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # a failed op is counted, not fatal
                    out = exc
                dt = time.perf_counter() - t0
                if isinstance(out, Exception):
                    reason = f"{op.label}: {type(out).__name__}: {out}"
                else:
                    reason = op.check(out)
                del out
                if reason:
                    t.failures.append(reason)
                t.attempted += 1
                t.units[op.label] = op.units
                times.setdefault(op.label, array("d")).extend((t0, dt))
        finally:
            if traced:
                tracer.uninstall()
        t.rounds += 1
        t.traced_rounds += traced
    t.host.sample()
    return t


def op_seconds(t: Timings, traced: bool, scaled: bool = True) -> Dict[str, float]:
    """Median time of each op label over the rounds, scaled to nominal host speed.

    Every round issues the same labels, so these medians make up a typical
    round; a stall of the machine during one op does not move them.
    """
    typical = {}
    for label, pairs in (t.traced if traced else t.untraced).items():
        starts, seconds = pairs[::2], pairs[1::2]
        if scaled:
            seconds = [dt * t.host.scale(t0, t0 + dt) for t0, dt in zip(starts, seconds)]
        typical[label] = statistics.median(seconds)
    return typical


def end_to_end_metrics(t: Timings, setup_s: float) -> dict:
    import numpy as np

    typical = op_seconds(t, traced=False)
    latencies = [typical[label] for label in typical if t.units[label]]
    p50, p99 = np.percentile(latencies, [50, 99])
    raw = op_seconds(t, traced=False, scaled=False)
    print(f"{t.rounds} rounds of {len(typical)} ops; latency percentiles over {len(latencies)} per-op medians")
    print(
        f"host speed: reference median {1e3 * statistics.median(t.host.seconds):.4f} ms "
        f"over {len(t.host.seconds)} samples (nominal {1e3 * REFERENCE_NOMINAL_S:.4f} ms); "
        f"unscaled throughput {sum(t.units.values()) / sum(raw.values()):.6g} 1/s"
    )
    return {
        "throughput_per_s": sum(t.units.values()) / sum(typical.values()),
        "op_p50_ms": 1e3 * float(p50),
        "op_p99_ms": 1e3 * float(p99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer_metrics(t: Timings, tracer, workload_name: str) -> dict:
    traced_s = sum(sum(pairs[1::2]) for pairs in t.traced.values())
    metrics = tracer.metrics(t.traced_rounds, traced_s)
    metrics["trace.overhead_frac"] = (
        sum(op_seconds(t, traced=True).values()) / sum(op_seconds(t, traced=False).values()) - 1.0
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload_name}.csv")
    return metrics


def run_all(args) -> int:
    """Run each workload in a process of its own, so peak RSS is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run([sys.executable, __file__, *argv], timeout=900).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    import_program()
    from tracing import Tracer, metric_units
    from workloads import WORKLOADS

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    t = run_rounds(workload, args.seconds, tracer)

    if tracer is None:
        metrics, units = end_to_end_metrics(t, measure_setup_s()), END_TO_END
    else:
        metrics, units = per_layer_metrics(t, tracer, workload.name), metric_units()
    for line in workload.report(op_seconds(t, traced=False)):
        print(line)
    print(f"throughput unit: {workload.unit} per second")
    print(f"failed_frac {len(t.failures) / t.attempted:.6g} ({len(t.failures)} of {t.attempted} ops)")
    for reason in t.failures[:20]:
        print(f"FAILED {reason}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not t.failures,
        "attempted": t.attempted,
        "failed": len(t.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not t.failures else 1


if __name__ == "__main__":
    sys.exit(main())
