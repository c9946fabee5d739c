"""The three benchmark workloads and the correctness checks on their outputs.

Each workload is a closed loop: one caller in one process issues the next
operation only after the previous one returned. Work is issued in rounds;
a round is a fixed list of operations whose inputs come from the workload
seed and the round number. Why each workload exists is in README.md.

The benchmark calls the program only through public names looked up on the
``burstyx`` package (and ``burstyx.cli.main``) at call time, so the tracer
in tracing.py can rebind them.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import burstyx as bx
import burstyx.cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
LARGE_ABOVE = 8  # an op is "large" when max(m, n) exceeds this


@dataclass
class Op:
    """One call into the program. call() is timed; check() is not.

    units is what the op adds to the workload's throughput count. check
    returns None when the output is correct, else a one-line reason.
    """

    label: str
    large: bool
    units: int
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Workload:
    name = ""
    unit = ""  # what throughput_per_s counts

    def __init__(self, seed: int, golden_dir: Path = GOLDEN_DIR) -> None:
        self.seed = seed
        self.golden_dir = golden_dir

    def ops(self, round_index: int) -> List[Op]:
        raise NotImplementedError

    def report(self, typical: Dict[str, float]) -> List[str]:
        """Extra human-readable lines; typical maps op labels to median seconds."""
        return []


# ---------------------------------------------------------------------------
# simulate_mix
# ---------------------------------------------------------------------------

SIM_SLOTS = 100_000
SIM_DECODE_FRACTION = 0.01
CLOSURE_TOL = 0.01
# (m, n, p, closure gated). 4x3 at p=0.9 misses composite_achievable by
# about 15%: the open-regime defect is reported, not gated.
SIM_POINTS = (
    (4, 3, 0.5, True),
    (4, 3, 0.9, False),
    (3, 3, 0.7, True),
    (4, 2, 0.5, True),
)


def closure_gap(result) -> float:
    ref = result.analytic_reference
    return (result.empirical_dof_per_slot - ref) / ref


class SimulateMix(Workload):
    name = "simulate_mix"
    unit = "slots"

    def __init__(self, seed: int, golden_dir: Path = GOLDEN_DIR) -> None:
        super().__init__(seed, golden_dir)
        self.gaps: Dict[str, List[float]] = {}

    def ops(self, round_index: int) -> List[Op]:
        ops = []
        for i, (m, n, p, gated) in enumerate(SIM_POINTS):
            label = f"{m}x{n}@{p}"
            # run_simulation uses streams seed, seed+1 and seed+2.
            run_seed = 10_000 * self.seed + 10 * (len(SIM_POINTS) * round_index + i)

            def call(m=m, n=n, p=p, run_seed=run_seed):
                return bx.run_simulation(
                    bx.Dimensions(m, n), p, SIM_SLOTS, run_seed, decode_fraction=SIM_DECODE_FRACTION
                )

            def check(res, label=label, gated=gated):
                if res.allocation.slots_total() != SIM_SLOTS:
                    return f"{label}: slots_total {res.allocation.slots_total()} != {SIM_SLOTS}"
                gap = closure_gap(res)
                self.gaps.setdefault(label, []).append(gap)
                if gated and abs(gap) > CLOSURE_TOL:
                    return f"{label}: closure gap {gap:+.4%} beyond {CLOSURE_TOL:.0%}"
                return None

            ops.append(Op(label, False, SIM_SLOTS, call, check))
        return ops

    def report(self, typical):
        lines = []
        for m, n, p, gated in SIM_POINTS:
            values = self.gaps.get(f"{m}x{n}@{p}")
            if values:
                note = "gated at 1%" if gated else "reported, not gated"
                lines.append(
                    f"closure {m}x{n}@{p} gap to composite_achievable: median "
                    f"{statistics.median(values):+.4%} over {len(values)} runs ({note})"
                )
        return lines


# ---------------------------------------------------------------------------
# verify_sweep
# ---------------------------------------------------------------------------

VERIFY_SHAPES = tuple((m, n) for m in range(1, 9) for n in range(1, 9)) + (
    (24, 18),
    (18, 24),
    (40, 30),
    (30, 40),
)
SINGLE_TOPOLOGIES = tuple(t for t in sorted(bx.TOPOLOGIES) if t != "empty")
CONSTRUCTIONS = ("z12", "z34", "zf", "ia_block", "ia_refined") + tuple(
    f"single:{t}" for t in SINGLE_TOPOLOGIES
)
VERIFY_TRIALS = 2
CHANNEL_SEED_OFFSET = 1_000_000


def build_construction(label: str, dims):
    if label in ("z12", "z34"):
        return bx.build_z_pair_code(dims, label)
    if label == "zf":
        return bx.build_zf_code(dims)
    if label == "ia_block":
        return bx.build_block_ia_precoder(dims)
    if label == "ia_refined":
        return bx.build_refined_ia_precoder(dims)
    return bx.build_single_topology_code(label.split(":", 1)[1], dims)


def verify_case(label: str, m: int, n: int, channel_seed: int) -> list:
    """Build, draw channels and verify, as `burstyx verify` does for one case.

    Returns the verdict [label, shape, "skip", reason] for an infeasible
    construction, else [label, shape, "ok" or "fail", dof, total_symbols].
    """
    dims = bx.Dimensions(m, n)
    shape = f"{m}x{n}"
    try:
        scheme = build_construction(label, dims)
    except ValueError as exc:
        return [label, shape, "skip", str(exc)]
    channels = bx.sample_channels(dims, channel_seed)
    res = bx.verify_decodability(channels, scheme, trials=VERIFY_TRIALS, seed=channel_seed)
    return [label, shape, "ok" if res.ok else "fail", res.achieved_dof, scheme.total_symbols]


def golden_verdict(verdict: list) -> list:
    """The seed-independent part of a verdict, as stored in the golden file."""
    return verdict[:4]


class VerifySweep(Workload):
    name = "verify_sweep"
    unit = "checks"

    def __init__(self, seed: int, golden_dir: Path = GOLDEN_DIR) -> None:
        super().__init__(seed, golden_dir)
        verdicts = json.loads((golden_dir / "verify_verdicts.json").read_text())
        self.golden = {(v[0], v[1]): v for v in verdicts}

    def ops(self, round_index: int) -> List[Op]:
        channel_seed = CHANNEL_SEED_OFFSET + 1000 * self.seed + round_index
        ops = []
        for m, n in VERIFY_SHAPES:
            for label in CONSTRUCTIONS:
                key = (label, f"{m}x{n}")
                expected = self.golden.get(key)
                # Skips are counted as attempted ops but not as checks.
                units = 0 if expected is not None and expected[2] == "skip" else 1

                def call(label=label, m=m, n=n):
                    return verify_case(label, m, n, channel_seed)

                def check(verdict, expected=expected):
                    if verdict[2] == "fail" or (verdict[2] == "ok" and verdict[3] != verdict[4]):
                        return f"{verdict[0]} {verdict[1]}: {verdict[2]} dof={verdict[3]} of {verdict[4]}"
                    if golden_verdict(verdict) != expected:
                        return f"verdict {golden_verdict(verdict)} differs from golden {expected}"
                    return None

                ops.append(Op(f"{label} {m}x{n}", max(m, n) > LARGE_ABOVE, units, call, check))
        return ops


# ---------------------------------------------------------------------------
# closed_forms
# ---------------------------------------------------------------------------

CURVES = (("p", "0.5"), ("p", "0.75"), ("p", "0.9"), ("r", "0.3"), ("r", "0.5"), ("r", "0.8"))
CURVES_STEP = "0.001"
CURVES_SERIES = "dof,ub1,ub2,lb,baseline"
TABLE_SIZES = range(1, 13)
TABLE_PS = ("0.2", "0.5", "0.8")
GAP_STEP = 0.001


def curves_argv(sweep: str, fixed: str) -> List[str]:
    return ["curves", "--sweep", sweep, "--fixed", fixed, "--step", CURVES_STEP, "--series", CURVES_SERIES]


def table_argv(m: int, n: int, p: str) -> List[str]:
    return ["table", "--m", str(m), "--n", str(n), "--p", p, "--json"]


def run_cli(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = burstyx.cli.main(argv)
    return code, buf.getvalue()


def gap_record(result) -> dict:
    return {"step": GAP_STEP, "r": result.r, "p": result.p, "gap": result.gap}


def curves_file(sweep: str, fixed: str) -> str:
    return f"curves_{sweep}_{fixed}.csv.gz"


def read_gz(path: Path) -> str:
    return gzip.decompress(path.read_bytes()).decode()


class ClosedForms(Workload):
    name = "closed_forms"
    unit = "cli_calls"

    def __init__(self, seed: int, golden_dir: Path = GOLDEN_DIR) -> None:
        super().__init__(seed, golden_dir)
        self.golden_curves = {job: read_gz(golden_dir / curves_file(*job)) for job in CURVES}
        self.golden_table = json.loads(read_gz(golden_dir / "table.json.gz"))
        self.golden_gap = json.loads((golden_dir / "max_gap_search.json").read_text())

    def ops(self, round_index: int) -> List[Op]:
        ops = []
        for job in CURVES:
            ops.append(self._cli_op(f"curves {job[0]} {job[1]}", curves_argv(*job), self.golden_curves[job]))
        for m in TABLE_SIZES:
            for n in TABLE_SIZES:
                for p in TABLE_PS:
                    expected = self.golden_table[f"{m} {n} {p}"]
                    ops.append(self._cli_op(f"table {m}x{n}@{p}", table_argv(m, n, p), expected))

        def gap_check(result):
            record = gap_record(result)
            return None if record == self.golden_gap else f"max_gap_search {record} != golden {self.golden_gap}"

        ops.append(Op("max_gap_search", False, 1, lambda: bx.max_gap_search(GAP_STEP), gap_check))
        random.Random(1000 * self.seed + round_index).shuffle(ops)
        return ops

    @staticmethod
    def _cli_op(label: str, argv: List[str], expected: str) -> Op:
        def check(output):
            code, text = output
            if code != 0:
                return f"{label}: exit code {code}"
            if text != expected:
                return f"{label}: output differs from golden"
            return None

        return Op(label, False, 1, lambda: run_cli(argv), check)

    def report(self, typical):
        curves = [label for label in typical if label.startswith("curves")]
        tables = [label for label in typical if label.startswith("table")]
        rows = sum(self.golden_curves[tuple(label.split()[1:])].count("\n") - 1 for label in curves)
        return [
            f"curves_rows_per_s {rows / sum(typical[label] for label in curves):.1f} 1/s",
            f"table_calls_per_s {len(tables) / sum(typical[label] for label in tables):.1f} 1/s",
        ]


WORKLOADS = {w.name: w for w in (SimulateMix, VerifySweep, ClosedForms)}
