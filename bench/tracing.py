"""Span tracing of burstyx's layers, installed from outside the package.

A module that does ``from .linalg import solve_exact`` calls its own
binding of the name, so wrapping ``burstyx.linalg.solve_exact`` would miss
every call from ``burstyx.decode``. The tracer therefore rebinds each public
name in every module that calls it, and rebinds the same names on the
``burstyx`` package itself, through which the benchmark makes its own calls.
``uninstall`` puts the original objects back.

A span is (name, start, end, parent, op, ok). Spans are kept in memory; the
benchmark aggregates them into per-layer metrics and writes them out when
the run ends. Self time is a span's duration minus the time its direct
child spans cover.
"""

from __future__ import annotations

import csv
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Layer name -> the (module, attribute) bindings through which callers
# reach it. Bindings missing from the program under test are skipped, so a
# refactor that stops calling a function shows as zero calls.
_SIM_BUILDERS = ("build_f_fallback", "build_single_topology_code", "build_z_pair_code", "build_zf_code")
_PKG_BUILDERS = (
    "build_block_ia_precoder",
    "build_refined_ia_precoder",
    "build_single_topology_code",
    "build_z_pair_code",
    "build_zf_code",
)
_SERIES_FUNCS = ("normalized_dof", "upper_bound_a", "upper_bound_b", "lower_bound", "baseline_normalized")

LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "channel.sample_topology_indices": [("burstyx.sim", "sample_topology_indices")],
    "channel.sample_channels": [("burstyx", "sample_channels"), ("burstyx.sim", "sample_channels")],
    "linalg.solve_exact": [("burstyx.decode", "solve_exact")],
    "linalg.carriers": [
        ("burstyx.schemes", name)
        for name in ("pseudo_inverse", "null_space_basis", "alignment_block", "paired_alignment")
    ],
    "schemes.effective_channel": [("burstyx.sim", "effective_channel"), ("burstyx.decode", "effective_channel")],
    "builders.build": [("burstyx", name) for name in _PKG_BUILDERS]
    + [("burstyx.sim", name) for name in _SIM_BUILDERS],
    "decode.sic_decode": [("burstyx.sim", "sic_decode"), ("burstyx.decode", "sic_decode")],
    "decode.verify_decodability": [("burstyx", "verify_decodability")],
    "sim.run_simulation": [("burstyx", "run_simulation")],
    "sim.schedule_codes": [("burstyx.sim", "schedule_codes")],
    # dof_profile reaches the series through the formulas module; the curves
    # command reaches them through the CLI's series table (see _SERIES_TABLE).
    "formulas.series": [("burstyx.formulas", name) for name in _SERIES_FUNCS],
    "formulas.dof_profile": [("burstyx.cli", "dof_profile")],
    "formulas.max_gap_search": [("burstyx", "max_gap_search")],
    "cli.main": [("burstyx.cli", "main")],
}
_SERIES_TABLE = ("burstyx.cli", "_SERIES", "formulas.series")

# Layers whose stats are also split by input size (see Tracer.begin_op).
SPLIT_LAYERS = (
    "builders.build",
    "channel.sample_channels",
    "decode.verify_decodability",
    "schemes.effective_channel",
    "linalg.carriers",
    "decode.sic_decode",
    "linalg.solve_exact",
)
STATS = {"calls": "count", "self_s": "s", "ms_per_call": "ms", "wall_frac": "frac"}
SPLIT_STATS = ("calls", "self_s", "ms_per_call")
DERIVED = {"decode.msgs_per_channel": "count", "decode.ok_ratio": "frac", "trace.overhead_frac": "frac"}


def _layer_metrics():
    """(metric name, layer, size or "", stat) for every per-layer stat."""
    for layer in LAYERS:
        for stat in STATS:
            yield f"{layer}.{stat}", layer, "", stat
    for layer in SPLIT_LAYERS:
        for stat in SPLIT_STATS:
            for size in ("small", "large"):
                yield f"{layer}.{stat}.{size}", layer, size, stat


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    units = {name: STATS[stat] for name, _layer, _size, stat in _layer_metrics()}
    units.update(DERIVED)
    return units


class Tracer:
    """Records spans while installed; aggregates them into per-layer metrics."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.op_large: List[bool] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._saved_series: Dict[str, Callable] = {}

    # -- recording -------------------------------------------------------

    def begin_op(self, large: bool) -> None:
        """Start a benchmark operation; its spans count as small or large."""
        self.op_large.append(large)

    def wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack, op_large = self.spans, self._stack, self.op_large

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, len(op_large) - 1, ok)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, bindings in LAYERS.items():
            for mod_name, attr in bindings:
                mod = importlib.import_module(mod_name)
                if hasattr(mod, attr):
                    original = getattr(mod, attr)
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(original, layer))
        mod_name, attr, layer = _SERIES_TABLE
        table = getattr(importlib.import_module(mod_name), attr, None)
        if isinstance(table, dict):
            self._saved_series = dict(table)
            for key, fn in self._saved_series.items():
                table[key] = self.wrap(fn, layer)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        if self._saved_series:
            mod_name, attr, _layer = _SERIES_TABLE
            getattr(importlib.import_module(mod_name), attr).update(self._saved_series)
            self._saved_series = {}

    # -- reporting -------------------------------------------------------

    def metrics(self, rounds: int, traced_s: float) -> Dict[str, float]:
        """Per-layer metrics as means per traced round, except the overhead.

        traced_s is the op time of all traced rounds together; wall_frac is a
        layer's outermost span time over it. trace.overhead_frac is left to
        the caller, which alone has the untraced rounds to compare with.
        """
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _ok in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        incl_s: Dict[Tuple[str, str], float] = defaultdict(float)
        ok_decodes = 0
        for idx, (name, start, end, _parent, op, ok) in enumerate(self.spans):
            size = "large" if self.op_large[op] else "small"
            outer = not self._has_ancestor(idx, name)
            for key in ((name, ""), (name, size)):
                calls[key] += 1
                self_s[key] += end - start - child[idx]
                if outer:
                    incl_s[key] += end - start
            if name == "decode.sic_decode" and ok:
                ok_decodes += 1

        out: Dict[str, float] = {}
        for metric, layer, size, stat in _layer_metrics():
            n = calls[layer, size]
            if stat == "calls":
                out[metric] = n / rounds
            elif stat == "self_s":
                out[metric] = self_s[layer, size] / rounds
            elif stat == "ms_per_call":
                out[metric] = 1e3 * incl_s[layer, size] / n if n else 0.0
            else:
                out[metric] = incl_s[layer, ""] / traced_s
        decodes = calls["decode.sic_decode", ""]
        channels = calls["schemes.effective_channel", ""]
        out["decode.msgs_per_channel"] = decodes / channels if channels else 0.0
        out["decode.ok_ratio"] = ok_decodes / decodes if decodes else 0.0
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "op", "ok"))
            for idx, (name, start, end, parent, op, ok) in enumerate(self.spans):
                out.writerow((idx, name, f"{start:.9f}", f"{end:.9f}", parent, op, int(ok)))
