"""Slot scheduling over sampled topology sequences and Monte Carlo runs.

The scheduler is count driven: given how many slots of each topology a
window contains, it greedily forms the most efficient supported blocks.
With min/max above 2/3 it first builds five-slot groups (one of each
one-off-link slot plus one all-links slot), then pairs leftover one-off
slots, then codes the rest in isolation. Between 1/2 and 2/3 it skips the
five-slot groups; at or below 1/2 single-slot codes are already optimal.

run_simulation samples everything from three decoupled Philox streams
(channels, topologies, messages), schedules the realized counts, decodes a
configurable fraction of blocks of each kind end to end, and reports the
empirical per-slot symbol rate against composite_achievable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from .builders import (
    build_f_fallback,
    build_single_topology_code,
    build_z_pair_code,
    build_zf_code,
)
from .channel import (
    Dimensions,
    TOPOLOGIES,
    Topology,
    count_topologies,
    sample_channels,
    sample_topology_indices,
)
from .decode import sic_decode
from .formulas import composite_achievable
from .schemes import effective_channel

__all__ = ["Allocation", "schedule_codes", "run_simulation", "SimResult"]


def _standalone_full_supported(m: int, n: int) -> bool:
    mn, mx = min(m, n), max(m, n)
    return 3 * mn <= 2 * mx or (m == n and m % 3 == 0)


@dataclass
class Allocation:
    """How a window of counted slots is carved into code blocks.

    singles counts one-slot codes per topology (the all-links entry uses
    the fallback construction when f_fallback is set). leftover counts
    slots no code runs on, which is only ever the all-off topology.
    """

    zf_blocks: int = 0
    z12_blocks: int = 0
    z34_blocks: int = 0
    singles: Dict[str, int] = field(default_factory=dict)
    leftover: Dict[str, int] = field(default_factory=dict)
    f_fallback: bool = False

    def slots_used(self) -> int:
        return (
            5 * self.zf_blocks
            + 2 * self.z12_blocks
            + 2 * self.z34_blocks
            + sum(self.singles.values())
        )

    def slots_total(self) -> int:
        return self.slots_used() + sum(self.leftover.values())


def _normalize_hist(
    hist: Mapping[Union[str, Topology], int]
) -> Dict[str, int]:
    out = {name: 0 for name in TOPOLOGIES}
    for key, count in hist.items():
        name = key.name if isinstance(key, Topology) else key
        if name not in out:
            raise ValueError(f"unknown topology {name!r}")
        if count < 0:
            raise ValueError("topology counts must be non-negative")
        out[name] += int(count)
    return out


def schedule_codes(
    hist: Mapping[Union[str, Topology], int], dims: Dimensions
) -> Allocation:
    """Allocate counted slots to code blocks for the given shape.

    The link-on probability plays no part: with counts in hand the greedy
    choice is the same for every p (five-slot groups strictly dominate what
    their slots would earn separately, and pairs dominate singles).
    """
    counts = _normalize_hist(hist)
    m, n = dims.m, dims.n
    mn, mx = min(m, n), max(m, n)
    alloc = Allocation()
    alloc.leftover["empty"] = counts["empty"]

    pair_regime = 2 * mn > mx
    zf_regime = 3 * mn > 2 * mx

    remaining = dict(counts)
    if zf_regime:
        block = min(
            remaining["z1"],
            remaining["z2"],
            remaining["z3"],
            remaining["z4"],
            remaining["f"],
        )
        alloc.zf_blocks = block
        for name in ("z1", "z2", "z3", "z4", "f"):
            remaining[name] -= block
    if pair_regime:
        alloc.z12_blocks = min(remaining["z1"], remaining["z2"])
        remaining["z1"] -= alloc.z12_blocks
        remaining["z2"] -= alloc.z12_blocks
        alloc.z34_blocks = min(remaining["z3"], remaining["z4"])
        remaining["z3"] -= alloc.z34_blocks
        remaining["z4"] -= alloc.z34_blocks

    for name in TOPOLOGIES:
        if name == "empty":
            continue
        if remaining[name]:
            alloc.singles[name] = remaining[name]
    if alloc.singles.get("f") and not _standalone_full_supported(m, n):
        alloc.f_fallback = True

    assert alloc.slots_total() == sum(counts.values())
    return alloc


@dataclass
class SimResult:
    m: int
    n: int
    p: float
    n_slots: int
    seed: int
    decode_fraction: float
    decoded_symbols: int
    empirical_dof_per_slot: float
    analytic_reference: float
    decodes_run: int
    allocation: Allocation

    def to_dict(self) -> Dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_simulation(
    dims: Dimensions,
    p: float,
    n: int,
    seed: int,
    decode_fraction: float = 0.01,
    rel_tol: float = 1e-6,
) -> SimResult:
    """Sample a window of n slots, schedule it, and decode spot checks.

    Channels are drawn once from stream seed, topologies from seed + 1 and
    messages from seed + 2, so runs are reproducible and the three sources
    never interact. Blocks of one kind share the same effective channel, so
    each kind is decoded ceil(count * decode_fraction) times (at least
    once) with fresh random messages. The messages of a kind are one batch,
    a (length, n_dec) array per variable decoded by one sic_decode call;
    every message is still checked on its own, and a failed decode raises.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability p must lie in [0, 1]")
    if not 0.0 <= decode_fraction <= 1.0:
        raise ValueError("decode_fraction must lie in [0, 1]")

    channels = sample_channels(dims, seed)
    indices = sample_topology_indices(p, n, seed + 1)
    alloc = schedule_codes(count_topologies(indices), dims)

    kinds: List[Tuple[object, int]] = []
    if alloc.zf_blocks:
        kinds.append((build_zf_code(dims), alloc.zf_blocks))
    if alloc.z12_blocks:
        kinds.append((build_z_pair_code(dims, "z12"), alloc.z12_blocks))
    if alloc.z34_blocks:
        kinds.append((build_z_pair_code(dims, "z34"), alloc.z34_blocks))
    for name, count in sorted(alloc.singles.items()):
        if name == "f" and alloc.f_fallback:
            kinds.append((build_f_fallback(dims), count))
        else:
            kinds.append((build_single_topology_code(name, dims), count))

    decoded_symbols = 0
    decodes_run = 0
    rng = np.random.Generator(np.random.Philox(seed + 2))
    for scheme, count in kinds:
        decoded_symbols += scheme.total_symbols * count
        if scheme.total_symbols == 0:
            continue
        eff = effective_channel(channels, scheme)
        n_dec = max(1, math.ceil(count * decode_fraction))
        # Row i holds message i, its variables side by side: the draws a
        # message-by-message loop would make, in the same order.
        draws = rng.standard_normal((n_dec, scheme.total_symbols))
        x_true = {}
        off = 0
        for v in scheme.variables:
            x_true[v.name] = draws[:, off : off + v.length].T
            off += v.length
        decoded, _metrics = sic_decode(eff, scheme.steps, x_true, rel_tol)
        for v in scheme.variables:
            err = np.linalg.norm(decoded[v.name] - x_true[v.name], axis=0)
            scale = np.maximum(1.0, np.linalg.norm(x_true[v.name], axis=0))
            if np.any(err / scale > rel_tol):
                raise RuntimeError(
                    f"scheme {scheme.name} failed decode spot check "
                    f"on variable {v.name!r}"
                )
        decodes_run += n_dec

    return SimResult(
        m=dims.m,
        n=dims.n,
        p=p,
        n_slots=n,
        seed=seed,
        decode_fraction=decode_fraction,
        decoded_symbols=decoded_symbols,
        empirical_dof_per_slot=decoded_symbols / n,
        analytic_reference=composite_achievable(dims.m, dims.n, p),
        decodes_run=decodes_run,
        allocation=alloc,
    )
