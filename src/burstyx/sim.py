"""Slot scheduling over sampled topology sequences and Monte Carlo runs.

The scheduler is count driven: given how many slots of each topology a
window contains, it greedily forms the most efficient supported blocks.
With min/max above 2/3 it first builds five-slot groups (one of each
one-off-link slot plus one all-links slot), then pairs leftover one-off
slots, then codes the rest in isolation. Between 1/2 and 2/3 it skips the
five-slot groups; at or below 1/2 single-slot codes are already optimal.

run_simulation draws the channels, the window's topology histogram (one
multinomial draw; the scheduler reads nothing else) and the spot-check
messages from three independent Philox streams, schedules the realized
counts, decodes a configurable fraction of blocks of each kind end to end,
and reports the empirical per-slot symbol rate against
composite_achievable.
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
    sample_channels,
    sample_topology_counts,
    sample_topology_indices,
)
from .decode import sic_decode
from .formulas import composite_achievable
from .schemes import effective_channel

__all__ = [
    "Allocation",
    "schedule_codes",
    "run_simulation",
    "SimResult",
    # Not called here: the benchmark's tracer and its tests resolve the
    # per-slot sampler through this module.
    "sample_topology_indices",
]


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

    Channels are drawn from sample_channels(dims, seed). The topology
    histogram (sample_topology_counts) and the messages come from the two
    children of SeedSequence(seed), so a run is reproducible and none of
    its streams is another seed's stream. The kinds' codes come from the
    builders' per-shape caches, and all kinds share the draw's memoized
    bases. Blocks of one kind share the same effective channel, so each
    kind is decoded ceil(count * decode_fraction) times (at least once)
    with fresh random messages. The messages of a
    kind are one batch, a (length, n_dec) array per variable decoded by one
    sic_decode call; every variable of every message is still held to
    rel_tol on its own, and a failed (or non-finite) decode raises.
    Raises ValueError unless n is an integer in [1, 2**63).
    """
    if not (isinstance(n, (int, np.integer)) and 0 < n < 2**63):
        raise ValueError("n must be an integer in [1, 2**63)")
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability p must lie in [0, 1]")
    if not 0.0 <= decode_fraction <= 1.0:
        raise ValueError("decode_fraction must lie in [0, 1]")

    channels = sample_channels(dims, seed)
    topo_seq, msg_seq = np.random.SeedSequence(seed).spawn(2)
    alloc = schedule_codes(sample_topology_counts(p, n, topo_seq), dims)

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
    rng = np.random.Generator(np.random.Philox(msg_seq))
    for scheme, count in kinds:
        decoded_symbols += scheme.total_symbols * count
        if scheme.total_symbols == 0:
            continue
        eff = effective_channel(channels, scheme)
        n_dec = max(1, math.ceil(count * decode_fraction))
        # Column i holds message i, its variables stacked in eff's column
        # order: the draws a message-by-message loop would make, in order.
        x = rng.standard_normal((n_dec, scheme.total_symbols)).T
        x_true = {name: x[blk] for name, blk in eff.col_blocks.items()}
        decoded, _metrics = sic_decode(eff, scheme.steps, x_true, rel_tol)
        # Squared per-variable norms of every message, (variables, n_dec).
        starts = [blk.start for blk in eff.col_blocks.values()]
        err_sq = np.add.reduceat((eff.concat(decoded) - x) ** 2, starts)
        x_sq = np.add.reduceat(x**2, starts)
        failed = ~(np.sqrt(err_sq / np.maximum(1.0, x_sq)) <= rel_tol)
        if failed.any():
            name = eff.var_order[int(np.argmax(failed.any(axis=1)))]
            raise RuntimeError(
                f"scheme {scheme.name} failed decode spot check "
                f"on variable {name!r}"
            )
        decodes_run += n_dec

    return SimResult(
        m=dims.m,
        n=dims.n,
        p=p,
        n_slots=int(n),
        seed=seed,
        decode_fraction=decode_fraction,
        decoded_symbols=decoded_symbols,
        empirical_dof_per_slot=decoded_symbols / n,
        analytic_reference=composite_achievable(dims.m, dims.n, p),
        decodes_run=decodes_run,
        allocation=alloc,
    )
