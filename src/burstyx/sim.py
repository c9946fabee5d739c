"""Slot scheduling over counted topologies, and Monte Carlo runs.

A code kind is a code of builders.CODES that the scheduler may use; a
block of it occupies the catalogue entry's slot topologies. _KINDS lists
the kinds in priority order, each with its slot multiset: the five-slot zf
code, the two pair codes, then the one-slot codes in name order, so the
all-links fallback comes right after the standalone all-links code.
schedule_codes walks the list once over a window's topology histogram and
gives each kind as many blocks as the remaining counts allow. A kind
exists at a shape exactly when its builder returns there, so the shape
rules (antenna-ratio thresholds, the all-links special cases) live in the
builders alone; which kinds exist is memoized per shape.

run_simulation draws the channels, the window's topology histogram (one
multinomial draw; the scheduler reads nothing else) and the spot-check
messages from three independent Philox streams, schedules the realized
counts, computes the bases of every scheduled kind's carriers with one
stacked SVD per basis kind (schemes.fill_bases), factors every scheduled
kind's receivers in one stacked pass, decodes a configurable fraction of
blocks of each kind end to end, and reports the empirical per-slot
symbol rate against composite_achievable.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Mapping, Tuple, Union

import numpy as np

from .builders import (
    _SHAPE_CACHE,
    CODES,
    build_f_fallback,
    build_single_topology_code,
    build_z_pair_code,
    build_zf_code,
)
from .channel import (
    Dimensions,
    TOPOLOGIES,
    Topology,
    _check_count,
    sample_channels,
    sample_topology_counts,
    sample_topology_indices,
)
# sic_decode is bound under its old name, which the benchmark's tracer looks up here.
from .decode import factor_receivers, reconstruction_error, sic_decode
from .formulas import composite_achievable
from .schemes import effective_channel, fill_bases

__all__ = [
    "Allocation",
    "schedule_codes",
    "run_simulation",
    "SimResult",
    # Not called here: the benchmark's tracer and its tests resolve the
    # per-slot sampler and these builders through this module.
    "sample_topology_indices",
    "build_f_fallback",
    "build_single_topology_code",
    "build_z_pair_code",
    "build_zf_code",
]

# Each kind's slot multiset, in priority order. The order is also the
# decode order, which fixes each kind's spot-check messages.
_KINDS: Dict[str, Mapping[str, int]] = {
    name: Counter(CODES[name].slots)
    for name in ("zf", "z12", "z34", *sorted(k for k, c in CODES.items() if len(c.slots) == 1 and k != "empty"))
}


@lru_cache(maxsize=_SHAPE_CACHE)
def _kinds_built(dims: Dimensions, builds: Tuple[Tuple[str, Callable], ...]) -> FrozenSet[str]:
    """The names of the (name, build) pairs whose build returns at dims.

    A builder's cache does not keep its ValueError, so without this memo a
    kind that does not exist at a shape would be built, and raise, on every
    schedule. The key holds the builds themselves, so the memo follows the
    catalogue if an entry is replaced.
    """
    built = set()
    for name, build in builds:
        try:
            build(dims)
        except ValueError:
            continue
        built.add(name)
    return frozenset(built)


@dataclass
class Allocation:
    """How a window of counted slots is carved into code blocks.

    blocks counts the blocks of each scheduled kind, in scheduling order;
    a kind with no block is absent. leftover counts slots no code runs on,
    which is only ever the all-off topology.
    """

    blocks: Dict[str, int] = field(default_factory=dict)
    leftover: Dict[str, int] = field(default_factory=dict)

    def slots_total(self) -> int:
        used = sum(len(CODES[k].slots) * c for k, c in self.blocks.items())
        return used + sum(self.leftover.values())


def _normalize_hist(hist: Mapping[Union[str, Topology], int]) -> Dict[str, int]:
    out = {name: 0 for name in TOPOLOGIES}
    for key, count in hist.items():
        name = key.name if isinstance(key, Topology) else key
        if name not in out:
            raise ValueError(f"unknown topology {name!r}")
        out[name] += _check_count(count, "a topology count")
    return out


def schedule_codes(hist: Mapping[Union[str, Topology], int], dims: Dimensions) -> Allocation:
    """Allocate counted slots to code blocks for the given shape.

    Each kind, in priority order, takes as many whole blocks as the slots
    the kinds before it left allow, if its builder returns at this shape
    (memoized per shape, so a builder that raises runs once, not on every
    call).
    The link-on probability plays no part: with counts in hand the greedy
    choice is the same for every p (five-slot blocks strictly dominate what
    their slots would earn separately, and pairs dominate one-slot codes).
    """
    counts = _normalize_hist(hist)
    remaining = dict(counts)
    alloc = Allocation()
    existing = _kinds_built(dims, tuple((name, CODES[name].build) for name in _KINDS))
    for name, uses in _KINDS.items():
        blocks = min(remaining[t] // u for t, u in uses.items())
        if blocks == 0 or name not in existing:
            continue
        alloc.blocks[name] = blocks
        for t, u in uses.items():
            remaining[t] -= u * blocks
    # "empty" has no kind, so its count is always reported, even when 0.
    alloc.leftover = {t: c for t, c in remaining.items() if c or t == "empty"}

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
) -> SimResult:
    """Sample a window of n slots, schedule it, and decode spot checks.

    Channels are drawn from sample_channels(dims, seed). The topology
    histogram (sample_topology_counts) and the messages come from the two
    children of SeedSequence(seed), so a run is reproducible and none of
    its streams is another seed's stream. The kinds' codes come from the
    builders' per-shape caches, and all kinds share the draw's bases,
    computed in one fill_bases pass. Blocks of one kind share the same
    effective channel, and the receivers of every kind's channel are
    factored in one factor_receivers pass. Each kind is decoded ceil(count *
    decode_fraction) times (at least once) with fresh random messages. The
    messages of a kind are one (total_symbols, n_dec) batch decoded by one
    sic_decode call; every variable of every message is still held to the
    1e-6 reconstruction gate (linalg.RECON_TOL) on its own by
    reconstruction_error, and a failed (or non-finite) decode raises.
    Raises ValueError unless n is an integer in [1, 2**63).
    """
    _check_count(n, "n", low=1)
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability p must lie in [0, 1]")
    if not 0.0 <= decode_fraction <= 1.0:
        raise ValueError("decode_fraction must lie in [0, 1]")

    channels = sample_channels(dims, seed)
    topo_seq, msg_seq = np.random.SeedSequence(seed).spawn(2)
    alloc = schedule_codes(sample_topology_counts(p, n, topo_seq), dims)
    kinds = [(CODES[name].build(dims), count) for name, count in alloc.blocks.items()]

    # Every basis the kinds slice, one stacked SVD per basis kind; then
    # every kind's effective channel on the draw, up to the first that
    # fails; its error is raised after the kinds before it are decoded.
    fill_bases(channels, (carrier for scheme, _count in kinds for carrier in scheme.placements))
    effs, failed = [], None
    try:
        for scheme, _count in kinds:
            effs.append(effective_channel(channels, scheme))
    except ValueError as exc:
        failed = exc
    # All their receivers at once; a receiver that cannot separate its
    # variables raises from its kind's sic_decode, in catalogue order.
    factor_receivers(effs)

    decoded_symbols = 0
    decodes_run = 0
    rng = np.random.Generator(np.random.Philox(msg_seq))
    for (scheme, count), eff in zip(kinds, effs):
        decoded_symbols += scheme.total_symbols * count
        n_dec = max(1, math.ceil(count * decode_fraction))
        # Column i is message i: the draws a message-by-message loop would
        # make, in order.
        x = rng.standard_normal((n_dec, scheme.total_symbols)).T
        _worst, failure = reconstruction_error(scheme, sic_decode(eff, x), x)
        if failure:
            raise RuntimeError(f"scheme {scheme.name} failed decode spot check: {failure}")
        decodes_run += n_dec
    if failed is not None:
        raise failed

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
