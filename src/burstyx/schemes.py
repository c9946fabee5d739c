"""Data model for multi-slot linear coding schemes.

A scheme says: over a short window of slots with known topologies, each
transmitter sends fixed linear combinations of message variables, and each
receiver recovers its own variables from its own observations over all the
slots (see decode). Everything is symbolic until materialized against a
concrete channel draw:

- Carrier: a symbolic precoder block, a column slice of one basis of the
  draw (the identity, a pseudo-inverse, a null space, or one side of a
  tall-orientation alignment pair); each basis is computed once per draw
  and memoized in ChannelSet.bases.
- Variable: a named message stream that one transmitter sends to one
  receiver on one carrier, in every slot it uses; its length is the
  carrier's width.
- CodeScheme: the slot topologies and the variables, and the column
  layout of a message: one array that stacks the variables in order.
- EffectiveChannel: the stacked receive matrix for one channel draw, with
  one block row per (receiver, slot) and the scheme's column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Dict, Optional, Tuple

import numpy as np

from .channel import ChannelSet, Dimensions, TOPOLOGIES, Topology
from .linalg import alignment_block, null_space_basis, paired_alignment, pseudo_inverse

__all__ = [
    "Carrier",
    "Variable",
    "CodeScheme",
    "EffectiveChannel",
    "effective_channel",
    # Not called here (a pinv carrier at start 0 is the alignment block, sliced
    # from the memoized basis): the benchmark's tracer and its tests resolve
    # this binding through this module.
    "alignment_block",
]

_CARRIER_KINDS = ("I-slice", "pinv", "null", "pair")


def _basis(channels: ChannelSet, carrier: Carrier) -> np.ndarray:
    """The read-only basis carrier slices, computed once per draw.

    I_M for an I-slice, the pseudo-inverse or null basis of H_ch, or one
    side of paired_alignment(H_ch, H_ch_b), whose two sides are stored from
    one call. Memoized in channels.bases; errors are not memoized, so they
    re-raise.
    """
    kind, ch = carrier.kind, carrier.ch
    key = (kind, ch, carrier.ch_b, carrier.side) if kind == "pair" else (kind, ch)
    basis = channels.bases.get(key)
    if basis is None:
        if kind == "I-slice":
            found = {key: np.eye(channels.dims.m)}
        elif kind == "pinv":
            found = {key: pseudo_inverse(channels.h(ch))}
        elif kind == "null":
            found = {key: null_space_basis(channels.h(ch))}
        else:
            sides = paired_alignment(channels.h(ch), channels.h(carrier.ch_b))
            found = {key[:3] + (side,): block for side, block in zip("ab", sides)}
        for block in found.values():
            block.setflags(write=False)
        channels.bases.update(found)
        basis = found[key]
    return basis


@dataclass(frozen=True)
class Carrier:
    """Symbolic precoder block, materialized to an M x width matrix.

    Columns [start, start+width) of a basis of the draw:
      I-slice  I_M
      pinv     pseudo_inverse(H_ch); at start 0, alignment_block(H_ch, width)
      null     null_space_basis(H_ch)
      pair     one side (a or b) of paired_alignment(H_ch, H_ch_b)
    """

    kind: str
    width: int
    ch: Optional[int] = None
    ch_b: Optional[int] = None
    side: Optional[str] = None
    start: int = 0

    def __post_init__(self):
        if self.kind not in _CARRIER_KINDS:
            raise ValueError(f"unknown carrier kind {self.kind!r}")
        if self.width < 0 or self.start < 0:
            raise ValueError("carrier width and start must be non-negative")
        if self.kind != "I-slice" and self.ch is None:
            raise ValueError(f"carrier kind {self.kind!r} needs a channel index")
        if self.kind == "pair":
            if self.ch_b is None or self.side not in ("a", "b"):
                raise ValueError("pair carrier needs ch_b and side in {'a','b'}")

    def materialize(self, channels: ChannelSet) -> np.ndarray:
        basis = _basis(channels, self)
        if self.start + self.width > basis.shape[1]:
            raise ValueError(f"{self.kind} slice exceeds available columns")
        return basis[:, self.start : self.start + self.width]


@dataclass(frozen=True)
class Variable:
    """Stream ``name`` from transmitter tx to receiver rx, on ``carrier`` in each of ``slots``."""

    name: str
    tx: int
    rx: int
    carrier: Carrier
    slots: Tuple[int, ...]

    def __post_init__(self):
        if self.tx not in (1, 2) or self.rx not in (1, 2):
            raise ValueError("tx and rx must be 1 or 2")

    @property
    def length(self) -> int:
        return self.carrier.width


@dataclass(frozen=True)
class CodeScheme:
    name: str
    dims: Dimensions
    slot_topologies: Tuple[str, ...]
    variables: Tuple[Variable, ...]

    def __post_init__(self):
        self.validate()

    # -- views ---------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.slot_topologies)

    @cached_property
    def total_symbols(self) -> int:
        return sum(v.length for v in self.variables)

    def topology(self, slot: int) -> Topology:
        return TOPOLOGIES[self.slot_topologies[slot]]

    @cached_property
    def columns(self) -> Dict[str, slice]:
        """Each variable's columns of a message and of the effective channel.

        A message is one array of total_symbols rows (a batch has one
        column per message) with the variables stacked in order. Computed
        once per scheme (the builders share theirs).
        """
        ends = accumulate(v.length for v in self.variables)
        return {v.name: slice(end - v.length, end) for v, end in zip(self.variables, ends)}

    @cached_property
    def column_starts(self) -> np.ndarray:
        """Each variable's first column, in order; read-only."""
        starts = np.array([blk.start for blk in self.columns.values()], dtype=np.intp)
        starts.setflags(write=False)
        return starts

    @cached_property
    def receiver_columns(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per receiver, the columns it decodes and the rest.

        Computed once per scheme, like columns, and read-only.
        """
        rx_of = np.repeat([v.rx for v in self.variables], [v.length for v in self.variables])
        out = {}
        for rx in (1, 2):
            cols = (np.flatnonzero(rx_of == rx), np.flatnonzero(rx_of != rx))
            for c in cols:
                c.setflags(write=False)
            out[rx] = cols
        return out

    @cached_property
    def placements(self) -> Dict[Carrier, Tuple[Tuple[int, int, Tuple[Tuple[int, slice], ...]], ...]]:
        """Where effective_channel writes each carrier's products.

        Maps each carrier, in order of first use, to its (rx, tx, targets)
        products: the link matrix H_rx,tx times the materialized carrier is
        written at each target, the (first row, columns) of one slot where
        the link is on. Computed once per scheme, like columns.
        """
        n, s_count = self.dims.n, self.n_slots
        plan: Dict[Carrier, Dict[Tuple[int, int], list]] = {}
        for v in self.variables:
            products = plan.setdefault(v.carrier, {})
            cols = self.columns[v.name]
            for slot in v.slots:
                topo = self.topology(slot)
                for rx in (1, 2):
                    if topo.link(rx, v.tx):
                        products.setdefault((rx, v.tx), []).append((((rx - 1) * s_count + slot) * n, cols))
        return {
            carrier: tuple((rx, tx, tuple(targets)) for (rx, tx), targets in products.items())
            for carrier, products in plan.items()
        }

    # -- consistency ----------------------------------------------------

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for t in self.slot_topologies:
            if t not in TOPOLOGIES:
                raise ValueError(f"unknown topology {t!r}")
        for v in self.variables:
            if v.length == 0:
                raise ValueError(f"variable {v.name!r} has zero length")
            slots = set(v.slots)
            if not slots or len(slots) < len(v.slots) or not slots <= set(range(self.n_slots)):
                raise ValueError(f"variable {v.name!r} needs distinct slots below {self.n_slots}, not {v.slots!r}")


@dataclass
class EffectiveChannel:
    """Stacked noise-free receive matrix for a scheme on one channel draw.

    matrix has one block row per (receiver, slot) pair, receiver-major, each
    of height N, so the rows of (rx, slot) start at
    ((rx - 1) * n_slots + slot) * N; its columns are scheme.columns. A
    variable's block is zero in the slots it is not sent in and wherever
    its link is off.
    matrix is read-only, so ``receivers``, where decode memoizes each
    receiver's projection and factorization, can never go stale.
    """

    scheme: CodeScheme = field(repr=False)
    matrix: np.ndarray
    receivers: Dict[int, object] = field(repr=False, default_factory=dict)


def effective_channel(channels: ChannelSet, scheme: CodeScheme) -> EffectiveChannel:
    """Materialize carriers and assemble the stacked receive matrix.

    Each carrier is materialized once and each of its (rx, tx) products
    computed once, then written to every slot of scheme.placements.
    """
    dims = channels.dims
    if (dims.m, dims.n) != (scheme.dims.m, scheme.dims.n):
        raise ValueError("channel set and scheme dimensions disagree")
    n = dims.n
    matrix = np.zeros((2 * scheme.n_slots * n, scheme.total_symbols))
    for carrier, products in scheme.placements.items():
        block = carrier.materialize(channels)
        for rx, tx, targets in products:
            product = channels.link_matrix(rx, tx) @ block
            for r0, cols in targets:
                matrix[r0 : r0 + n, cols] = product
    matrix.setflags(write=False)
    return EffectiveChannel(scheme, matrix)
