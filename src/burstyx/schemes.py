"""Data model for multi-slot linear coding schemes.

A scheme says: over a short window of slots with known topologies, each
transmitter sends fixed linear combinations of message variables, and each
receiver recovers its own variables from its own observations over all the
slots (see decode). Everything is symbolic until materialized against a
concrete channel draw:

- Carrier: a symbolic precoder block, a column slice of one basis of the
  draw (the identity, a pseudo-inverse, a null space, or one side of a
  tall-orientation alignment pair); each basis is computed once per draw
  and memoized in ChannelSet.bases by fill_bases, which computes all the
  missing bases of one kind with one stacked SVD.
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
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .channel import ChannelSet, Dimensions, TOPOLOGIES, Topology
from .linalg import alignment_block, null_space_basis, paired_alignment, pseudo_inverse

__all__ = [
    "Carrier",
    "Variable",
    "CodeScheme",
    "EffectiveChannel",
    "effective_channel",
    "fill_bases",
    # Not called here (a pinv carrier at start 0 is the alignment block, sliced
    # from the memoized basis): the benchmark's tracer and its tests resolve
    # this binding through this module.
    "alignment_block",
]

_CARRIER_KINDS = ("I-slice", "pinv", "null", "pair")


def fill_bases(channels: ChannelSet, carriers: Iterable[Carrier]) -> Dict[tuple, str]:
    """Compute every basis the carriers slice that channels.bases lacks.

    I_M for an I-slice, the pseudo-inverse or null basis of H_ch, or both
    sides of paired_alignment(H_ch, H_ch_b). The missing bases of each kind
    are one stack, computed by one stacked linalg call (one SVD), and
    memoized in channels.bases, read-only. Raises nothing: a basis that
    cannot be computed (a degenerate channel, or a kind that does not fit
    the shape) stays out of the memo and its message is returned under its
    key, so a carrier that needs it raises when materialized.
    """
    needed: Dict[str, Dict[tuple, None]] = {}  # kind -> (ch, ch_b) of each missing basis, in order of first use
    for carrier in carriers:
        if carrier._memo_key not in channels.bases:
            needed.setdefault(carrier.kind, {})[carrier.ch, carrier.ch_b] = None
    failures = {}
    for kind, links in needed.items():
        try:
            bases = _stacked_bases(channels, kind, list(links))
            failure = "degenerate channel"
        except ValueError as exc:  # the kind does not fit the shape
            bases, failure = [None] * len(links), str(exc)
        for (ch, ch_b), basis in zip(links, bases):
            if kind == "pair":
                keys, blocks = [(kind, ch, ch_b, side) for side in "ab"], basis
            else:
                keys, blocks = [(kind, ch)], (basis,)
            if basis is None:
                failures.update(dict.fromkeys(keys, failure))
                continue
            for key, block in zip(keys, blocks):
                block.setflags(write=False)
                channels.bases[key] = block
    return failures


def _stacked_bases(channels: ChannelSet, kind: str, links: list) -> list:
    """The bases of one kind for each (ch, ch_b) of links, by one stacked call; None where degenerate."""
    if kind == "I-slice":
        return [np.eye(channels.dims.m)]
    stack = np.stack([channels.h(ch) for ch, _ch_b in links])
    if kind == "pinv":
        return pseudo_inverse(stack)
    if kind == "null":
        return null_space_basis(stack)
    return paired_alignment(stack, np.stack([channels.h(ch_b) for _ch, ch_b in links]))


@dataclass(frozen=True)
class Carrier:
    """Symbolic precoder block, materialized to an M x width matrix.

    Columns [start, start+width) of a basis of the draw:
      I-slice  I_M
      pinv     pseudo_inverse(H_ch); at start 0, alignment_block(H_ch, width)
      null     null_space_basis(H_ch)
      pair     one side (a or b) of paired_alignment(H_ch, H_ch_b)

    materialize slices the basis memoized in ChannelSet.bases; on a miss it
    calls fill_bases for this carrier alone, and raises the basis's
    ValueError (such as "degenerate channel") when it cannot be computed.
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

    @cached_property
    def _memo_key(self) -> tuple:
        """The key of the basis this carrier slices in ChannelSet.bases."""
        kind, ch = self.kind, self.ch
        return (kind, ch, self.ch_b, self.side) if kind == "pair" else (kind, ch)

    def materialize(self, channels: ChannelSet) -> np.ndarray:
        key = self._memo_key
        basis = channels.bases.get(key)
        if basis is None:
            failure = fill_bases(channels, (self,)).get(key)
            if failure is not None:
                raise ValueError(failure)
            basis = channels.bases[key]
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
        """Per receiver, the columns it decodes and the columns that interfere.

        A variable of another receiver interferes at rx only if its link to
        rx is on in one of its slots; its columns are structurally zero in
        rx's rows otherwise (exact zeros), so they are left out. Computed
        once per scheme, like columns, and read-only.
        """
        lengths = [v.length for v in self.variables]
        out = {}
        for rx in (1, 2):
            desired = [v.rx == rx for v in self.variables]
            heard = [any(self.topology(slot).link(rx, v.tx) for slot in v.slots) for v in self.variables]
            cols = tuple(
                np.flatnonzero(np.repeat(mask, lengths))
                for mask in (desired, [h and not d for h, d in zip(heard, desired)])
            )
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

    The scheme's missing bases are filled first (fill_bases, one stacked
    SVD per basis kind); then each carrier is materialized once and each of
    its (rx, tx) products computed once, then written to every slot of
    scheme.placements.
    """
    dims = channels.dims
    if (dims.m, dims.n) != (scheme.dims.m, scheme.dims.n):
        raise ValueError("channel set and scheme dimensions disagree")
    fill_bases(channels, scheme.placements)
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
