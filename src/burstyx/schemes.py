"""Data model for multi-slot linear coding schemes.

A scheme says: over a short window of slots with known topologies, each
transmitter sends fixed linear combinations of message variables, and each
receiver recovers its own variables from its own observations over all the
slots (see decode). Everything is symbolic until materialized against a
concrete channel draw:

- Carrier: a symbolic precoder block (identity slice, pseudo-inverse slice,
  alignment block, null-space basis, or tall-orientation alignment pair).
- Variable: a named message vector with a length, an owning transmitter and
  an intended receiver.
- Placement: variable v rides carrier C from transmitter t in slot s.
- CodeScheme: the whole bundle.
- EffectiveChannel: the stacked receive matrix for one channel draw, with
  (receiver, slot) row blocks and per-variable column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from .channel import ChannelSet, Dimensions, TOPOLOGIES, Topology
from .linalg import alignment_block, null_space_basis, paired_alignment, pseudo_inverse

__all__ = [
    "Carrier",
    "Variable",
    "Placement",
    "CodeScheme",
    "EffectiveChannel",
    "effective_channel",
    # Not called here (an align carrier slices the memoized pinv basis): the
    # benchmark's tracer and its tests resolve this binding through this module.
    "alignment_block",
]

_CARRIER_KINDS = ("I-slice", "pinv", "align", "null", "pair")


def _basis(channels: ChannelSet, kind: str, ch: int, ch_b: Optional[int] = None):
    """The full pinv, null or pair basis of one draw, computed once per draw.

    Memoized in channels.bases and read-only; a pair entry is the (a, b)
    tuple of paired_alignment. Errors are not memoized, so they re-raise.
    """
    key = (kind, ch, ch_b)
    basis = channels.bases.get(key)
    if basis is None:
        h = channels.h(ch)
        if kind == "pinv":
            basis = pseudo_inverse(h)
        elif kind == "null":
            basis = null_space_basis(h)
        else:
            basis = paired_alignment(h, channels.h(ch_b))
        for block in basis if kind == "pair" else (basis,):
            block.setflags(write=False)
        channels.bases[key] = basis
    return basis


@dataclass(frozen=True)
class Carrier:
    """Symbolic precoder block, materialized to an M x width matrix.

    kind:
      I-slice  columns [start, start+width) of I_M
      pinv     columns [start, start+width) of pseudo_inverse(H_ch)
      align    leading width columns of pseudo_inverse(H_ch), as
               alignment_block(H_ch, width) gives them
      null     columns [start, start+width) of null_space_basis(H_ch)
      pair     one side of paired_alignment(H_ch, H_ch_b), leading columns
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
        m = channels.dims.m
        if self.kind == "I-slice":
            if self.start + self.width > m:
                raise ValueError("identity slice exceeds transmit dimension")
            block = np.zeros((m, self.width))
            for i in range(self.width):
                block[self.start + i, i] = 1.0
            return block
        if self.kind == "pair":
            ga, gb = _basis(channels, "pair", self.ch, self.ch_b)
            block = ga if self.side == "a" else gb
            if self.width > block.shape[1]:
                raise ValueError("pair slice exceeds paired null-space dimension")
            return block[:, : self.width]
        # An align carrier is the leading columns of the pinv basis.
        kind = "null" if self.kind == "null" else "pinv"
        basis = _basis(channels, kind, self.ch)
        if self.start + self.width > basis.shape[1]:
            raise ValueError(f"{kind} slice exceeds available columns")
        return basis[:, self.start : self.start + self.width]

@dataclass(frozen=True)
class Variable:
    name: str
    length: int
    tx: int
    rx: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("variable length must be non-negative")
        if self.tx not in (1, 2) or self.rx not in (1, 2):
            raise ValueError("tx and rx must be 1 or 2")


@dataclass(frozen=True)
class Placement:
    slot: int
    tx: int
    var: str
    carrier: Carrier


@dataclass(frozen=True)
class CodeScheme:
    name: str
    dims: Dimensions
    slot_topologies: Tuple[str, ...]
    variables: Tuple[Variable, ...]
    placements: Tuple[Placement, ...]

    def __post_init__(self):
        self.validate()

    # -- views ---------------------------------------------------------

    @property
    def n_slots(self) -> int:
        return len(self.slot_topologies)

    @property
    def total_symbols(self) -> int:
        return sum(v.length for v in self.variables)

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def topology(self, slot: int) -> Topology:
        return TOPOLOGIES[self.slot_topologies[slot]]

    @cached_property
    def receiver_columns(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Per receiver, the effective-channel columns it decodes and the rest.

        Columns follow the variable order, as effective_channel lays them
        out. Computed once per scheme (the builders share theirs), read-only.
        """
        rx_of = np.repeat([v.rx for v in self.variables], [v.length for v in self.variables])
        out = {}
        for rx in (1, 2):
            cols = (np.flatnonzero(rx_of == rx), np.flatnonzero(rx_of != rx))
            for c in cols:
                c.setflags(write=False)
            out[rx] = cols
        return out

    # -- consistency ----------------------------------------------------

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        by_name = {v.name: v for v in self.variables}
        for t in self.slot_topologies:
            if t not in TOPOLOGIES:
                raise ValueError(f"unknown topology {t!r}")
        for pl in self.placements:
            if not 0 <= pl.slot < self.n_slots:
                raise ValueError("placement references a missing slot")
            v = by_name.get(pl.var)
            if v is None:
                raise ValueError(f"placement references unknown variable {pl.var!r}")
            if v.tx != pl.tx:
                raise ValueError(f"variable {pl.var!r} placed at the wrong transmitter")
            if pl.carrier.width != v.length:
                raise ValueError(f"carrier width mismatch for {pl.var!r}")
        placed = {pl.var for pl in self.placements}
        for v in self.variables:
            if v.length == 0:
                raise ValueError(f"variable {v.name!r} has zero length")
            if v.name not in placed:
                raise ValueError(f"variable {v.name!r} never placed")


@dataclass
class EffectiveChannel:
    """Stacked noise-free receive matrix for a scheme on one channel draw.

    matrix has one block row per (receiver, slot) pair, receiver-major, each
    of height N, and one block column per variable. Rows belonging to a slot
    where the corresponding cross link is off are zero by construction.
    matrix is read-only, so ``receivers``, where decode memoizes each
    receiver's projection and factorization, can never go stale.
    receiver_columns is the scheme's (see CodeScheme.receiver_columns).
    """

    matrix: np.ndarray
    var_order: Tuple[str, ...]
    row_blocks: Dict[Tuple[int, int], slice] = field(repr=False, default_factory=dict)
    col_blocks: Dict[str, slice] = field(repr=False, default_factory=dict)
    receiver_columns: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(repr=False, default_factory=dict)
    receivers: Dict[int, object] = field(repr=False, default_factory=dict)

    def block(self, rx: int, slot: int, var: str) -> np.ndarray:
        return self.matrix[self.row_blocks[(rx, slot)], self.col_blocks[var]]

    def concat(self, x: Dict[str, np.ndarray]) -> np.ndarray:
        """Stack per-variable values, (length,) or (length, B), in column order."""
        batch = np.shape(x[self.var_order[0]])[1:] if self.var_order else ()
        out = np.zeros((self.matrix.shape[1],) + batch)
        for name in self.var_order:
            out[self.col_blocks[name]] = x[name]
        return out


def effective_channel(channels: ChannelSet, scheme: CodeScheme) -> EffectiveChannel:
    """Materialize carriers and assemble the stacked receive matrix."""
    dims = channels.dims
    if (dims.m, dims.n) != (scheme.dims.m, scheme.dims.n):
        raise ValueError("channel set and scheme dimensions disagree")
    n, s_count = dims.n, scheme.n_slots
    var_order = tuple(v.name for v in scheme.variables)
    col_blocks: Dict[str, slice] = {}
    off = 0
    for v in scheme.variables:
        col_blocks[v.name] = slice(off, off + v.length)
        off += v.length
    matrix = np.zeros((2 * s_count * n, off))
    row_blocks: Dict[Tuple[int, int], slice] = {}
    for rx in (1, 2):
        for slot in range(s_count):
            r0 = ((rx - 1) * s_count + slot) * n
            row_blocks[(rx, slot)] = slice(r0, r0 + n)

    cache: Dict[Carrier, np.ndarray] = {}
    for pl in scheme.placements:
        if pl.carrier not in cache:
            cache[pl.carrier] = pl.carrier.materialize(channels)
        block = cache[pl.carrier]
        topo = scheme.topology(pl.slot)
        cols = col_blocks[pl.var]
        for rx in (1, 2):
            if topo.link(rx, pl.tx):
                r0 = ((rx - 1) * s_count + pl.slot) * n
                matrix[r0 : r0 + n, cols] += channels.link_matrix(rx, pl.tx) @ block
    matrix.setflags(write=False)

    return EffectiveChannel(
        matrix=matrix,
        var_order=var_order,
        row_blocks=row_blocks,
        col_blocks=col_blocks,
        receiver_columns=scheme.receiver_columns,
    )
