"""Channel model for a two-transmitter, two-receiver MIMO network with on/off links.

Each of the four links (receiver j, transmitter i) is independently on with
probability ``p`` in every slot, giving 16 possible link-state patterns
("topologies") per slot.  Channel matrices are drawn once per run and stay
fixed; only the link states vary over time.

Topology naming convention used throughout this package:

====  =======================  ==========================================
name  links on                 description
====  =======================  ==========================================
f     11, 12, 21, 22           fully connected
z1    11, 12, 22               all but the Tx1->Rx2 link
z2    12, 21, 22               all but the Tx1->Rx1 link
z3    11, 21, 22               all but the Tx2->Rx1 link
z4    11, 12, 21               all but the Tx2->Rx2 link
par_direct  11, 22             two interference-free direct pairs
par_cross   12, 21             two interference-free crossed pairs
mac1  11, 12                   both transmitters into Rx1
mac2  21, 22                   both transmitters into Rx2
bc1   11, 21                   Tx1 into both receivers
bc2   12, 22                   Tx2 into both receivers
s11, s12, s21, s22             a single link
empty                          no links
====  =======================  ==========================================

Link ``ji`` means transmitter ``i`` -> receiver ``j``; its matrix is ``h<j><i>``
(N x M).  Channel index aliases 1..4 map to h11, h12, h21, h22; an alias
outside 1..4, or an rx or tx outside 1..2, raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union

import numpy as np

__all__ = [
    "Dimensions",
    "Topology",
    "TOPOLOGIES",
    "TOPOLOGY_BY_INDEX",
    "ChannelSet",
    "topology_probability",
    "sample_topology_indices",
    "sample_topology_counts",
    "sample_channels",
]


@dataclass(frozen=True)
class Dimensions:
    """Antenna counts for a run.

    m, n are the antennas per transmitter / per receiver: integers in
    [1, 2**63), as _check_count holds them.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        _check_shape(self.m, self.n)


# (rx, tx) of each link -> its position in alias order
_LINK_POSITION = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}


@dataclass(frozen=True)
class Topology:
    """One of the 16 link-state patterns of a slot."""

    name: str
    s11: bool
    s12: bool
    s21: bool
    s22: bool

    def link(self, rx: int, tx: int) -> bool:
        """State of the link from transmitter tx to receiver rx (1-based)."""
        try:
            return self.links[_LINK_POSITION[rx, tx]]
        except KeyError:
            raise ValueError("rx and tx must be 1 or 2") from None

    @property
    def links(self) -> tuple:
        return (self.s11, self.s12, self.s21, self.s22)

    @property
    def n_on(self) -> int:
        return sum(self.links)

    @property
    def index(self) -> int:
        """Bit encoding 8*s11 + 4*s12 + 2*s21 + s22."""
        return 8 * self.s11 + 4 * self.s12 + 2 * self.s21 + self.s22


def _build_registry() -> Dict[str, Topology]:
    names = {
        (1, 1, 1, 1): "f",
        (1, 1, 0, 1): "z1",
        (0, 1, 1, 1): "z2",
        (1, 0, 1, 1): "z3",
        (1, 1, 1, 0): "z4",
        (1, 0, 0, 1): "par_direct",
        (0, 1, 1, 0): "par_cross",
        (1, 1, 0, 0): "mac1",
        (0, 0, 1, 1): "mac2",
        (1, 0, 1, 0): "bc1",
        (0, 1, 0, 1): "bc2",
        (1, 0, 0, 0): "s11",
        (0, 1, 0, 0): "s12",
        (0, 0, 1, 0): "s21",
        (0, 0, 0, 1): "s22",
        (0, 0, 0, 0): "empty",
    }
    return {
        name: Topology(name, bool(a), bool(b), bool(c), bool(d))
        for (a, b, c, d), name in names.items()
    }


TOPOLOGIES: Dict[str, Topology] = _build_registry()
TOPOLOGY_BY_INDEX: List[Topology] = sorted(TOPOLOGIES.values(), key=lambda t: t.index)


def topology_probability(t: Topology, p: float) -> float:
    """Probability p^k (1-p)^(4-k) of drawing t, k its number of on links."""
    _check_unit(p, "p")
    return _topology_law(t.n_on, float(p))


def _topology_law(k: int, p: float) -> float:
    """p^k (1-p)^(4-k), unchecked; p is a float in [0, 1]."""
    return p**k * (1.0 - p) ** (4 - k)


_SAMPLE_CHUNK = 16_384  # slots per draw in sample_topology_indices


def _check_count(n: int, what: str, low: int = 0) -> int:
    """n as an int if an integer in [low, 2**63), the int64 range; a float or bool is refused."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and low <= n < 2**63):
        raise ValueError(f"{what} must be an integer in [{low}, 2**63)")
    return int(n)


def _check_shape(m: int, n: int) -> None:
    _check_count(m, "m", low=1)
    _check_count(n, "n", low=1)


def _check_unit(value: float, what: str) -> None:
    """The one test of an input in [0, 1]; a NaN fails it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must lie in [0, 1]")


def sample_topology_indices(p: float, n: int, seed: int) -> np.ndarray:
    """Draw n slots of link states, returned as uint8 topology indices.

    Uses the counter-based Philox generator, so a (p, n, seed) triple always
    produces the same sequence regardless of platform or call history.
    """
    _check_count(n, "n")
    _check_unit(p, "p")
    rng = np.random.Generator(np.random.Philox(seed))
    out = np.empty(int(n), dtype=np.uint8)
    # Chunked draws consume the stream in the same order as one
    # (n, 4) draw, with memory bounded by the chunk, not by n.
    for start in range(0, out.size, _SAMPLE_CHUNK):
        on = (rng.random((min(_SAMPLE_CHUNK, out.size - start), 4)) < p).view(np.uint8)
        out[start : start + on.shape[0]] = (
            (on[:, 0] << 3) | (on[:, 1] << 2) | (on[:, 2] << 1) | on[:, 3]
        )
    return out


def sample_topology_counts(
    p: float, n: int, seed: Union[int, np.random.SeedSequence]
) -> Dict[Topology, int]:
    """Draw the topology histogram of n slots without drawing the slots.

    The four links are independent Bernoulli(p) in every slot, so the
    counts of an n-slot window are exactly Multinomial(n, p^k (1-p)^(4-k)):
    the law of the histogram of sample_topology_indices(p, n, seed), drawn
    with one Philox multinomial call whatever n is. Every topology is a
    key, in TOPOLOGY_BY_INDEX order.
    """
    _check_count(n, "n")
    _check_unit(p, "p")
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(n, [_topology_law(t.n_on, float(p)) for t in TOPOLOGY_BY_INDEX])
    return {t: int(c) for t, c in zip(TOPOLOGY_BY_INDEX, counts)}


_NAMES = ("h11", "h12", "h21", "h22")


class ChannelSet:
    """The four fixed channel matrices of a run.

    Attributes h11, h12, h21, h22 are N x M arrays (receiver index first),
    the four read-only views of one copy of the caller's matrices. ``h(k)``
    exposes the 1..4 alias ordering h11, h12, h21, h22 used by the
    coding-scheme builders, and ``link_matrix(rx, tx)`` the 1-based link,
    each from a table built once per set. ``bases`` memoizes the read-only
    bases that carriers slice (I_M and the pseudo-inverse, null and paired
    bases, filled by schemes.fill_bases, one stacked SVD per basis kind);
    the matrices are read-only, so an entry can never go stale.
    """

    def __init__(
        self,
        dims: Dimensions,
        h11: np.ndarray,
        h12: np.ndarray,
        h21: np.ndarray,
        h22: np.ndarray,
    ) -> None:
        shape = (dims.n, dims.m)
        for name, h in zip(_NAMES, (h11, h12, h21, h22)):
            if np.shape(h) != shape:
                raise ValueError(f"{name} must have shape {shape}, got {np.shape(h)}")
        stack = np.array((h11, h12, h21, h22), dtype=float)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"{_NAMES[np.argmin(finite)]} contains non-finite entries")
        self._adopt(dims, stack)

    @classmethod
    def _of_stack(cls, dims: Dimensions, stack: np.ndarray) -> "ChannelSet":
        """A set over a fresh finite (4, N, M) float stack, unchecked and not copied."""
        channels = cls.__new__(cls)
        channels._adopt(dims, stack)
        return channels

    def _adopt(self, dims: Dimensions, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        self.dims = dims
        views = tuple(stack)
        self.h11, self.h12, self.h21, self.h22 = views
        self._by_alias = dict(enumerate(views, 1))
        self._by_link = dict(zip(_LINK_POSITION, views))
        self.bases: Dict[tuple, np.ndarray] = {}

    def h(self, k: int) -> np.ndarray:
        """Channel matrix by alias index: 1 -> h11, 2 -> h12, 3 -> h21, 4 -> h22."""
        try:
            return self._by_alias[k]
        except KeyError:
            raise ValueError("channel alias index must be 1..4") from None

    def link_matrix(self, rx: int, tx: int) -> np.ndarray:
        """Channel matrix of the link from transmitter tx to receiver rx (1-based)."""
        try:
            return self._by_link[rx, tx]
        except KeyError:
            raise ValueError("rx and tx must be 1 or 2") from None


def _full_rank(mats: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (k, N, M) stack has rank min(N, M).

    This is np.linalg.matrix_rank's verdict at its default tolerance, from
    one batched SVD without vectors: the smallest singular value must exceed
    the largest times max(N, M) eps, so a zero matrix is deficient.
    """
    s = np.linalg.svd(mats, compute_uv=False)
    return s[:, -1] > s[:, 0] * max(mats.shape[1:]) * np.finfo(float).eps


def sample_channels(dims: Dimensions, seed: int) -> ChannelSet:
    """Draw the four N x M matrices with i.i.d. standard normal entries.

    The four matrices are one (4, N, M) draw, the stream four (N, M) draws
    in turn would consume, and their ranks are checked on one batched SVD;
    the set keeps that stack, read-only, without a second copy. A matrix
    that is not of full rank min(M, N) (a practically impossible event) is
    re-drawn after all four, in alias order, not in place, so downstream
    constructions can rely on genericity.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    shape = (dims.n, dims.m)
    mats = rng.standard_normal((4,) + shape)
    for _attempt in range(100):
        deficient = np.flatnonzero(~_full_rank(mats))
        if deficient.size == 0:
            return ChannelSet._of_stack(dims, mats)
        mats[deficient] = rng.standard_normal((deficient.size,) + shape)
    raise RuntimeError("could not draw a full-rank channel matrix")  # pragma: no cover
