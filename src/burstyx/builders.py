"""Constructive coding schemes for every topology and multi-slot pattern.

Channel index conventions (see channel.ChannelSet): h(1) is rx1 from tx1,
h(2) rx1 from tx2, h(3) rx2 from tx1, h(4) rx2 from tx2. A carrier built on
null(h(k)) is invisible at the receiver of link k; a pseudo-inverse carrier
on h(k) lands on the leading coordinates of that receiver's space (an
alignment block).

Single-slot codes exist for all sixteen topologies; the all-links topology
is the only one with shape restrictions, and build_f_fallback covers the
rest by reusing the broadcast or multiple-access code on the all-links
slot. Multi-slot codes pair the one-cross-link topologies, with optional
reuse of the all-links slot, and two precoders send every stream through
all five interesting slots at once.

The model is unchanged when the two transmitters, or the two receivers,
trade places, so a code relabelled by such a swap (_relabel) is a code for
the image topologies. Each code is written once per orbit, as its
representative, and its images are derived:

    representative  swap tx  swap rx    both
    s11             s12      s21        s22
    mac1                     mac2
    bc1             bc2
    par_direct               par_cross
    z1              z4       z2         z3
    pair z12                            pair z34

empty, f and the five-slot codes' slot sets are their own images. An image
relabels its representative's cached code.

Each builder lists its variables, each with its transmitter, receiver,
carrier and the slots it is sent in. The list order is the column order of
the effective channel, and so the order of the message streams.

CODES is the one catalogue of codes: each label with the slot topologies
of one block and its cached builder. verify checks its labels, and the
scheduler (sim) picks its kinds from it.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Sequence, Tuple

from .channel import Dimensions, TOPOLOGIES, TOPOLOGY_BY_INDEX
from .schemes import Carrier, CodeScheme, Variable

__all__ = [
    "build_single_topology_code",
    "build_f_fallback",
    "build_z_pair_code",
    "build_zf_code",
    "build_block_ia_precoder",
    "build_refined_ia_precoder",
]


# Each public builder is a pure function of its arguments and CodeScheme is
# frozen, so a code is built once per shape and then shared. The caches are
# sized in shapes: each holds the keys of _SHAPE_CACHE shapes (16 topologies
# or 2 pairs per shape). An LRU cycled over more keys than it holds never
# hits, and a verify sweep asks for each code once per shape per round, so
# 256 shapes keep a whole sweep cached (the benchmark's has 68 shapes,
# m, n in 1..12 has 144). The bound keeps memory flat at the CLI's largest
# shapes: every code with its columns and receiver columns, at the 256 shapes
# m, n in 49..64, holds about 24 MB (tracemalloc).
_SHAPE_CACHE = 256


def _ident(width: int, start: int = 0) -> Carrier:
    return Carrier("I-slice", width, start=start)


def _pinv(ch: int, width: int) -> Carrier:
    return Carrier("pinv", width, ch=ch)


def _null(ch: int, width: int) -> Carrier:
    return Carrier("null", width, ch=ch)


def _pair(ch_a: int, ch_b: int, side: str, width: int) -> Carrier:
    return Carrier("pair", width, ch=ch_a, ch_b=ch_b, side=side)


def _scheme(name: str, dims: Dimensions, slots: Sequence[str], variables: Sequence[Variable]) -> CodeScheme:
    """Drop zero-length variables; CodeScheme validates the rest."""
    return CodeScheme(name, dims, tuple(slots), tuple(v for v in variables if v.length > 0))


# image -> (representative, swap_tx, swap_rx), as in the module docstring
_IMAGES = {
    "s12": ("s11", True, False), "s21": ("s11", False, True), "s22": ("s11", True, True),
    "mac2": ("mac1", False, True),
    "bc2": ("bc1", True, False),
    "par_cross": ("par_direct", False, True),
    "z4": ("z1", True, False), "z2": ("z1", False, True), "z3": ("z1", True, True),
    "z34": ("z12", True, True),
}


def _relabel(scheme: CodeScheme, name: str, swap_tx: bool, swap_rx: bool) -> CodeScheme:
    """scheme with the two transmitters (swap_tx) and/or receivers (swap_rx) traded.

    Link (rx, tx) has alias k = 2(rx - 1) + tx, which is also the order of a
    topology's link states, so a swap flips one bit of k - 1: bit 0 for tx,
    bit 1 for rx. On the draw whose link matrices are swapped alike, the
    image's effective channel is scheme's, its receiver row blocks
    exchanged under swap_rx.
    """
    flip = swap_tx + 2 * swap_rx
    alias = {None: None, **{k: ((k - 1) ^ flip) + 1 for k in range(1, 5)}}
    slots = []
    for topo in scheme.slot_topologies:
        s = TOPOLOGIES[topo].links
        slots.append(TOPOLOGY_BY_INDEX[8 * s[flip] + 4 * s[1 ^ flip] + 2 * s[2 ^ flip] + s[3 ^ flip]].name)
    variables = []
    for v in scheme.variables:
        c = v.carrier
        if c.ch is not None:
            c = Carrier(c.kind, c.width, alias[c.ch], alias[c.ch_b], c.side, c.start)
        tx, rx = (3 - v.tx if swap_tx else v.tx), (3 - v.rx if swap_rx else v.rx)
        variables.append(Variable(v.name, tx, rx, c, v.slots))
    return CodeScheme(name, scheme.dims, tuple(slots), tuple(variables))


# ---------------------------------------------------------------------------
# single-slot codes
# ---------------------------------------------------------------------------


def _single(dims: Dimensions, topo: str, *streams) -> CodeScheme:
    """One-slot code on topo; each stream is (name, tx, rx, carrier)."""
    return _scheme(f"single_{topo}", dims, (topo,), [Variable(*stream, (0,)) for stream in streams])


def _single_link(dims: Dimensions) -> CodeScheme:
    return _single(dims, "s11", ("a", 1, 1, _ident(min(dims.m, dims.n))))


def _mac(dims: Dimensions) -> CodeScheme:
    total = min(2 * dims.m, dims.n)
    wa = min(dims.m, (total + 1) // 2)
    return _single(dims, "mac1", ("a", 1, 1, _ident(wa)), ("b", 2, 1, _ident(total - wa)))


def _bc(dims: Dimensions) -> CodeScheme:
    m, n = dims.m, dims.n
    side = min(max(m - n, 0), n)
    mid = min(m, 2 * n) - 2 * side
    # null(h21) keeps a private to rx1; null(h11) keeps c private to rx2;
    # the shared part b is decoded by rx1 and projected out by rx2.
    streams = ("a", 1, 1, _null(3, side)), ("b", 1, 1, _ident(mid)), ("c", 1, 2, _null(1, side))
    return _single(dims, "bc1", *streams)


def _par(dims: Dimensions) -> CodeScheme:
    w = min(dims.m, dims.n)
    return _single(dims, "par_direct", ("a", 1, 1, _ident(w)), ("b", 2, 2, _ident(w)))


def _z_single(dims: Dimensions) -> CodeScheme:
    """z1: rx1 hears both transmitters, rx2 hears only tx2."""
    m, n = dims.m, dims.n
    if m >= n:
        # tx1, heard only by rx1, loads it with n clear streams; tx2 squeezes
        # min(m - n, n) more to rx2 behind null(h12), hidden from rx1
        return _single(dims, "z1", ("a", 1, 1, _ident(n)), ("u", 2, 2, _null(2, min(m - n, n))))
    # m < n: rx1 decodes a joint load min(2m, n).
    return _single(dims, "z1", ("g", 1, 1, _ident(m)), ("h", 2, 1, _ident(min(m, n - m))))


def _full(dims: Dimensions) -> CodeScheme:
    m, n = dims.m, dims.n
    if m >= n and 3 * n <= 2 * m:
        # both transmitters zero-force both ways; each receiver sees only its
        # own n streams split across the two transmitters
        hi, lo = (n + 1) // 2, n // 2
        return _single(
            dims,
            "f",
            ("s1", 1, 1, _null(3, hi)),
            ("s2", 2, 1, _null(4, lo)),
            ("t1", 1, 2, _null(1, lo)),
            ("t2", 2, 2, _null(2, hi)),
        )
    if m < n and 3 * m <= 2 * n:
        # tall orientation: alignment pairs collapse the cross traffic into
        # shared receive directions, identity fills the rest
        k = max(2 * m - n, 0)
        w = m - 2 * k
        return _single(
            dims,
            "f",
            ("u", 1, 2, _pair(1, 2, "a", k)),
            ("uu", 2, 2, _pair(1, 2, "b", k)),
            ("v", 1, 1, _pair(3, 4, "a", k)),
            ("vv", 2, 1, _pair(3, 4, "b", k)),
            ("x1", 1, 1, _ident(w)),
            ("x2", 2, 1, _ident(w)),
        )
    if m == n and m % 3 == 0:
        # equal antennas divisible by three: each transmitter splits between
        # the two receivers, and each receiver sees the two foreign streams
        # aligned into one third of its space
        w = m // 3
        return _single(
            dims,
            "f",
            ("w11", 1, 1, _pinv(3, w)),
            ("w21", 1, 2, _pinv(1, w)),
            ("w12", 2, 1, _pinv(4, w)),
            ("w22", 2, 2, _pinv(2, w)),
        )
    raise ValueError(
        "standalone all-links code needs min/max at most 2/3 "
        "or equal antenna counts divisible by 3"
    )


# each orbit representative's one-slot code
_REPRESENTATIVES = {
    "empty": lambda dims: _single(dims, "empty"),
    "s11": _single_link,
    "mac1": _mac,
    "bc1": _bc,
    "par_direct": _par,
    "z1": _z_single,
    "f": _full,
}


@lru_cache(maxsize=_SHAPE_CACHE)
def build_f_fallback(dims: Dimensions) -> CodeScheme:
    """Best single-slot load on the all-links topology at awkward shapes.

    Reuses a two-link code that stays decodable with every link on: the
    broadcast code of tx1 (bc1) when m >= n, and otherwise the multiple
    access code into rx1 (mac1). Delivers min(max(m, n), 2 min(m, n))
    symbols; raises when n > 2m, where the standalone all-links code applies.
    """
    if dims.m >= dims.n:
        scheme = _bc(dims)
    elif dims.n > 2 * dims.m:
        raise ValueError("fallback all-links code needs min/max above 1/2")
    else:
        scheme = _mac(dims)
    return replace(scheme, name="f_fallback", slot_topologies=("f",))


@lru_cache(maxsize=len(TOPOLOGIES) * _SHAPE_CACHE)
def build_single_topology_code(name: str, dims: Dimensions) -> CodeScheme:
    """One-slot code for the topology of that name, a key of TOPOLOGIES.

    Unsupported only for the all-links topology at shapes where neither
    two-sided zero forcing nor the equal-antenna split applies; see
    build_f_fallback for the substitute used by the scheduler.
    """
    if name not in TOPOLOGIES:
        raise ValueError(f"unknown topology {name!r}")
    if name not in _IMAGES:
        return _REPRESENTATIVES[name](dims)
    rep, swap_tx, swap_rx = _IMAGES[name]
    return _relabel(build_single_topology_code(rep, dims), f"single_{name}", swap_tx, swap_rx)


# ---------------------------------------------------------------------------
# paired one-off-link slots
# ---------------------------------------------------------------------------


@lru_cache(maxsize=2 * _SHAPE_CACHE)
def build_z_pair_code(dims: Dimensions, pair: str = "z12") -> CodeScheme:
    """Two-slot code reusing one variable across a matched topology pair.

    pair selects ("z1","z2") or ("z3","z4"); z34 is the image of z12.
    Requires min/max above 1/2; delivers 2 min + max symbols over the two
    slots.
    """
    m, n = dims.m, dims.n
    if 2 * min(m, n) <= max(m, n):
        raise ValueError("paired code needs min/max antenna ratio above 1/2")
    if pair not in ("z12", "z34"):
        raise ValueError("pair must be 'z12' or 'z34'")
    if pair == "z34":
        return _relabel(build_z_pair_code(dims, "z12"), "pair_z34", *_IMAGES["z34"][1:])

    # tx1 sends a to rx1 in z1 and d to rx2 in z2; tx2 sends c to rx2 in both
    # slots, and helpers b to rx2 in z1 and e to rx1 in z2. When m >= n, b
    # hides from rx1 in null(h12) and e from rx2 in null(h22).
    lo, hi = min(m, n), max(m, n)
    wb, wc = hi - lo, 2 * lo - hi
    if m >= n:
        car_b, car_c, car_e = _null(2, wb), _ident(wc), _null(4, wb)
    else:
        car_b, car_c, car_e = _ident(wb), _ident(wc, start=wb), _ident(wb)
    variables = [
        Variable("a", 1, 1, _ident(lo), (0,)),
        Variable("b", 2, 2, car_b, (0,)),
        Variable("c", 2, 2, car_c, (0, 1)),
        Variable("d", 1, 2, _ident(lo), (1,)),
        Variable("e", 2, 1, car_e, (1,)),
    ]
    return _scheme("pair_z12", dims, ("z1", "z2"), variables)


# ---------------------------------------------------------------------------
# five-slot block reusing all four one-off-link slots plus the full slot
# ---------------------------------------------------------------------------

_FIVE_SLOTS = ("z1", "z2", "z3", "z4", "f")


@lru_cache(maxsize=_SHAPE_CACHE)
def build_zf_code(dims: Dimensions) -> CodeScheme:
    """Five-slot code over z1, z2, z3, z4 and the all-links slot.

    Requires min/max above 2/3; delivers 6 min + 2 max symbols in 5 slots.
    Variables c, d, j, k each appear in three slots; in the all-links slot
    c and j align at rx1, and d and k at rx2.
    """
    m, n = dims.m, dims.n
    if 3 * min(m, n) <= 2 * max(m, n):
        raise ValueError("five-slot code needs min/max antenna ratio above 2/3")

    if m >= n:
        wc, wp = 2 * n - m, m - n
        car_c, car_d = _pinv(1, wc), _pinv(3, wc)
        car_j, car_k = _pinv(2, wc), _pinv(4, wc)
        car_g, car_n = _null(3, wp), _null(2, wp)
        car_e, car_f = _null(3, wp), _null(1, wp)
        car_l, car_m = _null(2, wp), _null(4, wp)
    else:
        wc, wp = 2 * m - n, n - m
        car_c, car_j = _pair(1, 2, "a", wc), _pair(1, 2, "b", wc)
        car_d, car_k = _pair(3, 4, "a", wc), _pair(3, 4, "b", wc)
        car_g = car_e = car_f = _ident(wp)
        car_n = car_l = car_m = _ident(wp)
    load = _ident(min(m, n))

    variables = [
        Variable("a", 1, 1, load, (0,)),
        Variable("b", 1, 2, load, (1,)),
        Variable("c", 1, 2, car_c, (0, 3, 4)),
        Variable("d", 1, 1, car_d, (1, 2, 4)),
        Variable("e", 1, 1, car_e, (2,)),
        Variable("f", 1, 2, car_f, (3,)),
        Variable("g", 1, 1, car_g, (4,)),
        Variable("h", 2, 2, load, (2,)),
        Variable("i", 2, 1, load, (3,)),
        Variable("j", 2, 2, car_j, (0, 3, 4)),
        Variable("k", 2, 1, car_k, (1, 2, 4)),
        Variable("l", 2, 2, car_l, (0,)),
        Variable("m", 2, 1, car_m, (1,)),
        Variable("n", 2, 2, car_n, (4,)),
    ]
    return _scheme("zf_block", dims, _FIVE_SLOTS, variables)


# ---------------------------------------------------------------------------
# five-slot precoders sending every stream through all slots
# ---------------------------------------------------------------------------

# per slot: which of the eight streams each transmitter sends
_IA_PATTERN = {
    0: (("u12", "u13"), ("u22",)),
    1: (("u11", "u14"), ("u24",)),
    2: (("u14",), ("u21", "u24")),
    3: (("u12",), ("u22", "u23")),
    4: (("u12", "u14"), ("u22", "u24")),
}


def _ia_streams():
    """(stream, tx, slots) for each stream of _IA_PATTERN, in order of first appearance."""
    found = {}
    for slot, per_tx in _IA_PATTERN.items():
        for tx, streams in enumerate(per_tx, start=1):
            for stream in streams:
                found.setdefault(stream, (tx, []))[1].append(slot)
    return [(stream, tx, tuple(slots)) for stream, (tx, slots) in found.items()]


@lru_cache(maxsize=_SHAPE_CACHE)
def build_block_ia_precoder(dims: Dimensions) -> CodeScheme:
    """Fixed per-stream precoders over five slots; 8 min(m, n) symbols.

    Each stream u_tk rides one carrier in every slot it appears in: inverse
    carriers make the two cross streams land on identical coordinates at the
    unintended receiver, so each receiver solves a 5n x 5n system once.
    Requires m >= n and min/max above 1/2.
    """
    m, n = dims.m, dims.n
    if m < n:
        raise ValueError("block precoder expects m >= n; swap roles for tall shapes")
    if 2 * n <= m:
        raise ValueError("block precoder needs min/max antenna ratio above 1/2")
    rx_and_carrier = {
        "u11": (2, _ident(n)),
        "u12": (2, _pinv(1, n)),
        "u13": (1, _ident(n)),
        "u14": (1, _pinv(3, n)),
        "u21": (2, _ident(n)),
        "u22": (2, _pinv(2, n)),
        "u23": (1, _ident(n)),
        "u24": (1, _pinv(4, n)),
    }
    # columns in stream-name order
    variables = [
        Variable(stream, tx, *rx_and_carrier[stream], slots) for stream, tx, slots in sorted(_ia_streams())
    ]
    return _scheme("ia_block", dims, _FIVE_SLOTS, variables)


@lru_cache(maxsize=_SHAPE_CACHE)
def build_refined_ia_precoder(dims: Dimensions) -> CodeScheme:
    """Width-split variant of the block precoder; 6n + 2m symbols.

    The two cross streams split into an aligned part (width 2n - m, on
    alignment blocks) and private parts (width m - n, on null spaces), which
    lifts the per-five-slots load from 8n to 6n + 2m when min/max is above
    2/3. Requires m >= n.
    """
    m, n = dims.m, dims.n
    if m < n:
        raise ValueError("refined precoder expects m >= n; swap roles for tall shapes")
    if 3 * n <= 2 * m:
        raise ValueError("refined precoder needs min/max antenna ratio above 2/3")
    wc, wp = 2 * n - m, m - n
    # stream: its parts as (name, rx, carrier); columns follow each stream's
    # first appearance in _IA_PATTERN, then its parts in this order
    split = {
        # u12 sends to rx2 while aligned at rx1; its private parts hide from
        # rx1 (null 1) and from rx2 (null 3). u14 is the mirror toward rx1.
        "u12": (("u12a", 2, _pinv(1, wc)), ("u12p1", 2, _null(1, wp)), ("u12p3", 1, _null(3, wp))),
        "u14": (("u14a", 1, _pinv(3, wc)), ("u14p3", 1, _null(3, wp))),
        "u22": (("u22a", 2, _pinv(2, wc)), ("u22p2", 2, _null(2, wp))),
        "u24": (("u24a", 1, _pinv(4, wc)), ("u24p4", 1, _null(4, wp)), ("u24p2", 2, _null(2, wp))),
        "u11": (("u11", 2, _ident(n)),),
        "u13": (("u13", 1, _ident(n)),),
        "u21": (("u21", 2, _ident(n)),),
        "u23": (("u23", 1, _ident(n)),),
    }
    variables = [
        Variable(name, tx, rx, carrier, slots)
        for stream, tx, slots in _ia_streams()
        for name, rx, carrier in split[stream]
    ]
    return _scheme("ia_refined", dims, _FIVE_SLOTS, variables)


class Code(NamedTuple):
    slots: Tuple[str, ...]  # slot topologies of one block, as the built code lists them
    build: Callable[[Dimensions], CodeScheme]  # cached; raises ValueError where the code does not exist


# The catalogue, in verify's label order; a topology's one-slot code is
# labelled by the topology's name.
CODES: Dict[str, Code] = {
    "z12": Code(("z1", "z2"), lambda dims: build_z_pair_code(dims, "z12")),
    "z34": Code(("z3", "z4"), lambda dims: build_z_pair_code(dims, "z34")),
    "zf": Code(_FIVE_SLOTS, build_zf_code),
    "ia_block": Code(_FIVE_SLOTS, build_block_ia_precoder),
    "ia_refined": Code(_FIVE_SLOTS, build_refined_ia_precoder),
    "f_fallback": Code(("f",), build_f_fallback),
    **{t: Code((t,), lambda dims, t=t: build_single_topology_code(t, dims)) for t in sorted(TOPOLOGIES)},
}
