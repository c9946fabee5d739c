"""Constructive coding schemes for every topology and multi-slot pattern.

Channel index conventions (see channel.ChannelSet): h(1) is rx1 from tx1,
h(2) rx1 from tx2, h(3) rx2 from tx1, h(4) rx2 from tx2. A carrier built on
null(h(k)) is invisible at the receiver of link k; a pseudo-inverse carrier
on h(k) lands on consecutive coordinates of that receiver's space, the
leading ones (an alignment block) when it starts at column 0.

Single-slot codes exist for all sixteen topologies; the all-links topology
is the only one with shape restrictions, and build_f_fallback covers the
rest by reusing the broadcast or multiple-access code on the all-links
slot. Multi-slot codes pair the one-cross-link topologies, with optional
reuse of the all-links slot, and two precoders send every stream through
all five interesting slots at once.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Sequence, Union

from .channel import Dimensions, TOPOLOGIES, Topology
from .schemes import Carrier, CodeScheme, Placement, Variable

__all__ = [
    "build_single_topology_code",
    "build_f_fallback",
    "build_z_pair_code",
    "build_zf_code",
    "build_block_ia_precoder",
    "build_refined_ia_precoder",
]


# Each public builder is a pure function of its arguments and CodeScheme is
# frozen, so a code is built once per shape and then shared. The bound keeps
# memory flat when a caller sweeps many shapes.
_SHAPE_CACHE = 64


def _ident(width: int, start: int = 0) -> Carrier:
    return Carrier("I-slice", width, start=start)


def _pinv(ch: int, width: int, start: int = 0) -> Carrier:
    return Carrier("pinv", width, ch=ch, start=start)


def _null(ch: int, width: int) -> Carrier:
    return Carrier("null", width, ch=ch)


def _pair(ch_a: int, ch_b: int, side: str, width: int) -> Carrier:
    return Carrier("pair", width, ch=ch_a, ch_b=ch_b, side=side)


def _scheme(
    name: str,
    dims: Dimensions,
    slots: Sequence[str],
    variables: Sequence[Variable],
    placements: Sequence[Placement],
) -> CodeScheme:
    """Drop zero-length variables, then validate."""
    keep = {v.name for v in variables if v.length > 0}
    return CodeScheme(
        name=name,
        dims=dims,
        slot_topologies=tuple(slots),
        variables=tuple(v for v in variables if v.name in keep),
        placements=tuple(pl for pl in placements if pl.var in keep),
    )


# ---------------------------------------------------------------------------
# single-slot codes
# ---------------------------------------------------------------------------


def _single_link(dims: Dimensions, tx: int, rx: int, topo: str) -> CodeScheme:
    w = min(dims.m, dims.n)
    return _scheme(
        f"single_{topo}",
        dims,
        (topo,),
        [Variable("a", w, tx, rx)],
        [Placement(0, tx, "a", _ident(w))],
    )


def _mac(dims: Dimensions, rx: int, topo: str) -> CodeScheme:
    total = min(2 * dims.m, dims.n)
    wa = min(dims.m, (total + 1) // 2)
    wb = total - wa
    return _scheme(
        f"single_{topo}",
        dims,
        (topo,),
        [Variable("a", wa, 1, rx), Variable("b", wb, 2, rx)],
        [Placement(0, 1, "a", _ident(wa)), Placement(0, 2, "b", _ident(wb))],
    )


def _bc(dims: Dimensions, tx: int, topo: str) -> CodeScheme:
    m, n = dims.m, dims.n
    side = min(max(m - n, 0), n)
    mid = min(m, 2 * n) - 2 * side
    # null(h(to rx2)) keeps a private to rx1; null(h(to rx1)) keeps c private
    # to rx2; the shared part b is decoded by rx1 and projected out by rx2.
    ch_rx2 = 3 if tx == 1 else 4
    ch_rx1 = 1 if tx == 1 else 2
    return _scheme(
        f"single_{topo}",
        dims,
        (topo,),
        [
            Variable("a", side, tx, 1),
            Variable("b", mid, tx, 1),
            Variable("c", side, tx, 2),
        ],
        [
            Placement(0, tx, "a", _null(ch_rx2, side)),
            Placement(0, tx, "b", _ident(mid)),
            Placement(0, tx, "c", _null(ch_rx1, side)),
        ],
    )


def _par(dims: Dimensions, direct: bool, topo: str) -> CodeScheme:
    w = min(dims.m, dims.n)
    rx_of_tx1 = 1 if direct else 2
    rx_of_tx2 = 2 if direct else 1
    return _scheme(
        f"single_{topo}",
        dims,
        (topo,),
        [Variable("a", w, 1, rx_of_tx1), Variable("b", w, 2, rx_of_tx2)],
        [Placement(0, 1, "a", _ident(w)), Placement(0, 2, "b", _ident(w))],
    )


# For each one-off-link topology: (off link, solo rx, solo tx, null channel).
# The receiver at the far end of the off link sees a single transmitter and
# takes a full load; the other transmitter hides behind a null space.
_Z_TABLE = {
    # topo: (rx seeing both tx, rx seeing one tx, tx seen by the solo rx)
    "z1": (1, 2, 2),
    "z2": (2, 1, 2),
    "z3": (2, 1, 1),
    "z4": (1, 2, 1),
}

# null channel hiding the solo-side signal from the two-link receiver
_Z_NULL = {"z1": 2, "z2": 4, "z3": 3, "z4": 1}


def _z_single(dims: Dimensions, topo: str) -> CodeScheme:
    m, n = dims.m, dims.n
    both_rx, solo_rx, solo_tx = _Z_TABLE[topo]
    if m >= n:
        # the transmitter heard only by the two-link receiver loads it with n
        # clear streams; the shared transmitter squeezes min(m - n, n) more to
        # its solo receiver behind the null space of its link to the other one
        other_tx = 2 if solo_tx == 1 else 1
        w_extra = min(m - n, n)
        return _scheme(
            f"single_{topo}",
            dims,
            (topo,),
            [
                Variable("a", n, other_tx, both_rx),
                Variable("u", w_extra, solo_tx, solo_rx),
            ],
            [
                Placement(0, other_tx, "a", _ident(n)),
                Placement(0, solo_tx, "u", _null(_Z_NULL[topo], w_extra)),
            ],
        )
    # m < n: the two-link receiver decodes a joint load min(2m, n).
    w2 = min(m, n - m)
    return _scheme(
        f"single_{topo}",
        dims,
        (topo,),
        [Variable("g", m, 1, both_rx), Variable("h", w2, 2, both_rx)],
        [Placement(0, 1, "g", _ident(m)), Placement(0, 2, "h", _ident(w2))],
    )


def _full(dims: Dimensions) -> CodeScheme:
    m, n = dims.m, dims.n
    if m >= n and 3 * n <= 2 * m:
        # both transmitters zero-force both ways; each receiver sees only its
        # own n streams split across the two transmitters
        hi, lo = (n + 1) // 2, n // 2
        return _scheme(
            "single_f",
            dims,
            ("f",),
            [
                Variable("s1", hi, 1, 1),
                Variable("s2", lo, 2, 1),
                Variable("t1", lo, 1, 2),
                Variable("t2", hi, 2, 2),
            ],
            [
                Placement(0, 1, "s1", _null(3, hi)),
                Placement(0, 2, "s2", _null(4, lo)),
                Placement(0, 1, "t1", _null(1, lo)),
                Placement(0, 2, "t2", _null(2, hi)),
            ],
        )
    if m < n and 3 * m <= 2 * n:
        # tall orientation: alignment pairs collapse the cross traffic into
        # shared receive directions, identity fills the rest
        k = max(2 * m - n, 0)
        w = m - 2 * k
        return _scheme(
            "single_f",
            dims,
            ("f",),
            [
                Variable("u", k, 1, 2),
                Variable("uu", k, 2, 2),
                Variable("v", k, 1, 1),
                Variable("vv", k, 2, 1),
                Variable("x1", w, 1, 1),
                Variable("x2", w, 2, 1),
            ],
            [
                Placement(0, 1, "u", _pair(1, 2, "a", k)),
                Placement(0, 2, "uu", _pair(1, 2, "b", k)),
                Placement(0, 1, "v", _pair(3, 4, "a", k)),
                Placement(0, 2, "vv", _pair(3, 4, "b", k)),
                Placement(0, 1, "x1", _ident(w)),
                Placement(0, 2, "x2", _ident(w)),
            ],
        )
    if m == n and m % 3 == 0:
        # equal antennas divisible by three: each transmitter splits between
        # the two receivers, and each receiver sees the two foreign streams
        # aligned into one third of its space
        w = m // 3
        return _scheme(
            "single_f",
            dims,
            ("f",),
            [
                Variable("w11", w, 1, 1),
                Variable("w21", w, 1, 2),
                Variable("w12", w, 2, 1),
                Variable("w22", w, 2, 2),
            ],
            [
                Placement(0, 1, "w11", _pinv(3, w)),
                Placement(0, 1, "w21", _pinv(1, w)),
                Placement(0, 2, "w12", _pinv(4, w)),
                Placement(0, 2, "w22", _pinv(2, w)),
            ],
        )
    raise ValueError(
        "standalone all-links code needs min/max at most 2/3 "
        "or equal antenna counts divisible by 3"
    )


@lru_cache(maxsize=_SHAPE_CACHE)
def build_f_fallback(dims: Dimensions) -> CodeScheme:
    """Best single-slot load on the all-links topology at awkward shapes.

    Reuses a two-link code that stays decodable with every link on: the
    broadcast code of tx1 (bc1) when m >= n, and otherwise the multiple
    access code into rx1 (mac1). Delivers min(max(m, n), 2 min(m, n))
    symbols; raises when n > 2m, where the standalone all-links code applies.
    """
    if dims.m >= dims.n:
        scheme = _bc(dims, 1, "f")
    elif dims.n > 2 * dims.m:
        raise ValueError("fallback all-links code needs min/max above 1/2")
    else:
        scheme = _mac(dims, 1, "f")
    return replace(scheme, name="f_fallback")


@lru_cache(maxsize=_SHAPE_CACHE)
def build_single_topology_code(
    topology: Union[str, Topology], dims: Dimensions
) -> CodeScheme:
    """One-slot code for a fixed topology.

    Unsupported only for the all-links topology at shapes where neither
    two-sided zero forcing nor the equal-antenna split applies; see
    build_f_fallback for the substitute used by the scheduler.
    """
    name = topology.name if isinstance(topology, Topology) else topology
    if name not in TOPOLOGIES:
        raise ValueError(f"unknown topology {name!r}")
    if name == "empty":
        return _scheme("single_empty", dims, ("empty",), [], [])
    if name == "s11":
        return _single_link(dims, 1, 1, name)
    if name == "s12":
        return _single_link(dims, 2, 1, name)
    if name == "s21":
        return _single_link(dims, 1, 2, name)
    if name == "s22":
        return _single_link(dims, 2, 2, name)
    if name == "mac1":
        return _mac(dims, 1, name)
    if name == "mac2":
        return _mac(dims, 2, name)
    if name == "bc1":
        return _bc(dims, 1, name)
    if name == "bc2":
        return _bc(dims, 2, name)
    if name == "par_direct":
        return _par(dims, True, name)
    if name == "par_cross":
        return _par(dims, False, name)
    if name in _Z_TABLE:
        return _z_single(dims, name)
    return _full(dims)


# ---------------------------------------------------------------------------
# paired one-off-link slots
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_SHAPE_CACHE)
def build_z_pair_code(dims: Dimensions, pair: str = "z12") -> CodeScheme:
    """Two-slot code reusing one variable across a matched topology pair.

    pair selects ("z1","z2") or ("z3","z4"). Requires min/max above 1/2;
    delivers 2 min + max symbols over the two slots.
    """
    m, n = dims.m, dims.n
    if 2 * min(m, n) <= max(m, n):
        raise ValueError("paired code needs min/max antenna ratio above 1/2")
    if pair not in ("z12", "z34"):
        raise ValueError("pair must be 'z12' or 'z34'")
    slots = ("z1", "z2") if pair == "z12" else ("z3", "z4")

    if pair == "z12":
        # reused variable c and helpers b, e ride on tx2; a, d are tx1 loads
        load_tx, help_tx = 1, 2
        null_first, null_second = 2, 4  # hide b from rx1 in z1, e from rx1 in z2
        first_solo_rx, second_solo_rx = 2, 1
    else:
        load_tx, help_tx = 2, 1
        null_first, null_second = 3, 1  # hide b from rx2 in z3, e from rx2 in z4
        first_solo_rx, second_solo_rx = 1, 2
    load_rx_first = 2 if first_solo_rx == 2 else 1

    if m >= n:
        wb, wc = m - n, 2 * n - m
        variables = [
            Variable("a", n, load_tx, 3 - first_solo_rx),
            Variable("b", wb, help_tx, first_solo_rx),
            Variable("c", wc, help_tx, first_solo_rx),
            Variable("d", n, load_tx, first_solo_rx),
            Variable("e", wb, help_tx, second_solo_rx),
        ]
        placements = [
            Placement(0, load_tx, "a", _ident(n)),
            Placement(0, help_tx, "b", _null(null_first, wb)),
            Placement(0, help_tx, "c", _ident(wc)),
            Placement(1, load_tx, "d", _ident(n)),
            Placement(1, help_tx, "e", _null(null_second, wb)),
            Placement(1, help_tx, "c", _ident(wc)),
        ]
    else:
        wb, wc = n - m, 2 * m - n
        variables = [
            Variable("a", m, load_tx, 3 - first_solo_rx),
            Variable("b", wb, help_tx, first_solo_rx),
            Variable("c", wc, help_tx, first_solo_rx),
            Variable("d", m, load_tx, first_solo_rx),
            Variable("e", wb, help_tx, second_solo_rx),
        ]
        placements = [
            Placement(0, load_tx, "a", _ident(m)),
            Placement(0, help_tx, "b", _ident(wb)),
            Placement(0, help_tx, "c", _ident(wc, start=wb)),
            Placement(1, load_tx, "d", _ident(m)),
            Placement(1, help_tx, "e", _ident(wb)),
            Placement(1, help_tx, "c", _ident(wc, start=wb)),
        ]
    return _scheme(f"pair_{pair}", dims, slots, variables, placements)


# ---------------------------------------------------------------------------
# five-slot block reusing all four one-off-link slots plus the full slot
# ---------------------------------------------------------------------------


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
    slots = ("z1", "z2", "z3", "z4", "f")

    if m >= n:
        wc, wp = 2 * n - m, m - n
        car_c, car_d = _pinv(1, wc), _pinv(3, wc)
        car_j, car_k = _pinv(2, wc), _pinv(4, wc)
        car_g, car_n = _null(3, wp), _null(2, wp)
        car_e, car_f = _null(3, wp), _null(1, wp)
        car_l, car_m = _null(2, wp), _null(4, wp)
        w_load = n
        load = _ident(n)
    else:
        wc, wp = 2 * m - n, n - m
        car_c, car_j = _pair(1, 2, "a", wc), _pair(1, 2, "b", wc)
        car_d, car_k = _pair(3, 4, "a", wc), _pair(3, 4, "b", wc)
        car_g = car_e = car_f = _ident(wp)
        car_n = car_l = car_m = _ident(wp)
        w_load = m
        load = _ident(m)

    variables = [
        Variable("a", w_load, 1, 1),
        Variable("b", w_load, 1, 2),
        Variable("c", wc, 1, 2),
        Variable("d", wc, 1, 1),
        Variable("e", wp, 1, 1),
        Variable("f", wp, 1, 2),
        Variable("g", wp, 1, 1),
        Variable("h", w_load, 2, 2),
        Variable("i", w_load, 2, 1),
        Variable("j", wc, 2, 2),
        Variable("k", wc, 2, 1),
        Variable("l", wp, 2, 2),
        Variable("m", wp, 2, 1),
        Variable("n", wp, 2, 2),
    ]
    placements = [
        Placement(0, 1, "a", load),
        Placement(0, 1, "c", car_c),
        Placement(0, 2, "j", car_j),
        Placement(0, 2, "l", car_l),
        Placement(1, 1, "b", load),
        Placement(1, 1, "d", car_d),
        Placement(1, 2, "k", car_k),
        Placement(1, 2, "m", car_m),
        Placement(2, 1, "d", car_d),
        Placement(2, 1, "e", car_e),
        Placement(2, 2, "h", load),
        Placement(2, 2, "k", car_k),
        Placement(3, 1, "c", car_c),
        Placement(3, 1, "f", car_f),
        Placement(3, 2, "i", load),
        Placement(3, 2, "j", car_j),
        Placement(4, 1, "c", car_c),
        Placement(4, 1, "d", car_d),
        Placement(4, 1, "g", car_g),
        Placement(4, 2, "j", car_j),
        Placement(4, 2, "k", car_k),
        Placement(4, 2, "n", car_n),
    ]
    return _scheme("zf_block", dims, slots, variables, placements)


# ---------------------------------------------------------------------------
# five-slot precoders sending every stream through all slots
# ---------------------------------------------------------------------------

_IA_SLOTS = ("z1", "z2", "z3", "z4", "f")

# per slot: which of the eight streams each transmitter sends
_IA_PATTERN = {
    0: (("u12", "u13"), ("u22",)),
    1: (("u11", "u14"), ("u24",)),
    2: (("u14",), ("u21", "u24")),
    3: (("u12",), ("u22", "u23")),
    4: (("u12", "u14"), ("u22", "u24")),
}


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
    carriers = {
        "u11": _ident(n),
        "u12": _pinv(1, n),
        "u13": _ident(n),
        "u14": _pinv(3, n),
        "u21": _ident(n),
        "u22": _pinv(2, n),
        "u23": _ident(n),
        "u24": _pinv(4, n),
    }
    variables = [
        Variable("u11", n, 1, 2),
        Variable("u12", n, 1, 2),
        Variable("u13", n, 1, 1),
        Variable("u14", n, 1, 1),
        Variable("u21", n, 2, 2),
        Variable("u22", n, 2, 2),
        Variable("u23", n, 2, 1),
        Variable("u24", n, 2, 1),
    ]
    placements = [
        Placement(slot, tx, var, carriers[var])
        for slot, (tx1_vars, tx2_vars) in _IA_PATTERN.items()
        for tx, var_list in ((1, tx1_vars), (2, tx2_vars))
        for var in var_list
    ]
    return _scheme("ia_block", dims, _IA_SLOTS, variables, placements)


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
    split = {
        # u12 sends to rx2 while aligned at rx1; its private parts hide from
        # rx1 (null 1) and from rx2 (null 3). u14 is the mirror toward rx1.
        "u12": (("u12a", _pinv(1, wc), wc), ("u12p1", _null(1, wp), wp), ("u12p3", _null(3, wp), wp)),
        "u14": (("u14a", _pinv(3, wc), wc), ("u14p3", _null(3, wp), wp)),
        "u22": (("u22a", _pinv(2, wc), wc), ("u22p2", _null(2, wp), wp)),
        "u24": (("u24a", _pinv(4, wc), wc), ("u24p4", _null(4, wp), wp), ("u24p2", _null(2, wp), wp)),
        "u11": (("u11", _ident(n), n),),
        "u13": (("u13", _ident(n), n),),
        "u21": (("u21", _ident(n), n),),
        "u23": (("u23", _ident(n), n),),
    }
    rx_of = {
        "u11": 2, "u12a": 2, "u12p1": 2, "u12p3": 1, "u13": 1,
        "u14a": 1, "u14p3": 1, "u21": 2, "u22a": 2, "u22p2": 2,
        "u23": 1, "u24a": 1, "u24p4": 1, "u24p2": 2,
    }
    variables = []
    placements = []
    seen = set()
    for slot, (tx1_vars, tx2_vars) in _IA_PATTERN.items():
        for tx, var_list in ((1, tx1_vars), (2, tx2_vars)):
            for stream in var_list:
                for name, carrier, width in split[stream]:
                    if name not in seen:
                        seen.add(name)
                        variables.append(Variable(name, width, tx, rx_of[name]))
                    placements.append(Placement(slot, tx, name, carrier))
    return _scheme("ia_refined", dims, _IA_SLOTS, variables, placements)
