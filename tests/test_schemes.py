"""Carriers, scheme validation, and effective channels."""

from collections import Counter

import numpy as np
import pytest

import burstyx as bx
import burstyx.builders
import burstyx.schemes
import burstyx.sim
from burstyx.schemes import Carrier, CodeScheme, Variable


def _dims(m=4, n=3):
    return bx.Dimensions(m, n)


def test_identity_slice_carrier():
    ch = bx.sample_channels(_dims(), 0)
    c = Carrier("I-slice", 2, start=1)
    mat = c.materialize(ch)
    assert mat.shape == (4, 2)
    assert np.array_equal(mat, np.eye(4)[:, 1:3])


def test_pinv_and_align_carriers():
    ch = bx.sample_channels(_dims(), 1)
    pinv = Carrier("pinv", 3, ch=2).materialize(ch)
    assert np.allclose(ch.h(2) @ pinv, np.eye(3), atol=1e-10)
    al = Carrier("pinv", 2, ch=3).materialize(ch)
    assert np.allclose(ch.h(3) @ al, np.eye(3)[:, :2], atol=1e-10)


def test_null_carrier():
    ch = bx.sample_channels(_dims(), 2)
    nul = Carrier("null", 1, ch=1).materialize(ch)
    assert nul.shape == (4, 1)
    assert np.linalg.norm(ch.h(1) @ nul) < 1e-10


def test_pair_carrier_sides_align():
    ch = bx.sample_channels(_dims(3, 4), 3)
    ga = Carrier("pair", 2, ch=1, ch_b=2, side="a").materialize(ch)
    gb = Carrier("pair", 2, ch=1, ch_b=2, side="b").materialize(ch)
    assert ga.shape == (3, 2)
    assert np.linalg.norm(ch.h(1) @ ga - ch.h(2) @ gb) < 1e-10


_BASIS_FUNCTIONS = ("pseudo_inverse", "null_space_basis", "paired_alignment", "alignment_block")


def _count_basis_calls(monkeypatch, dims):
    """Run a simulation at dims, counting the basis functions' stacked calls and members.

    Returns (the kinds' codes, stacked calls per function, members per
    (function, channel aliases)).
    """
    drawn = {}
    stacked_calls = Counter()
    members = Counter()

    def alias(h):
        ch = drawn["channels"]
        return next(k for k in range(1, 5) if np.array_equal(h, ch.h(k)))

    def counting(name, fn):
        def wrapped(*stacks, **kwargs):
            assert all(np.ndim(stack) == 3 for stack in stacks), name
            stacked_calls[name] += 1
            for mats in zip(*stacks):
                members[(name,) + tuple(alias(h) for h in mats)] += 1
            return fn(*stacks, **kwargs)

        return wrapped

    for name in _BASIS_FUNCTIONS:
        monkeypatch.setattr(burstyx.schemes, name, counting(name, getattr(burstyx.schemes, name)))
    sample, materialize = burstyx.sim.sample_channels, burstyx.sim.effective_channel
    kinds = []

    def sample_once(dims, seed):
        drawn["channels"] = sample(dims, seed)
        return drawn["channels"]

    def materialize_kind(channels, scheme):
        assert channels is drawn["channels"]
        kinds.append(scheme)
        return materialize(channels, scheme)

    monkeypatch.setattr(burstyx.sim, "sample_channels", sample_once)
    monkeypatch.setattr(burstyx.sim, "effective_channel", materialize_kind)
    bx.run_simulation(dims, 0.5, 100_000, 3)
    monkeypatch.undo()
    return kinds, stacked_calls, members


def test_each_basis_is_computed_once_per_draw(monkeypatch):
    """Every kind of a run shares its draw's bases: each basis is one member
    of one stacked call, and each basis kind is one stacked call per run
    (pinv and null bases at 4x3, alignment pairs at 3x4)."""
    function_of = {"pinv": "pseudo_inverse", "null": "null_space_basis"}
    for dims, functions in [(_dims(4, 3), {"pseudo_inverse", "null_space_basis"}), (_dims(3, 4), {"paired_alignment"})]:
        kinds, stacked_calls, members = _count_basis_calls(monkeypatch, dims)
        expected = set()
        for scheme in kinds:
            for v in scheme.variables:
                c = v.carrier
                if c.kind == "pair":
                    expected.add(("paired_alignment", c.ch, c.ch_b))
                elif c.kind != "I-slice":
                    expected.add((function_of[c.kind], c.ch))
        assert len(kinds) >= 10, dims
        assert {key[0] for key in expected} == functions, dims
        assert set(members) == expected, dims
        assert set(members.values()) == {1}, dims
        assert stacked_calls == Counter(dict.fromkeys(functions, 1)), dims


def test_a_degenerate_member_of_a_stacked_pass_is_reported_alone():
    """Its key stays out of the memo, the other members are memoized bit for
    bit as their own 2-D calls, and a carrier that needs it raises."""
    rng = np.random.default_rng(12)
    wide = [rng.standard_normal((3, 4)) for _ in range(4)]
    wide[1][2] = wide[1][0] + wide[1][1]  # h12 is row-rank deficient
    ch = bx.ChannelSet(_dims(4, 3), *wide)
    carriers = [Carrier(kind, 1, ch=k) for kind in ("pinv", "null") for k in range(1, 5)]
    failures = burstyx.schemes.fill_bases(ch, carriers)
    assert failures == {("pinv", 2): "degenerate channel", ("null", 2): "degenerate channel"}
    assert set(ch.bases) == {(kind, k) for kind in ("pinv", "null") for k in (1, 3, 4)}
    for k in (1, 3, 4):
        assert np.array_equal(ch.bases["pinv", k], bx.pseudo_inverse(ch.h(k)))
        assert np.array_equal(ch.bases["null", k], bx.null_space_basis(ch.h(k)))
    for kind in ("pinv", "null"):
        with pytest.raises(ValueError, match="degenerate channel"):
            Carrier(kind, 1, ch=2).materialize(ch)
    assert ("pinv", 2) not in ch.bases and ("null", 2) not in ch.bases

    tall = [rng.standard_normal((4, 3)) for _ in range(4)]
    tall[1] = tall[0]  # [h11 | -h12] has rank 3 < 4
    ch = bx.ChannelSet(_dims(3, 4), *tall)
    pairs = [Carrier("pair", 1, ch=a, ch_b=a + 1, side="a") for a in (1, 3)]
    assert burstyx.schemes.fill_bases(ch, pairs) == {
        ("pair", 1, 2, "a"): "degenerate channel",
        ("pair", 1, 2, "b"): "degenerate channel",
    }
    assert set(ch.bases) == {("pair", 3, 4, "a"), ("pair", 3, 4, "b")}
    ga, gb = bx.paired_alignment(ch.h(3), ch.h(4))
    assert np.array_equal(ch.bases["pair", 3, 4, "a"], ga) and np.array_equal(ch.bases["pair", 3, 4, "b"], gb)
    with pytest.raises(ValueError, match="degenerate channel"):
        pairs[0].materialize(ch)
    with pytest.raises(ValueError, match="no null space"):  # a kind that does not fit the shape fails as a whole
        Carrier("null", 1, ch=1).materialize(ch)


def test_memoized_bases_are_read_only():
    cases = [
        (_dims(4, 3), [Carrier("pinv", 3, ch=2), Carrier("pinv", 2, ch=2), Carrier("null", 1, ch=1)]),
        (_dims(3, 4), [Carrier("pair", 2, ch=1, ch_b=2, side="a"), Carrier("I-slice", 2, start=1)]),
    ]
    for dims, carriers in cases:
        channels = bx.sample_channels(dims, 4)
        blocks = [c.materialize(channels) for c in carriers]
        blocks += list(channels.bases.values())
        assert len(blocks) > len(carriers)
        for block in blocks:
            with pytest.raises(ValueError):
                block[0, 0] = 1.0


def test_every_carrier_kind_slices_one_memoized_basis():
    """I_M and the two pair sides are stored once per draw; each kind is bounded by its basis."""
    ch = bx.sample_channels(_dims(3, 4), 2)
    eye = Carrier("I-slice", 2, start=1).materialize(ch)
    assert np.array_equal(eye, np.eye(3, 2, -1))
    Carrier("pair", 1, ch=1, ch_b=2, side="a").materialize(ch)
    assert set(ch.bases) == {("I-slice", None), ("pair", 1, 2, "a"), ("pair", 1, 2, "b")}
    assert eye.base is Carrier("I-slice", 1).materialize(ch).base is ch.bases["I-slice", None]
    bad = [
        (Carrier("I-slice", 2, start=2), "I-slice slice exceeds available columns"),
        (Carrier("pair", 3, ch=1, ch_b=2, side="b"), "pair slice exceeds available columns"),
        (Carrier("pair", 2, ch=1, ch_b=2, side="b", start=1), "pair slice exceeds available columns"),
    ]
    for carrier, message in bad:
        with pytest.raises(ValueError, match=message):
            carrier.materialize(ch)


def test_leading_pinv_carrier_is_the_alignment_block():
    ch = bx.sample_channels(_dims(5, 3), 9)
    for k in range(4):
        block = Carrier("pinv", k, ch=3).materialize(ch)
        assert np.array_equal(block, bx.alignment_block(ch.h(3), k))
    with pytest.raises(ValueError, match="unknown carrier kind"):
        Carrier("align", 2, ch=3)


def _two_stream_scheme(dims, topo="f"):
    """Hand-rolled one-slot code: each tx sends its own identity load."""
    m = dims.m
    return CodeScheme(
        f"manual_{topo}",
        dims,
        (topo,),
        (
            Variable("u1", 1, 1, Carrier("I-slice", m), (0,)),
            Variable("u2", 2, 2, Carrier("I-slice", m), (0,)),
        ),
    )


def test_effective_channel_stacks_per_receiver():
    dims = _dims(2, 2)
    ch = bx.sample_channels(dims, 4)
    eff = bx.effective_channel(ch, _two_stream_scheme(dims))
    assert eff.matrix.shape == (4, 4)
    # rows: rx1 then rx2; columns: u1 then u2
    assert np.array_equal(eff.matrix[:2, :2], ch.h(1))
    assert np.array_equal(eff.matrix[:2, 2:], ch.h(2))
    assert np.array_equal(eff.matrix[2:, :2], ch.h(3))
    assert np.array_equal(eff.matrix[2:, 2:], ch.h(4))


def test_effective_channel_gates_dead_links():
    dims = _dims(2, 2)
    ch = bx.sample_channels(dims, 4)
    eff = bx.effective_channel(ch, _two_stream_scheme(dims, "z1"))  # rx2<-tx1 is off
    assert np.all(eff.matrix[2:, :2] == 0.0)
    assert np.array_equal(eff.matrix[2:, 2:], ch.h(4))


def test_effective_channel_column_order():
    """A message stacks the variables in order; eff.matrix reads it as laid out."""
    dims = _dims(2, 2)
    ch = bx.sample_channels(dims, 6)
    scheme = _two_stream_scheme(dims)
    eff = bx.effective_channel(ch, scheme)
    assert eff.scheme is scheme
    assert scheme.columns == {"u1": slice(0, 2), "u2": slice(2, 4)}
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = eff.matrix @ x
    assert np.allclose(y[:2], ch.h(1) @ x[:2] + ch.h(2) @ x[2:])


def test_effective_channel_sends_each_variable_in_its_slots_only():
    """Rows of (rx, slot) start at ((rx - 1) * n_slots + slot) * N."""
    dims = _dims(2, 2)
    ch = bx.sample_channels(dims, 7)
    scheme = CodeScheme(
        "manual_two_slots",
        dims,
        ("f", "z2"),  # rx1<-tx1 is off in slot 1
        (
            Variable("u", 1, 1, Carrier("I-slice", 1), (0, 1)),
            Variable("v", 2, 2, Carrier("I-slice", 1, start=1), (1,)),
        ),
    )
    eff = bx.effective_channel(ch, scheme)
    assert eff.matrix.shape == (8, 2)
    u, v = eff.matrix[:, 0], eff.matrix[:, 1]
    expected_u = [ch.h(1)[:, 0], np.zeros(2), ch.h(3)[:, 0], ch.h(3)[:, 0]]
    expected_v = [np.zeros(2), ch.h(2)[:, 1], np.zeros(2), ch.h(4)[:, 1]]
    for block in range(4):
        rows = slice(2 * block, 2 * block + 2)
        assert np.array_equal(u[rows], expected_u[block]), block
        assert np.array_equal(v[rows], expected_v[block]), block


def _every_code(dims):
    """Each distinct code of the catalogue (the scheduler's kinds and the verify labels) at dims."""
    codes = {}
    for entry in burstyx.builders.CODES.values():
        try:
            scheme = entry.build(dims)
        except ValueError:
            continue  # infeasible at this shape
        codes[id(scheme)] = scheme
    return list(codes.values())


def _slot_by_slot(channels, scheme):
    """The stacked receive matrix with one product per (variable, slot, receiver)."""
    n, s_count = channels.dims.n, scheme.n_slots
    matrix = np.zeros((2 * s_count * n, scheme.total_symbols))
    cache = {}
    for v in scheme.variables:
        if v.carrier not in cache:
            cache[v.carrier] = v.carrier.materialize(channels)
        cols = scheme.columns[v.name]
        for slot in v.slots:
            topo = scheme.topology(slot)
            for rx in (1, 2):
                if topo.link(rx, v.tx):
                    r0 = ((rx - 1) * s_count + slot) * n
                    matrix[r0 : r0 + n, cols] = channels.link_matrix(rx, v.tx) @ cache[v.carrier]
    return matrix


@pytest.mark.parametrize("m", range(1, 13))
def test_effective_channel_equals_the_slot_by_slot_products_bit_for_bit(m):
    for n in range(1, 13):
        dims = _dims(m, n)
        ch = bx.sample_channels(dims, 11)
        for scheme in _every_code(dims):
            eff = bx.effective_channel(ch, scheme)
            assert np.array_equal(eff.matrix, _slot_by_slot(ch, scheme)), (scheme.name, m, n)
            assert scheme.placements is scheme.placements


def test_validation_rejects_duplicate_names():
    dims = _dims(2, 2)
    with pytest.raises(ValueError, match="duplicate"):
        CodeScheme(
            "bad",
            dims,
            ("f",),
            (
                Variable("u", 1, 1, Carrier("I-slice", 2), (0,)),
                Variable("u", 2, 2, Carrier("I-slice", 2), (0,)),
            ),
        )


def test_validation_rejects_unknown_topology():
    dims = _dims(2, 2)
    with pytest.raises(ValueError, match="topology"):
        CodeScheme("bad", dims, ("nothere",), (Variable("u", 1, 1, Carrier("I-slice", 2), (0,)),))


def test_validation_rejects_zero_length_variable():
    # builders create zero-length variables and drop them before validation
    empty = Variable("z", 2, 2, Carrier("I-slice", 0), (0,))
    with pytest.raises(ValueError, match="zero length"):
        CodeScheme(
            "bad",
            _dims(2, 2),
            ("f",),
            (Variable("u", 1, 1, Carrier("I-slice", 2), (0,)), empty),
        )


@pytest.mark.parametrize(
    "width, slots, message",
    [
        (2, (), "distinct slots below 2"),
        (2, (1, 1), "distinct slots below 2"),
        (2, (2,), "distinct slots below 2"),
        (2, (-1,), "distinct slots below 2"),
        (0, (0,), "zero length"),
    ],
    ids=["empty-slots", "repeated-slot", "slot-past-the-end", "negative-slot", "zero-width"],
)
def test_validation_rejects_bad_variables(width, slots, message):
    """A variable's slots are non-empty, distinct and in range; its width is positive."""
    u = Variable("u", 1, 1, Carrier("I-slice", width), slots)
    with pytest.raises(ValueError, match=message):
        CodeScheme("bad", _dims(2, 2), ("f", "z1"), (u,))


def test_receiver_columns_split_by_receiver_once_per_scheme():
    """A receiver's interference is every other receiver's column that its
    links reach; the columns left out are exactly zero in its rows."""
    scheme = bx.build_zf_code(_dims(4, 3))
    assert scheme.receiver_columns is scheme.receiver_columns
    assert scheme.columns is bx.build_zf_code(_dims(4, 3)).columns
    eff = bx.effective_channel(bx.sample_channels(_dims(4, 3), 5), scheme)
    height = eff.matrix.shape[0] // 2
    for rx in (1, 2):
        desired, interference = scheme.receiver_columns[rx]

        def columns(keep):
            return [
                col
                for v in scheme.variables
                if keep(v)
                for col in range(scheme.columns[v.name].start, scheme.columns[v.name].stop)
            ]

        def heard(v):
            return any(scheme.topology(slot).link(rx, v.tx) for slot in v.slots)

        assert desired.tolist() == columns(lambda v: v.rx == rx)
        assert interference.tolist() == columns(lambda v: v.rx != rx and heard(v))
        dropped = columns(lambda v: v.rx != rx and not heard(v))
        assert dropped
        assert sorted(desired.tolist() + interference.tolist() + dropped) == list(range(scheme.total_symbols))
        assert np.all(eff.matrix[(rx - 1) * height : rx * height, dropped] == 0.0)
        with pytest.raises(ValueError):
            desired[0] = 0


def test_total_symbols_counts_lengths():
    scheme = bx.build_z_pair_code(_dims(4, 3), "z12")
    assert scheme.total_symbols == sum(v.length for v in scheme.variables)
    assert scheme.total_symbols == 10
    assert scheme.column_starts.tolist() == [blk.start for blk in scheme.columns.values()]
    with pytest.raises(ValueError):
        scheme.column_starts[0] = 1
