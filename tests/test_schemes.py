"""Carriers, scheme validation, and effective channels."""

from collections import Counter

import numpy as np
import pytest

import burstyx as bx
import burstyx.cli
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


def test_each_basis_is_computed_once_per_draw(monkeypatch):
    """Every kind of a 4x3 run shares its draw's bases."""
    drawn = {}
    calls = Counter()

    def counting(name, fn):
        def wrapped(*mats, **kwargs):
            ch = drawn["channels"]
            aliases = tuple(next(k for k in range(1, 5) if h is ch.h(k)) for h in mats)
            calls[(name,) + aliases] += 1
            return fn(*mats, **kwargs)

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
    bx.run_simulation(_dims(4, 3), 0.5, 100_000, 3)

    function_of = {"pinv": "pseudo_inverse", "null": "null_space_basis"}
    expected = set()
    for scheme in kinds:
        for v in scheme.variables:
            c = v.carrier
            if c.kind == "pair":
                expected.add(("paired_alignment", c.ch, c.ch_b))
            elif c.kind != "I-slice":
                expected.add((function_of[c.kind], c.ch))
    assert len(kinds) >= 10
    assert {key[0] for key in expected} == {"pseudo_inverse", "null_space_basis"}
    assert set(calls) == expected
    assert set(calls.values()) == {1}


def test_memoized_bases_are_read_only():
    cases = [
        (_dims(4, 3), [Carrier("pinv", 3, ch=2), Carrier("pinv", 2, ch=2), Carrier("null", 1, ch=1)]),
        (_dims(3, 4), [Carrier("pair", 2, ch=1, ch_b=2, side="a"), Carrier("pair", 2, ch=1, ch_b=2, side="b")]),
    ]
    for dims, carriers in cases:
        channels = bx.sample_channels(dims, 4)
        blocks = [c.materialize(channels) for c in carriers]
        for basis in channels.bases.values():
            blocks += list(basis) if isinstance(basis, tuple) else [basis]
        assert len(blocks) > len(carriers)
        for block in blocks:
            with pytest.raises(ValueError):
                block[0, 0] = 1.0


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
    """Each distinct code of the scheduler's kinds and of the verify labels at dims."""
    builds = [kind.build for kind in burstyx.sim._KINDS.values()] + list(burstyx.cli._CONSTRUCTIONS.values())
    codes = {}
    for build in builds:
        try:
            scheme = build(dims)
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
    scheme = bx.build_zf_code(_dims(4, 3))
    assert scheme.receiver_columns is scheme.receiver_columns
    assert scheme.columns is bx.build_zf_code(_dims(4, 3)).columns
    for rx in (1, 2):
        desired, interference = scheme.receiver_columns[rx]
        want = [
            col
            for v in scheme.variables
            if v.rx == rx
            for col in range(scheme.columns[v.name].start, scheme.columns[v.name].stop)
        ]
        assert desired.tolist() == want
        assert sorted(desired.tolist() + interference.tolist()) == list(range(scheme.total_symbols))
        with pytest.raises(ValueError):
            desired[0] = 0


def test_total_symbols_counts_lengths():
    scheme = bx.build_z_pair_code(_dims(4, 3), "z12")
    assert scheme.total_symbols == sum(v.length for v in scheme.variables)
    assert scheme.total_symbols == 10
    assert scheme.column_starts.tolist() == [blk.start for blk in scheme.columns.values()]
    with pytest.raises(ValueError):
        scheme.column_starts[0] = 1
