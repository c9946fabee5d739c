"""Carriers, scheme validation, and effective channels."""

from collections import Counter

import numpy as np
import pytest

import burstyx as bx
import burstyx.schemes
import burstyx.sim
from burstyx.schemes import Carrier, CodeScheme, Placement, Variable


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
    al = Carrier("align", 2, ch=3).materialize(ch)
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

    function_of = {"pinv": "pseudo_inverse", "align": "pseudo_inverse", "null": "null_space_basis"}
    expected = set()
    for scheme in kinds:
        for pl in scheme.placements:
            c = pl.carrier
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
        (_dims(4, 3), [Carrier("pinv", 3, ch=2), Carrier("align", 2, ch=2), Carrier("null", 1, ch=1)]),
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


def test_align_carrier_is_the_leading_pinv_columns():
    ch = bx.sample_channels(_dims(5, 3), 9)
    for k in range(4):
        block = Carrier("align", k, ch=3).materialize(ch)
        assert np.array_equal(block, bx.alignment_block(ch.h(3), k))
        assert np.array_equal(block, Carrier("pinv", k, ch=3).materialize(ch))


def _two_stream_scheme(dims):
    """Hand-rolled all-links slot: each tx sends its own identity load."""
    m = dims.m
    return CodeScheme(
        "manual_f",
        dims,
        ("f",),
        (Variable("u1", m, 1, 1), Variable("u2", m, 2, 2)),
        (
            Placement(0, 1, "u1", Carrier("I-slice", m)),
            Placement(0, 2, "u2", Carrier("I-slice", m)),
        ),
    )


def test_effective_channel_stacks_per_receiver():
    dims = _dims(2, 2)
    ch = bx.sample_channels(dims, 4)
    eff = bx.effective_channel(ch, _two_stream_scheme(dims))
    assert eff.matrix.shape == (4, 4)
    assert np.array_equal(eff.block(1, 0, "u1"), ch.h(1))
    assert np.array_equal(eff.block(1, 0, "u2"), ch.h(2))
    assert np.array_equal(eff.block(2, 0, "u1"), ch.h(3))
    assert np.array_equal(eff.block(2, 0, "u2"), ch.h(4))


def test_effective_channel_gates_dead_links():
    dims = _dims(2, 2)
    ch = bx.sample_channels(dims, 4)
    scheme = CodeScheme(
        "manual_z1",
        dims,
        ("z1",),  # rx2<-tx1 is off
        (Variable("u1", 2, 1, 1), Variable("u2", 2, 2, 2)),
        (
            Placement(0, 1, "u1", Carrier("I-slice", 2)),
            Placement(0, 2, "u2", Carrier("I-slice", 2)),
        ),
    )
    eff = bx.effective_channel(ch, scheme)
    assert np.all(eff.block(2, 0, "u1") == 0.0)
    assert np.array_equal(eff.block(2, 0, "u2"), ch.h(4))


def test_effective_channel_concat_order():
    dims = _dims(2, 2)
    ch = bx.sample_channels(dims, 6)
    eff = bx.effective_channel(ch, _two_stream_scheme(dims))
    x = {"u1": np.array([1.0, 2.0]), "u2": np.array([3.0, 4.0])}
    flat = eff.concat(x)
    cols = eff.col_blocks
    assert np.array_equal(flat[cols["u1"]], x["u1"])
    assert np.array_equal(flat[cols["u2"]], x["u2"])
    y = eff.matrix @ flat
    assert np.allclose(y[eff.row_blocks[(1, 0)]], ch.h(1) @ x["u1"] + ch.h(2) @ x["u2"])


def test_validation_rejects_duplicate_names():
    dims = _dims(2, 2)
    with pytest.raises(ValueError, match="duplicate"):
        CodeScheme(
            "bad",
            dims,
            ("f",),
            (Variable("u", 2, 1, 1), Variable("u", 2, 2, 2)),
            (
                Placement(0, 1, "u", Carrier("I-slice", 2)),
                Placement(0, 2, "u", Carrier("I-slice", 2)),
            ),
        )


def test_validation_rejects_unknown_topology():
    dims = _dims(2, 2)
    with pytest.raises(ValueError, match="topology"):
        CodeScheme(
            "bad",
            dims,
            ("nothere",),
            (Variable("u", 2, 1, 1),),
            (Placement(0, 1, "u", Carrier("I-slice", 2)),),
        )


def test_validation_rejects_width_mismatch():
    dims = _dims(2, 2)
    with pytest.raises(ValueError, match="width"):
        CodeScheme(
            "bad",
            dims,
            ("f",),
            (Variable("u", 2, 1, 1),),
            (Placement(0, 1, "u", Carrier("I-slice", 1)),),
        )


def test_validation_rejects_zero_length_variable():
    # builders create zero-length variables and drop them before validation
    empty = Variable("z", 0, 2, 2)
    with pytest.raises(ValueError, match="zero length"):
        CodeScheme(
            "bad",
            _dims(2, 2),
            ("f",),
            (Variable("u", 2, 1, 1), empty),
            (
                Placement(0, 1, "u", Carrier("I-slice", 2)),
                Placement(0, 2, "z", Carrier("I-slice", 0)),
            ),
        )


def test_validation_rejects_bad_placements():
    """What is left of validation once receivers pick their own decode."""
    dims = _dims(2, 2)
    u = Variable("u", 2, 1, 1)
    cases = [
        ("never placed", ()),
        ("missing slot", (Placement(1, 1, "u", Carrier("I-slice", 2)),)),
        ("unknown variable", (Placement(0, 1, "v", Carrier("I-slice", 2)),)),
        ("wrong transmitter", (Placement(0, 2, "u", Carrier("I-slice", 2)),)),
    ]
    for message, placements in cases:
        with pytest.raises(ValueError, match=message):
            CodeScheme("bad", dims, ("f",), (u,), placements)


def test_receiver_columns_split_by_receiver_once_per_scheme():
    scheme = bx.build_zf_code(_dims(4, 3))
    eff = bx.effective_channel(bx.sample_channels(_dims(4, 3), 1), scheme)
    assert eff.receiver_columns is scheme.receiver_columns
    for rx in (1, 2):
        desired, interference = scheme.receiver_columns[rx]
        want = [
            col
            for v in scheme.variables
            if v.rx == rx
            for col in range(eff.col_blocks[v.name].start, eff.col_blocks[v.name].stop)
        ]
        assert desired.tolist() == want
        assert sorted(desired.tolist() + interference.tolist()) == list(range(scheme.total_symbols))
        with pytest.raises(ValueError):
            desired[0] = 0


def test_total_symbols_counts_lengths():
    scheme = bx.build_z_pair_code(_dims(4, 3), "z12")
    assert scheme.total_symbols == sum(v.length for v in scheme.variables)
    assert scheme.total_symbols == 10
