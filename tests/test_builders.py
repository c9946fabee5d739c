"""Construction totals, preconditions, shape coverage, symmetry, and the build cache."""

from functools import partial

import numpy as np
import pytest

import burstyx as bx
from burstyx.builders import _IMAGES

PAIR_SHAPES = [(4, 3), (3, 2), (5, 4), (3, 4), (2, 3), (2, 2), (3, 3), (6, 6)]
ZF_SHAPES = [(4, 3), (3, 4), (5, 4), (4, 5), (3, 3), (6, 6)]


@pytest.mark.parametrize("shape", PAIR_SHAPES)
@pytest.mark.parametrize("pair", ["z12", "z34"])
def test_pair_code_totals(shape, pair):
    m, n = shape
    scheme = bx.build_z_pair_code(bx.Dimensions(m, n), pair)
    assert scheme.total_symbols == 2 * min(m, n) + max(m, n)
    assert scheme.n_slots == 2
    want = ("z1", "z2") if pair == "z12" else ("z3", "z4")
    assert scheme.slot_topologies == want


@pytest.mark.parametrize("shape", ZF_SHAPES)
def test_zf_code_totals(shape):
    m, n = shape
    scheme = bx.build_zf_code(bx.Dimensions(m, n))
    assert scheme.total_symbols == 6 * min(m, n) + 2 * max(m, n)
    assert scheme.slot_topologies == ("z1", "z2", "z3", "z4", "f")


def test_zf_square_total():
    assert bx.build_zf_code(bx.Dimensions(3, 3)).total_symbols == 24


def test_pair_code_small_square_total():
    assert bx.build_z_pair_code(bx.Dimensions(2, 2), "z12").total_symbols == 6


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (5, 4), (6, 5)])
def test_block_precoder_totals(shape):
    m, n = shape
    sp = bx.build_block_ia_precoder(bx.Dimensions(m, n))
    assert isinstance(sp, bx.CodeScheme)
    assert sp.total_symbols == 8 * n
    assert sp.n_slots == 5


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (5, 4), (7, 5)])
def test_refined_precoder_totals(shape):
    m, n = shape
    sp = bx.build_refined_ia_precoder(bx.Dimensions(m, n))
    assert sp.total_symbols == 6 * n + 2 * m
    assert sp.n_slots == 5


def test_pair_code_preconditions():
    with pytest.raises(ValueError, match="ratio"):
        bx.build_z_pair_code(bx.Dimensions(4, 2), "z12")
    with pytest.raises(ValueError, match="pair"):
        bx.build_z_pair_code(bx.Dimensions(4, 3), "z23")


def test_zf_code_preconditions():
    with pytest.raises(ValueError, match="ratio"):
        bx.build_zf_code(bx.Dimensions(3, 2))  # exactly 2/3 is not enough
    with pytest.raises(ValueError, match="ratio"):
        bx.build_zf_code(bx.Dimensions(4, 2))


def test_block_precoder_preconditions():
    with pytest.raises(ValueError, match="m >= n"):
        bx.build_block_ia_precoder(bx.Dimensions(3, 4))
    with pytest.raises(ValueError, match="ratio"):
        bx.build_block_ia_precoder(bx.Dimensions(4, 2))


def test_refined_precoder_preconditions():
    with pytest.raises(ValueError, match="m >= n"):
        bx.build_refined_ia_precoder(bx.Dimensions(3, 4))
    with pytest.raises(ValueError, match="ratio"):
        bx.build_refined_ia_precoder(bx.Dimensions(3, 2))


SINGLE_SHAPES = [(4, 3), (3, 4), (4, 2), (2, 4), (2, 2), (3, 3), (6, 6), (1, 1), (5, 4)]


def _check_single_slot_code(name, m, n):
    """The one-slot code of name delivers exactly its tabulated symbol count."""
    dims = bx.Dimensions(m, n)
    want = bx.single_slot_symbols(name, m, n)
    try:
        scheme = bx.build_single_topology_code(name, dims)
    except ValueError:
        # only the all-links slot may lack a standalone code; the fallback
        # still has to deliver the tabulated count
        assert name == "f"
        scheme = bx.build_f_fallback(dims)
    assert scheme.total_symbols == want
    assert scheme.n_slots == 1
    assert scheme.slot_topologies == (name,)


@pytest.mark.parametrize("shape", SINGLE_SHAPES)
@pytest.mark.parametrize("name", sorted(bx.TOPOLOGIES))
def test_single_slot_builders_match_symbol_table(shape, name):
    _check_single_slot_code(name, *shape)


def test_every_shape_builds_the_tabulated_totals():
    """At every m, n in 1..12: each one-slot code its tabulated count, each pair code 2 min + max."""
    for m in range(1, 13):
        for n in range(1, 13):
            for name in bx.TOPOLOGIES:
                _check_single_slot_code(name, m, n)
            for pair in ("z12", "z34"):
                if 2 * min(m, n) > max(m, n):
                    assert bx.build_z_pair_code(bx.Dimensions(m, n), pair).total_symbols == 2 * min(m, n) + max(m, n)
                else:
                    with pytest.raises(ValueError, match="ratio"):
                        bx.build_z_pair_code(bx.Dimensions(m, n), pair)


def test_single_symbol_table_values():
    assert bx.single_slot_symbols("empty", 4, 3) == 0
    assert bx.single_slot_symbols("s11", 4, 3) == 3
    assert bx.single_slot_symbols("mac1", 4, 3) == 3
    assert bx.single_slot_symbols("mac1", 2, 5) == 4
    assert bx.single_slot_symbols("bc1", 4, 3) == 4
    assert bx.single_slot_symbols("bc1", 5, 2) == 4
    assert bx.single_slot_symbols("par_direct", 4, 3) == 6
    assert bx.single_slot_symbols("z1", 4, 3) == 4
    assert bx.single_slot_symbols("z1", 2, 5) == 4
    assert bx.single_slot_symbols("f", 3, 2) == 4
    assert bx.single_slot_symbols("f", 3, 3) == 4
    assert bx.single_slot_symbols("f", 6, 6) == 8
    assert bx.single_slot_symbols("f", 4, 3) == 4  # fallback count
    with pytest.raises(ValueError):
        bx.single_slot_symbols("nothere", 4, 3)


def test_standalone_full_slot_support_boundary():
    # ratio exactly 2/3 still zero-forces both ways
    assert bx.build_single_topology_code("f", bx.Dimensions(3, 2)).total_symbols == 4
    assert bx.build_single_topology_code("f", bx.Dimensions(2, 3)).total_symbols == 4
    # square shapes divisible by three decode one third per link
    assert bx.build_single_topology_code("f", bx.Dimensions(6, 6)).total_symbols == 8
    with pytest.raises(ValueError):
        bx.build_single_topology_code("f", bx.Dimensions(4, 3))
    with pytest.raises(ValueError):
        bx.build_single_topology_code("f", bx.Dimensions(2, 2))


def test_unknown_topology_name_rejected():
    with pytest.raises(ValueError):
        bx.build_single_topology_code("zz", bx.Dimensions(4, 3))


def test_square_z_single_prunes_helper():
    scheme = bx.build_single_topology_code("z1", bx.Dimensions(3, 3))
    assert scheme.total_symbols == 3
    assert len(scheme.variables) == 1


def test_orientation_duality_of_totals():
    for m, n in [(4, 3), (5, 4), (3, 2)]:
        a = bx.build_z_pair_code(bx.Dimensions(m, n), "z12").total_symbols
        b = bx.build_z_pair_code(bx.Dimensions(n, m), "z12").total_symbols
        assert a == b
    for m, n in [(4, 3), (5, 4)]:
        a = bx.build_zf_code(bx.Dimensions(m, n)).total_symbols
        b = bx.build_zf_code(bx.Dimensions(n, m)).total_symbols
        assert a == b


_BUILDERS = [
    partial(bx.build_zf_code),
    partial(bx.build_z_pair_code, pair="z34"),
    partial(bx.build_f_fallback),
    partial(bx.build_single_topology_code, "mac1"),
    partial(bx.build_block_ia_precoder),
    partial(bx.build_refined_ia_precoder),
]


@pytest.mark.parametrize("build", _BUILDERS, ids=lambda b: b.func.__name__)
def test_equal_shapes_share_one_built_code(build):
    first = build(bx.Dimensions(4, 3))
    assert build(bx.Dimensions(4, 3)) is first
    assert build.func.cache_info().maxsize == 64


def test_infeasible_shape_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError):
            bx.build_zf_code(bx.Dimensions(4, 2))
        with pytest.raises(ValueError):
            bx.build_single_topology_code("f", bx.Dimensions(4, 3))


def test_builder_cache_stays_bounded():
    for m in range(1, 12):
        for n in range(1, 12):
            bx.build_single_topology_code("bc1", bx.Dimensions(m, n))
    info = bx.build_single_topology_code.cache_info()
    assert info.currsize <= info.maxsize == 64


def test_cached_codes_carry_no_state_between_runs():
    for build in _BUILDERS:
        build.func.cache_clear()
    dims = bx.Dimensions(4, 3)
    cold = bx.run_simulation(dims, 0.7, 50_000, 11, decode_fraction=0.05).to_dict()
    warm = bx.run_simulation(dims, 0.7, 50_000, 11, decode_fraction=0.05).to_dict()
    assert bx.build_zf_code.cache_info().hits >= 1
    assert warm == cold


def _build(label, dims):
    """The code of a single-topology or pair label, as its public builder makes it."""
    if label in ("z12", "z34"):
        return bx.build_z_pair_code(dims, label)
    return bx.build_single_topology_code(label, dims)


def _swap_links(ch, swap_tx, swap_rx):
    """The draw with the transmitters and/or receivers swapped: link (rx, tx) gets (rx', tx')'s matrix."""
    flip = swap_tx + 2 * swap_rx
    return bx.ChannelSet(ch.dims, *(ch.h(((k - 1) ^ flip) + 1) for k in range(1, 5)))


def test_images_cover_every_topology_but_the_fixed_ones_once():
    singles = [image for image in _IMAGES if image in bx.TOPOLOGIES]
    reps = {_IMAGES[image][0] for image in singles}
    assert not reps & set(_IMAGES)
    assert sorted(singles + sorted(reps)) == sorted(set(bx.TOPOLOGIES) - {"empty", "f"})
    assert _IMAGES["z34"] == ("z12", True, True)


@pytest.mark.parametrize("image", sorted(_IMAGES))
def test_image_effective_channel_equals_the_representatives_bit_for_bit(image):
    """On the draw with its links swapped alike, an image's matrix is its representative's.

    Under a receiver swap the two receivers' row blocks trade places, and
    so do the columns each receiver decodes.
    """
    rep, swap_tx, swap_rx = _IMAGES[image]
    checked = 0
    for m in range(1, 13):
        for n in range(1, 13):
            dims = bx.Dimensions(m, n)
            try:
                source = _build(rep, dims)
            except ValueError:
                with pytest.raises(ValueError):
                    _build(image, dims)
                continue
            scheme = _build(image, dims)
            assert scheme.slot_topologies == ((image,) if image in bx.TOPOLOGIES else ("z3", "z4"))
            assert scheme.total_symbols == source.total_symbols
            ch = bx.sample_channels(dims, 100 * m + n)
            want = bx.effective_channel(ch, source).matrix
            if swap_rx:
                half = want.shape[0] // 2
                want = np.vstack([want[half:], want[:half]])
            got = bx.effective_channel(_swap_links(ch, swap_tx, swap_rx), scheme).matrix
            assert np.array_equal(got, want), (image, m, n)
            # and each receiver decodes what its preimage decodes
            for rx in (1, 2):
                theirs = source.receiver_columns[3 - rx if swap_rx else rx][0]
                assert np.array_equal(scheme.receiver_columns[rx][0], theirs), (image, m, n)
            checked += 1
    assert checked == (72 if image == "z34" else 144)
