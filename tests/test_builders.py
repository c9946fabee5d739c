"""Construction totals, preconditions, shape coverage, and the build cache."""

from functools import partial

import pytest

import burstyx as bx

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
    assert isinstance(sp, bx.SuperPrecoder)
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


@pytest.mark.parametrize("shape", SINGLE_SHAPES)
@pytest.mark.parametrize("name", sorted(bx.TOPOLOGIES))
def test_single_slot_builders_match_symbol_table(shape, name):
    """Every one-slot code delivers exactly its tabulated symbol count."""
    m, n = shape
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
