"""Slot scheduling and the Monte Carlo driver."""

import json

import pytest

import burstyx as bx


def _hist(**kwargs):
    base = {name: 0 for name in bx.TOPOLOGIES}
    base.update(kwargs)
    return base


def test_schedule_blocks_then_pairs():
    """Five of each z slot and three full slots at (4,3)."""
    alloc = bx.schedule_codes(_hist(z1=5, z2=5, z3=5, z4=5, f=3), bx.Dimensions(4, 3))
    assert alloc.zf_blocks == 3
    assert alloc.z12_blocks == 2
    assert alloc.z34_blocks == 2
    assert sum(alloc.singles.values()) == 0
    assert sum(alloc.leftover.values()) == 0
    assert alloc.slots_used() == 23
    assert alloc.slots_total() == 23


def test_schedule_unbalanced_pairs_leave_singles():
    alloc = bx.schedule_codes(_hist(z1=4, z2=1, z3=2, z4=2), bx.Dimensions(4, 3))
    assert alloc.zf_blocks == 0  # no full slots to anchor five-slot blocks
    assert alloc.z12_blocks == 1
    assert alloc.z34_blocks == 2
    assert alloc.singles.get("z1", 0) == 3
    assert alloc.slots_total() == 9


def test_schedule_wide_shape_uses_singles_only():
    # 2 min <= max: no pairing gain exists, so everything decodes alone
    alloc = bx.schedule_codes(
        _hist(z1=3, z2=3, z3=3, z4=3, f=2, mac1=4), bx.Dimensions(4, 2)
    )
    assert alloc.zf_blocks == 0
    assert alloc.z12_blocks == 0
    assert alloc.z34_blocks == 0
    assert sum(alloc.singles.values()) == 18


def test_schedule_empty_hist():
    alloc = bx.schedule_codes(_hist(), bx.Dimensions(4, 3))
    assert alloc.slots_total() == 0
    assert alloc.zf_blocks == 0
    assert sum(alloc.singles.values()) == 0


def test_schedule_empty_slots_roll_to_leftover():
    alloc = bx.schedule_codes(_hist(empty=7, s11=2), bx.Dimensions(4, 3))
    assert alloc.leftover.get("empty", 0) == 7
    assert alloc.singles.get("s11", 0) == 2


def test_schedule_f_without_standalone_support_sets_flag():
    alloc = bx.schedule_codes(_hist(f=4), bx.Dimensions(4, 3))
    assert alloc.singles.get("f", 0) == 4
    assert alloc.f_fallback  # (4,3) has no standalone all-links code
    alloc2 = bx.schedule_codes(_hist(f=4), bx.Dimensions(3, 3))
    assert not alloc2.f_fallback


def test_schedule_conserves_slots_on_random_hists():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(0, 30, size=16)
        hist = {t: int(c) for t, c in zip(sorted(bx.TOPOLOGIES), counts)}
        for dims in (bx.Dimensions(4, 3), bx.Dimensions(4, 2), bx.Dimensions(3, 3)):
            alloc = bx.schedule_codes(hist, dims)
            assert alloc.slots_used() + sum(alloc.leftover.values()) == sum(counts)


def test_schedule_rejects_negative_counts():
    with pytest.raises(ValueError):
        bx.schedule_codes(_hist(z1=-1), bx.Dimensions(4, 3))


def test_simulation_deterministic():
    dims = bx.Dimensions(3, 2)
    a = bx.run_simulation(dims, 0.5, 20_000, seed=4)
    b = bx.run_simulation(dims, 0.5, 20_000, seed=4)
    c = bx.run_simulation(dims, 0.5, 20_000, seed=5)
    assert a.to_dict() == b.to_dict()
    assert a.empirical_dof_per_slot != c.empirical_dof_per_slot


def test_simulation_dead_network():
    res = bx.run_simulation(bx.Dimensions(4, 3), 0.0, 10_000, seed=1)
    assert res.decoded_symbols == 0
    assert res.empirical_dof_per_slot == 0.0
    assert res.analytic_reference == 0.0
    assert res.decodes_run == 0


def test_simulation_always_on_network():
    # p=1 gives all-links slots only; (3,3) decodes 4 per slot standalone
    res = bx.run_simulation(bx.Dimensions(3, 3), 1.0, 5_000, seed=2)
    assert res.empirical_dof_per_slot == pytest.approx(4.0)
    assert not res.allocation.f_fallback


@pytest.mark.parametrize(
    "shape,p,expect",
    [((3, 2), 0.7, 3.346), ((3, 3), 0.7, 4.3036)],
)
def test_simulation_tracks_composite_rate(shape, p, expect):
    m, n = shape
    res = bx.run_simulation(bx.Dimensions(m, n), p, 200_000, seed=9)
    assert res.analytic_reference == pytest.approx(expect, abs=1e-9)
    assert res.empirical_dof_per_slot == pytest.approx(expect, rel=0.01)


def test_simulation_result_serializes():
    res = bx.run_simulation(bx.Dimensions(3, 2), 0.4, 10_000, seed=3)
    data = json.loads(res.to_json())
    assert set(data) == {
        "m", "n", "p", "n_slots", "seed", "decode_fraction", "decoded_symbols",
        "empirical_dof_per_slot", "analytic_reference", "decodes_run", "allocation",
    }
    assert set(data["allocation"]) == {
        "zf_blocks", "z12_blocks", "z34_blocks", "singles", "leftover", "f_fallback",
    }
    assert data["m"] == 3 and data["n"] == 2
    assert data["n_slots"] == 10_000
    assert data["allocation"]["z12_blocks"] == res.allocation.z12_blocks
    assert 0 < data["empirical_dof_per_slot"] < 2 * 2 + 1


def test_simulation_decode_fraction_controls_work():
    dims = bx.Dimensions(3, 2)
    lo = bx.run_simulation(dims, 0.5, 20_000, seed=6, decode_fraction=0.001)
    hi = bx.run_simulation(dims, 0.5, 20_000, seed=6, decode_fraction=0.05)
    assert lo.decodes_run < hi.decodes_run
    # counting is exact either way, only the spot-check effort changes
    assert lo.decoded_symbols == hi.decoded_symbols


def test_simulation_checks_every_message_of_a_batch(monkeypatch):
    """A wrong decode in one column of a kind's batch still raises."""
    import burstyx.sim

    real = burstyx.sim.sic_decode
    batch_widths = []

    def wrong_second_message(eff, steps, x_true, rel_tol=1e-6):
        decoded, metrics = real(eff, steps, x_true, rel_tol)
        name = next(iter(decoded))
        batch_widths.append(decoded[name].shape[1])
        decoded[name] = decoded[name].copy()
        decoded[name][:, 1] += 1e-3
        return decoded, metrics

    dims = bx.Dimensions(4, 3)
    bx.run_simulation(dims, 0.5, 20_000, seed=6, decode_fraction=0.01)
    monkeypatch.setattr(burstyx.sim, "sic_decode", wrong_second_message)
    with pytest.raises(RuntimeError, match="failed decode spot check"):
        bx.run_simulation(dims, 0.5, 20_000, seed=6, decode_fraction=0.01)
    assert batch_widths[0] > 1
