"""Slot scheduling and the Monte Carlo driver."""

import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import burstyx as bx
import burstyx.builders
import burstyx.sim


def _hist(**kwargs):
    base = {name: 0 for name in bx.TOPOLOGIES}
    base.update(kwargs)
    return base


def test_schedule_blocks_then_pairs():
    """Five of each z slot and three full slots at (4,3)."""
    alloc = bx.schedule_codes(_hist(z1=5, z2=5, z3=5, z4=5, f=3), bx.Dimensions(4, 3))
    assert list(alloc.blocks.items()) == [("zf", 3), ("z12", 2), ("z34", 2)]
    assert sum(alloc.leftover.values()) == 0
    assert alloc.slots_total() == 23


def test_schedule_unbalanced_pairs_leave_singles():
    alloc = bx.schedule_codes(_hist(z1=4, z2=1, z3=2, z4=2), bx.Dimensions(4, 3))
    # no full slots to anchor five-slot blocks
    assert list(alloc.blocks.items()) == [("z12", 1), ("z34", 2), ("z1", 3)]
    assert alloc.slots_total() == 9


def test_schedule_wide_shape_uses_singles_only():
    # 2 min <= max: no pairing gain exists, so everything decodes alone
    alloc = bx.schedule_codes(
        _hist(z1=3, z2=3, z3=3, z4=3, f=2, mac1=4), bx.Dimensions(4, 2)
    )
    assert alloc.blocks == {"f": 2, "mac1": 4, "z1": 3, "z2": 3, "z3": 3, "z4": 3}


def test_schedule_empty_hist():
    alloc = bx.schedule_codes(_hist(), bx.Dimensions(4, 3))
    assert alloc.slots_total() == 0
    assert alloc.blocks == {}


def test_schedule_empty_slots_roll_to_leftover():
    alloc = bx.schedule_codes(_hist(empty=7, s11=2), bx.Dimensions(4, 3))
    assert alloc.leftover == {"empty": 7}
    assert alloc.blocks == {"s11": 2}


def test_schedule_f_without_standalone_support_uses_fallback():
    alloc = bx.schedule_codes(_hist(f=4), bx.Dimensions(4, 3))
    assert alloc.blocks == {"f_fallback": 4}  # (4,3) has no standalone all-links code
    alloc2 = bx.schedule_codes(_hist(f=4), bx.Dimensions(3, 3))
    assert alloc2.blocks == {"f": 4}


def test_schedule_conserves_slots_on_random_hists():
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(0, 30, size=16)
        hist = {t: int(c) for t, c in zip(sorted(bx.TOPOLOGIES), counts)}
        for dims in (bx.Dimensions(4, 3), bx.Dimensions(4, 2), bx.Dimensions(3, 3)):
            alloc = bx.schedule_codes(hist, dims)
            assert alloc.slots_total() == sum(counts)
            used = Counter(alloc.leftover)
            for name, blocks in alloc.blocks.items():
                for t, uses in burstyx.sim._KINDS[name].items():
                    used[t] += uses * blocks
            assert used == Counter({t: c for t, c in hist.items() if c})


def test_schedule_runs_each_infeasible_builder_once_per_shape(monkeypatch):
    """A builder's cache does not keep its ValueError: the scheduler memoizes
    which kinds exist per shape, so 100 schedules build a kind that does not
    exist at most once (f at 4x3; zf and the pairs at 4x2)."""
    raised = Counter()

    def counting(name, build):
        def wrapped(dims):
            try:
                return build(dims)
            except ValueError:
                raised[name, dims.m, dims.n] += 1
                raise

        return wrapped

    for name, entry in list(burstyx.builders.CODES.items()):
        monkeypatch.setitem(burstyx.builders.CODES, name, entry._replace(build=counting(name, entry.build)))
    every_slot = _hist(**{t: 10 for t in bx.TOPOLOGIES})
    for _ in range(100):
        for dims in (bx.Dimensions(4, 2), bx.Dimensions(4, 3)):
            bx.schedule_codes(every_slot, dims)
    assert raised == {("f", 4, 3): 1, ("zf", 4, 2): 1, ("z12", 4, 2): 1, ("z34", 4, 2): 1}
    assert burstyx.sim._kinds_built.cache_info().maxsize == burstyx.builders._SHAPE_CACHE


def test_schedule_rejects_negative_counts():
    with pytest.raises(ValueError):
        bx.schedule_codes(_hist(z1=-1), bx.Dimensions(4, 3))


@pytest.mark.parametrize("count", [2.5, np.float64(3.0), -1, 2**63])
def test_schedule_rejects_counts_that_are_not_integers_below_2_63(count):
    """A float count is refused, not truncated to fewer blocks."""
    with pytest.raises(ValueError, match="a topology count must be an integer"):
        bx.schedule_codes({"f": count}, bx.Dimensions(3, 3))


def test_schedule_accepts_numpy_integer_counts():
    alloc = bx.schedule_codes({"f": np.int64(2), bx.TOPOLOGIES["s11"]: np.uint8(1)}, bx.Dimensions(3, 3))
    assert alloc.blocks == {"f": 2, "s11": 1}
    assert alloc.slots_total() == 3


def test_each_kind_occupies_the_slots_of_its_code():
    """A kind's slot multiset is its code's, wherever the code builds, and
    its code carries at least one symbol there."""
    built = Counter()
    for m in range(1, 13):
        for n in range(1, 13):
            dims = bx.Dimensions(m, n)
            for name, uses in burstyx.sim._KINDS.items():
                try:
                    scheme = burstyx.builders.CODES[name].build(dims)
                except ValueError:
                    continue
                assert Counter(scheme.slot_topologies) == uses, (name, m, n)
                assert scheme.total_symbols >= 1, (name, m, n)
                built[name] += 1
    assert set(built) == set(burstyx.sim._KINDS)


def _fluid_yields():
    """(m, n, p, alloc, symbols per slot) at p = a/b and m, n in 1..12.

    A window of b**4 * P(t) slots of each topology t is a whole number of
    every slot count, so the schedule's symbols per slot (a Fraction) is
    the fluid-limit rate.
    """
    for a, b in ((1, 5), (1, 2), (3, 5), (7, 10), (9, 10)):
        p = Fraction(a, b)
        hist = {t: a**t.n_on * (b - a) ** (4 - t.n_on) for t in bx.TOPOLOGY_BY_INDEX}
        assert sum(hist.values()) == b**4
        for m in range(1, 13):
            for n in range(1, 13):
                dims = bx.Dimensions(m, n)
                alloc = bx.schedule_codes(hist, dims)
                symbols = sum(
                    burstyx.builders.CODES[name].build(dims).total_symbols * blocks
                    for name, blocks in alloc.blocks.items()
                )
                yield m, n, p, alloc, Fraction(symbols, b**4)


def _closed(m, n, p):
    return not (3 * min(m, n) > 2 * max(m, n) and p > Fraction(1, 2))


def test_fluid_yield_matches_composite_achievable_exactly():
    """The fluid yield equals composite_achievable everywhere except where
    the open regime's leftover all-links slots fall to the fallback, which
    delivers max(m, n) where the closed form credits 4/3 of it."""
    cases = Counter()
    for m, n, p, alloc, rate in _fluid_yields():
        mx = max(m, n)
        if _closed(m, n, p):
            case, shortfall = "closed", 0
        elif m == n and m % 3 == 0:
            case, shortfall = "open, standalone f", 0
        else:
            case, shortfall = "open, f_fallback", Fraction(mx, 3) * p**3 * (2 * p - 1)
            assert "f_fallback" in alloc.blocks
        cases[case] += 1
        expected = bx.composite_achievable(m, n, float(p))
        assert float(rate + shortfall) == pytest.approx(expected, rel=1e-12), (m, n, p)
    assert cases == {"closed": 576, "open, standalone f": 12, "open, f_fallback": 132}


def test_closed_regime_fluid_yield_is_the_dof_and_upper_bound_a_from_r_one_half():
    """At the closed-regime fluid points yield / max(m, n) is normalized_dof.
    upper_bound_a meets it at r >= 1/2; below r = 1/2 it exceeds it by
    2 p^2 q (1 - 2r)."""
    points = below = 0
    for m, n, p, _alloc, rate in _fluid_yields():
        if not _closed(m, n, p):
            continue
        points += 1
        r, mx = Fraction(min(m, n), max(m, n)), max(m, n)
        normalized = float(rate / mx)
        assert normalized == pytest.approx(bx.normalized_dof(float(r), float(p)), rel=1e-12), (m, n, p)
        bound = bx.upper_bound_a(float(r), float(p))
        if 2 * r >= 1:
            assert normalized == pytest.approx(bound, rel=1e-12), (m, n, p)
        else:
            below += 1
            assert normalized < bound, (m, n, p)
            excess = 2 * p**2 * (1 - p) * (1 - 2 * r)
            assert bound - normalized == pytest.approx(float(excess), rel=1e-9), (m, n, p)
    assert points == 576 and below > 0


def test_five_slot_code_is_needed_for_the_dof_at_p_up_to_one_half(monkeypatch):
    """The abstract's "codes over as many as 5 topologies": at r > 2/3 and
    p <= 1/2 the full catalogue's fluid yield is composite_achievable, and
    without the five-slot zf code it falls short at every such point, by
    up to 5% (square shapes not divisible by 3, p = 1/2, 1x1 among them)."""
    full = {(m, n, p): rate for m, n, p, _alloc, rate in _fluid_yields()}
    # a new dict: deleting and restoring the key would move zf to the end
    kinds = {name: uses for name, uses in burstyx.sim._KINDS.items() if name != "zf"}
    monkeypatch.setattr(burstyx.sim, "_KINDS", kinds)
    drops = {}
    for m, n, p, alloc, rate in _fluid_yields():
        if 3 * min(m, n) > 2 * max(m, n) and p <= Fraction(1, 2):
            assert "zf" not in alloc.blocks
            assert float(full[m, n, p]) == pytest.approx(bx.composite_achievable(m, n, float(p)), rel=1e-12)
            assert rate < full[m, n, p], (m, n, p)
            drops[m, n, p] = 1 - rate / full[m, n, p]
    assert len(drops) == 96
    assert max(drops.values()) == drops[1, 1, Fraction(1, 2)] == Fraction(1, 20)


def test_run_simulation_builds_through_the_catalogue(monkeypatch):
    """sim builds every kind through its builders.CODES entry."""
    entry = burstyx.builders.CODES["zf"]
    calls = []

    def counting(dims):
        calls.append(dims)
        return entry.build(dims)

    monkeypatch.setitem(burstyx.builders.CODES, "zf", entry._replace(build=counting))
    dims = bx.Dimensions(4, 3)
    res = bx.run_simulation(dims, 0.7, 20_000, seed=1, decode_fraction=0.0)
    assert "zf" in res.allocation.blocks
    assert calls and set(calls) == {dims}


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
    assert res.allocation.blocks == {"f": 5_000}


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
    assert set(data["allocation"]) == {"blocks", "leftover"}
    assert data["m"] == 3 and data["n"] == 2
    assert data["n_slots"] == 10_000
    assert data["allocation"]["blocks"] == res.allocation.blocks
    assert "z12" in data["allocation"]["blocks"]
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

    def wrong_second_message(eff, x):
        decoded = real(eff, x)
        batch_widths.append(decoded.shape[1])
        decoded[0, 1] += 1e-3
        return decoded

    dims = bx.Dimensions(4, 3)
    bx.run_simulation(dims, 0.5, 20_000, seed=6, decode_fraction=0.01)
    monkeypatch.setattr(burstyx.sim, "sic_decode", wrong_second_message)
    with pytest.raises(RuntimeError, match="failed decode spot check"):
        bx.run_simulation(dims, 0.5, 20_000, seed=6, decode_fraction=0.01)
    assert batch_widths[0] > 1


def test_simulation_fails_a_nan_decode(monkeypatch):
    import burstyx.sim

    real = burstyx.sim.sic_decode

    def nan_decode(eff, x):
        decoded = real(eff, x)
        decoded[eff.scheme.columns[eff.scheme.variables[-1].name]] = np.nan
        return decoded

    monkeypatch.setattr(burstyx.sim, "sic_decode", nan_decode)
    with pytest.raises(RuntimeError, match="failed decode spot check: variable .* relative error nan"):
        bx.run_simulation(bx.Dimensions(4, 3), 0.5, 5_000, seed=6)


def test_simulation_names_the_first_failing_variable(monkeypatch):
    import burstyx.sim

    real = burstyx.sim.sic_decode
    names = []

    def wrong_last_two(eff, x):
        decoded = real(eff, x)
        for v in eff.scheme.variables[-2:]:
            names.append(v.name)
            decoded[eff.scheme.columns[v.name]] += 1.0
        return decoded

    monkeypatch.setattr(burstyx.sim, "sic_decode", wrong_last_two)
    with pytest.raises(RuntimeError) as exc:
        bx.run_simulation(bx.Dimensions(4, 3), 0.9, 5_000, seed=6)
    assert f"variable {names[0]!r} reconstructed" in str(exc.value)


@pytest.mark.parametrize("n", [0, -3, 2.5, 100.0, 2**63, 2**64, np.float64(3.0), -1])
def test_simulation_rejects_bad_window_lengths(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        bx.run_simulation(bx.Dimensions(3, 2), 0.5, n, seed=1)


def test_simulation_accepts_numpy_integer_window():
    res = bx.run_simulation(bx.Dimensions(3, 2), 0.5, np.int64(1_000), seed=1)
    assert type(res.n_slots) is int and res.n_slots == 1_000
    assert res.allocation.slots_total() == 1_000


def test_simulation_streams_do_not_overlap_neighbouring_seeds():
    """Each seed's topologies are its own draw, not seed + 1's channels."""
    dims = bx.Dimensions(4, 3)
    topo_seq, _ = np.random.SeedSequence(4).spawn(2)
    res = bx.run_simulation(dims, 0.5, 20_000, seed=4, decode_fraction=0.0)

    def alloc(stream):
        return bx.schedule_codes(bx.sample_topology_counts(0.5, 20_000, stream), dims)

    assert res.allocation == alloc(topo_seq)
    for seed in (3, 4, 5):
        assert res.allocation != alloc(seed)


@pytest.mark.parametrize("factor,raises", [(0.9, False), (1.1, True)])
def test_spot_check_holds_each_variable_of_each_message_to_rel_tol(monkeypatch, factor, raises):
    """The one-pass check matches a per-variable, per-message norm loop."""
    import burstyx.sim
    from burstyx.linalg import RECON_TOL

    real = burstyx.sim.sic_decode

    def off_by_factor_of_tol(eff, x):
        decoded = real(eff, x)
        cols = eff.scheme.columns[eff.scheme.variables[-1].name]
        decoded[cols] = x[cols]
        decoded[cols.start] += factor * RECON_TOL * np.maximum(1.0, np.linalg.norm(x[cols], axis=0))
        return decoded

    monkeypatch.setattr(burstyx.sim, "sic_decode", off_by_factor_of_tol)
    dims = bx.Dimensions(4, 3)
    if raises:
        with pytest.raises(RuntimeError, match="failed decode spot check"):
            bx.run_simulation(dims, 0.7, 20_000, seed=6, decode_fraction=0.05)
    else:
        bx.run_simulation(dims, 0.7, 20_000, seed=6, decode_fraction=0.05)


@pytest.mark.parametrize("fault", ["separation", "carrier"])
def test_simulation_raises_the_first_failure_in_catalogue_order(monkeypatch, fault):
    """Channels and receivers are built before any decode; failures still surface kind by kind."""
    from dataclasses import replace

    from burstyx.schemes import Carrier

    dims = bx.Dimensions(4, 3)
    assert list(bx.run_simulation(dims, 0.5, 5_000, seed=6).allocation.blocks)[:2] == ["zf", "z12"]
    z12 = bx.build_z_pair_code(dims, "z12")
    v = z12.variables[0]
    if fault == "separation":  # a second copy of one stream: its receiver cannot separate its columns
        copy = replace(v, name=v.name + "_copy")
        broken = replace(z12, name="z12_doubled", variables=z12.variables + (copy,))
        error, message = bx.DecodeError, f"rx{v.rx} cannot separate"
    else:  # a pinv slice wider than the pseudo-inverse: effective_channel raises
        wide = replace(v, carrier=Carrier("pinv", 4, ch=1))
        broken = replace(z12, name="z12_wide", variables=(wide,) + z12.variables[1:])
        error, message = ValueError, "pinv slice exceeds"
    entry = burstyx.builders.CODES["z12"]._replace(build=lambda dims: broken)
    monkeypatch.setitem(burstyx.builders.CODES, "z12", entry)
    with pytest.raises(error, match=message):
        bx.run_simulation(dims, 0.5, 5_000, seed=6)

    real = burstyx.sim.reconstruction_error

    def zf_fails(scheme, x_hat, x):
        if scheme is bx.build_zf_code(dims):
            return 1.0, "variable 'forced' reconstructed with relative error 1"
        return real(scheme, x_hat, x)

    monkeypatch.setattr(burstyx.sim, "reconstruction_error", zf_fails)
    with pytest.raises(RuntimeError, match="zf_block failed decode spot check: variable 'forced'"):
        bx.run_simulation(dims, 0.5, 5_000, seed=6)


# np.linalg.svd calls per run at the benchmark's four points (seeds 0..19):
# one channel rank check, one stacked call per basis kind the run needs, and
# one per distinct shape of the receivers' stacked factorizations.
_SVD_CALLS_PER_RUN = {(4, 3, 0.5): 11, (4, 3, 0.9): 11, (3, 3, 0.7): 10, (4, 2, 0.5): 3}


@pytest.mark.parametrize("m, n, p", sorted(_SVD_CALLS_PER_RUN))
def test_a_run_makes_a_bounded_number_of_svd_calls(monkeypatch, m, n, p):
    """A guard on the stacked passes: the count is of LAPACK calls, not a timing."""
    real = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    per_run = []
    for seed in range(20):
        calls.clear()
        bx.run_simulation(bx.Dimensions(m, n), p, 100_000, seed)
        per_run.append(len(calls))
    assert max(per_run) <= _SVD_CALLS_PER_RUN[m, n, p], per_run
