"""Acceptance gates.

One test per headline guarantee of the package, each at its stated
tolerance and runtime budget. Every test finishes with a single PASS line
(visible under pytest -s; pytest -v shows the same verdict per test).
"""

import time

import numpy as np
import pytest

import burstyx as bx

P_GRID = np.arange(0, 101) / 100.0
R_GRID = np.arange(1, 101) / 100.0


def test_refined_precoder_delivers_26_for_100_seeds():
    """(4,3) refined five-slot precoder: 26 symbols, exact reconstruction."""
    t0 = time.monotonic()
    dims = bx.Dimensions(4, 3)
    scheme = bx.build_refined_ia_precoder(dims)
    assert scheme.total_symbols == 26
    for seed in range(100):
        ch = bx.sample_channels(dims, seed)
        res = bx.verify_decodability(ch, scheme, trials=1, seed=seed)
        assert res.ok, (seed, res.error)
        assert res.achieved_dof == 26
        assert res.max_rel_error < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS refined precoder: 26 symbols x 100 seeds in {elapsed:.2f}s")


def test_block_precoder_delivers_24_for_100_seeds():
    """(4,3) block five-slot precoder: exactly 24 symbols."""
    t0 = time.monotonic()
    dims = bx.Dimensions(4, 3)
    scheme = bx.build_block_ia_precoder(dims)
    assert scheme.total_symbols == 24
    for seed in range(100):
        ch = bx.sample_channels(dims, seed)
        res = bx.verify_decodability(ch, scheme, trials=1, seed=seed)
        assert res.ok, (seed, res.error)
        assert res.achieved_dof == 24
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"PASS block precoder: 24 symbols x 100 seeds in {elapsed:.2f}s")


def test_pair_and_zf_codes_across_shapes_50_seeds():
    """Two-slot pair codes and five-slot codes hit their totals exactly."""
    t0 = time.monotonic()
    for m, n in [(4, 3), (3, 2), (5, 4), (3, 4), (2, 3)]:
        dims = bx.Dimensions(m, n)
        total = 2 * min(m, n) + max(m, n)
        for pair in ("z12", "z34"):
            scheme = bx.build_z_pair_code(dims, pair)
            assert scheme.total_symbols == total
            for seed in range(50):
                ch = bx.sample_channels(dims, seed)
                res = bx.verify_decodability(ch, scheme, trials=1, seed=seed)
                assert res.ok, (m, n, pair, seed, res.error)
                assert res.achieved_dof == total
                assert res.max_rel_error < 1e-6
    for m, n in [(4, 3), (3, 4), (5, 4), (4, 5), (3, 3)]:
        dims = bx.Dimensions(m, n)
        total = 6 * min(m, n) + 2 * max(m, n)
        scheme = bx.build_zf_code(dims)
        assert scheme.total_symbols == total
        for seed in range(50):
            ch = bx.sample_channels(dims, seed)
            res = bx.verify_decodability(ch, scheme, trials=1, seed=seed)
            assert res.ok, (m, n, "zf", seed, res.error)
            assert res.achieved_dof == total
            assert res.max_rel_error < 1e-6
    elapsed = time.monotonic() - t0
    print(f"PASS pair and zf codes: 5+5 shapes x 50 seeds in {elapsed:.2f}s")


def test_closed_form_identities_to_1e12():
    """All cross-formula identities hold to 1e-12 on 0.01 grids."""
    # (a) the achievable closed form is continuous across r = 1/2
    for p in P_GRID[1:]:
        q = 1 - p
        low = 2 * 0.5 * p * (1 + q)
        high = 2 * 0.5 * (p * p + 2 * p * q * q) + 2 * p * p * q
        assert abs(low - high) < 1e-12
    # (b) lower and first upper bound coincide at p = 1/2
    for r in R_GRID:
        assert abs(bx.lower_bound(r, 0.5) - bx.upper_bound_a(r, 0.5)) < 1e-12
    # (c) twice the two-message bound reproduces dof or the first bound
    for p in P_GRID:
        for m, n in [(4, 2), (6, 3)]:
            r = min(m, n) / max(m, n)
            lhs = 2 * bx.dof_profile(m, n, p).pair_bound / max(m, n)
            assert abs(lhs - bx.normalized_dof(r, p)) < 1e-12
        for m, n in [(4, 3), (3, 2)]:
            r = min(m, n) / max(m, n)
            lhs = 2 * bx.dof_profile(m, n, p).pair_bound / max(m, n)
            assert abs(lhs - bx.upper_bound_a(r, p)) < 1e-12
    # (d) four thirds of the three-message bound reproduces the second bound
    for p in P_GRID:
        for m, n in [(4, 3), (3, 3), (4, 2)]:
            r = min(m, n) / max(m, n)
            lhs = (4 / 3) * bx.dof_profile(m, n, p).triple_bound / max(m, n)
            assert abs(lhs - bx.upper_bound_b(r, p)) < 1e-12
    # (e) the composite rate normalizes to the lower bound past p = 1/2
    for p in P_GRID[P_GRID > 0.5]:
        for m, n in [(4, 3), (5, 4), (3, 3)]:
            r = min(m, n) / max(m, n)
            lhs = bx.composite_achievable(m, n, p) / max(m, n)
            assert abs(lhs - bx.lower_bound(r, p)) < 1e-12
    # (f) the lower bound never exceeds either upper bound where they apply
    for r in R_GRID[R_GRID > 2 / 3]:
        for p in P_GRID[P_GRID > 0.5]:
            cap = min(bx.upper_bound_a(r, p), bx.upper_bound_b(r, p))
            assert bx.lower_bound(r, p) <= cap + 1e-12
    print("PASS closed-form identities: six families at 1e-12 on 0.01 grids")


def test_peak_relative_gap_location_and_size():
    """Fine sweep localizes the worst bound gap near (0.81, 0.77)."""
    t0 = time.monotonic()
    res = bx.max_gap_search(step=0.005)
    elapsed = time.monotonic() - t0
    assert 0.045 <= res.gap <= 0.052
    assert abs(res.r - 0.81) <= 0.03
    assert abs(res.p - 0.77) <= 0.03
    assert elapsed < 5.0
    print(
        f"PASS gap search: gap={res.gap:.6f} at (r={res.r:.3f}, p={res.p:.3f}) "
        f"in {elapsed:.2f}s"
    )


@pytest.mark.parametrize(
    "shape,p",
    [((4, 3), 0.3), ((4, 3), 0.5), ((4, 2), 0.3), ((4, 2), 0.7)],
)
def test_monte_carlo_tracks_composite_rate(shape, p):
    """Million-slot simulated throughput lands within 1% of the closed form."""
    m, n = shape
    target = bx.composite_achievable(m, n, p)
    worst = 0.0
    for seed in (0, 1, 2):
        t0 = time.monotonic()
        res = bx.run_simulation(bx.Dimensions(m, n), p, 1_000_000, seed=seed)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        rel = abs(res.empirical_dof_per_slot - target) / target
        worst = max(worst, rel)
        assert rel < 0.01, (shape, p, seed, res.empirical_dof_per_slot, target)
    print(
        f"PASS monte carlo {m}x{n} p={p}: within {100 * worst:.3f}% of "
        f"{target:.4f} across 3 seeds"
    )


def _every_construction(dims):
    """Every builder's code at dims, skipping the ones infeasible there."""
    builds = [
        bx.build_f_fallback,
        lambda d: bx.build_z_pair_code(d, "z12"),
        lambda d: bx.build_z_pair_code(d, "z34"),
        bx.build_zf_code,
        bx.build_block_ia_precoder,
        bx.build_refined_ia_precoder,
    ] + [lambda d, name=name: bx.build_single_topology_code(name, d) for name in sorted(bx.TOPOLOGIES)]
    for build in builds:
        try:
            yield build(dims)
        except ValueError:
            continue


def test_structural_property_suite_100_seeds():
    """Nulling, alignment, zero patterns, probabilities, and duality."""
    dims = bx.Dimensions(4, 3)
    worst_null = worst_align = 0.0
    min_separation = float("inf")
    for seed in range(100):
        ch = bx.sample_channels(dims, seed)
        # null carriers really annihilate their channel
        for k in range(1, 5):
            phi = bx.null_space_basis(ch.h(k))
            worst_null = max(worst_null, float(np.linalg.norm(ch.h(k) @ phi)))
        # paired carriers align the two effective images
        for a, b in [(1, 2), (3, 4)]:
            ga, gb = bx.paired_alignment(ch.h(a), ch.h(b))
            worst_align = max(
                worst_align, float(np.linalg.norm(ch.h(a) @ ga - ch.h(b) @ gb))
            )
        # the decode engine agrees: residuals from full runs stay tiny, and
        # every receiver separates its variables far above the gate
        for scheme in (
            bx.build_zf_code(dims),
            bx.build_block_ia_precoder(dims),
            bx.build_refined_ia_precoder(dims),
        ):
            res = bx.verify_decodability(ch, scheme, trials=1, seed=seed)
            assert res.ok, (scheme.name, seed, res.error)
            worst_null = max(worst_null, res.max_null_residual)
            min_separation = min(min_separation, res.min_separation)
    assert worst_null < 1e-10
    assert worst_align < 1e-10
    assert min_separation > 1e-7  # two orders above the 1e-9 gate

    # zero-pattern fidelity: silent variables and dead links give exact
    # zeros. The rows of (rx, slot) start at ((rx - 1) * n_slots + slot) * N.
    zero_checked = set()
    for shape in [(4, 3), (3, 4), (3, 3), (24, 18)]:
        zdims = bx.Dimensions(*shape)
        ch = bx.sample_channels(zdims, 0)
        for scheme in _every_construction(zdims):
            zero_checked.add(scheme.name)
            eff = bx.effective_channel(ch, scheme)
            for rx in (1, 2):
                for slot, topo_name in enumerate(scheme.slot_topologies):
                    r0 = ((rx - 1) * scheme.n_slots + slot) * zdims.n
                    for v in scheme.variables:
                        block = eff.matrix[r0 : r0 + zdims.n, scheme.columns[v.name]]
                        if slot not in v.slots or not bx.TOPOLOGIES[topo_name].link(rx, v.tx):
                            assert np.all(block == 0.0), (scheme.name, shape, rx, slot, v.name)
    assert {"ia_block", "ia_refined", "zf_block", "pair_z12", "pair_z34", "f_fallback"} <= zero_checked

    # probability normalization across the grid
    for p in P_GRID:
        total = sum(bx.topology_probability(t, p) for t in bx.TOPOLOGY_BY_INDEX)
        assert abs(total - 1.0) < 1e-12

    # orientation duality: swapping the antenna counts changes nothing
    for p in P_GRID:
        for m, n in [(4, 3), (4, 2), (5, 4), (5, 3)]:
            assert (
                abs(
                    bx.composite_achievable(m, n, p)
                    - bx.composite_achievable(n, m, p)
                )
                < 1e-12
            )
            assert (
                abs(bx.per_topology_baseline(m, n, p) - bx.per_topology_baseline(n, m, p))
                < 1e-12
            )
    for m, n in [(4, 3), (5, 4)]:
        for build in (lambda d: bx.build_z_pair_code(d, "z12"), bx.build_zf_code):
            assert (
                build(bx.Dimensions(m, n)).total_symbols
                == build(bx.Dimensions(n, m)).total_symbols
            )
    print(
        f"PASS structural suite: null={worst_null:.2e} align={worst_align:.2e} "
        f"separation={min_separation:.2e} over 100 seeds"
    )
