"""Closed forms: achievable rates, bounds, baselines, and the gap search.

The numeric constants in this file were computed by hand from the formula
definitions and act as frozen oracles; any drift in the implementation
shows up as an exact-value failure here.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import burstyx as bx
import burstyx.formulas
from burstyx.formulas import _lb, _ua, _ub

R_GRID = np.arange(1, 101) / 100.0          # (0, 1]
P_GRID = np.arange(0, 101) / 100.0          # [0, 1]


# -- frozen point values ----------------------------------------------------

def test_normalized_dof_point_values():
    assert bx.normalized_dof(0.5, 0.5) == pytest.approx(0.75, abs=1e-12)
    assert bx.normalized_dof(2 / 3, 1.0) == pytest.approx(4 / 3, abs=1e-12)
    assert bx.normalized_dof(1.0, 0.5) == pytest.approx(1.25, abs=1e-12)
    assert bx.normalized_dof(0.25, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_normalized_dof_open_regime_raises():
    with pytest.raises(ValueError, match="outside the characterized regime"):
        bx.normalized_dof(0.8, 0.6)
    with pytest.raises(ValueError, match="outside the characterized regime"):
        bx.normalized_dof(1.0, 0.51)
    # boundary cases stay inside
    bx.normalized_dof(2 / 3, 0.9)
    bx.normalized_dof(0.9, 0.5)


def test_bound_point_values():
    assert bx.upper_bound_b(1.0, 1.0) == pytest.approx(4 / 3, abs=1e-12)
    assert bx.upper_bound_a(1.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert bx.lower_bound(1.0, 1.0) == pytest.approx(4 / 3, abs=1e-12)
    assert bx.lower_bound(0.75, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_composite_point_values():
    assert bx.composite_achievable(4, 2, 0.3) == pytest.approx(2.04, abs=1e-12)
    assert bx.composite_achievable(4, 2, 0.5) == pytest.approx(3.0, abs=1e-12)
    assert bx.composite_achievable(4, 2, 0.7) == pytest.approx(3.64, abs=1e-12)
    assert bx.composite_achievable(4, 3, 0.3) == pytest.approx(2.808, abs=1e-12)
    assert bx.composite_achievable(4, 3, 0.5) == pytest.approx(4.0, abs=1e-12)
    assert bx.composite_achievable(3, 3, 0.7) == pytest.approx(4.3036, abs=1e-12)
    assert bx.composite_achievable(3, 2, 0.7) == pytest.approx(3.346, abs=1e-12)


def test_rate_bound_point_values():
    assert bx.rate_pair_bound(4, 2, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert bx.three_rate_bound(3, 3, 1.0) == pytest.approx(3.0, abs=1e-12)
    assert bx.three_rate_bound(4, 3, 0.5) == pytest.approx(0.25 * 4 + 1.5 * 0.5 * 3)


def test_baseline_point_values():
    assert bx.per_topology_baseline(3, 3, 1.0) == pytest.approx(4.0, abs=1e-12)
    assert bx.baseline_normalized(0.75, 0.5) == pytest.approx(0.90625, abs=1e-12)
    assert bx.baseline_normalized(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert bx.per_topology_baseline(4, 3, 0.0) == 0.0


# -- identities on grids ----------------------------------------------------

def test_branch_continuity_at_half_ratio():
    """Both branches of the main closed form agree at r = 1/2."""
    for p in P_GRID[1:]:
        low = 2 * 0.5 * p * (1 + (1 - p))
        q = 1 - p
        high = 2 * 0.5 * (p * p + 2 * p * q * q) + 2 * p * p * q
        assert abs(low - high) < 1e-12
        assert bx.normalized_dof(0.5, p) == pytest.approx(low, abs=1e-12)


def test_lower_meets_upper_at_half_probability():
    for r in R_GRID:
        lb = bx.lower_bound(r, 0.5)
        ub = bx.upper_bound_a(r, 0.5)
        assert abs(lb - ub) < 1e-12
        assert abs(lb - (r + 0.25)) < 1e-12


def test_pair_bound_doubles_to_dof_or_upper():
    """Twice the two-message bound, normalized, equals the closed form."""
    for m, n in [(4, 2), (5, 2), (2, 1), (6, 3)]:
        # wide shapes: matches the achievable dof everywhere
        for p in P_GRID:
            lhs = 2 * bx.rate_pair_bound(m, n, p) / max(m, n)
            assert abs(lhs - bx.normalized_dof(min(m, n) / max(m, n), p)) < 1e-12
    for m, n in [(4, 3), (3, 2), (5, 4), (3, 3)]:
        # balanced shapes: matches the first upper bound instead
        for p in P_GRID:
            lhs = 2 * bx.rate_pair_bound(m, n, p) / max(m, n)
            assert abs(lhs - bx.upper_bound_a(min(m, n) / max(m, n), p)) < 1e-12


def test_triple_bound_scales_to_second_upper():
    for m, n in [(4, 3), (3, 2), (4, 2), (3, 3), (5, 4)]:
        r = min(m, n) / max(m, n)
        for p in P_GRID:
            lhs = (4 / 3) * bx.three_rate_bound(m, n, p) / max(m, n)
            assert abs(lhs - bx.upper_bound_b(r, p)) < 1e-12


def test_composite_normalizes_to_lower_bound_in_open_regime():
    for m, n in [(4, 3), (3, 4), (5, 4), (3, 3)]:
        r = min(m, n) / max(m, n)
        for p in P_GRID:
            if p <= 0.5:
                continue  # composite switches to the exact closed form here
            lhs = bx.composite_achievable(m, n, p) / max(m, n)
            assert abs(lhs - bx.lower_bound(r, p)) < 1e-12


def test_composite_matches_dof_inside_characterized_regime():
    for m, n in [(4, 2), (4, 3), (3, 2), (6, 4)]:
        r = min(m, n) / max(m, n)
        for p in P_GRID:
            if 3 * r > 2 and p > 0.5:
                continue
            lhs = bx.composite_achievable(m, n, p) / max(m, n)
            assert abs(lhs - bx.normalized_dof(r, p)) < 1e-12


def test_lower_bound_sandwiched_by_uppers():
    # the bounds bracket the unknown value only where the closed form stops
    for r in R_GRID[R_GRID > 2 / 3]:
        for p in P_GRID[P_GRID > 0.5]:
            lb = bx.lower_bound(r, p)
            cap = min(bx.upper_bound_a(r, p), bx.upper_bound_b(r, p))
            assert lb <= cap + 1e-12


_GAIN_SHAPES = [(m, n) for m in range(1, 13) for n in range(1, 13)] + [(12, 23), (23, 12)]


def test_baseline_never_beats_composite():
    """Coding across topologies gains strictly wherever r > 1/2 and
    0 < p < 1; at r <= 1/2 single-slot codes already reach the composite
    rate. The smallest relative margin, 4.15e-6, is at 12x23, p = 0.01."""
    for m, n in _GAIN_SHAPES:
        wide = 2 * min(m, n) <= max(m, n)
        for p in P_GRID:
            baseline = bx.per_topology_baseline(m, n, p)
            composite = bx.composite_achievable(m, n, p)
            if wide:
                assert abs(composite - baseline) <= 1e-12 * composite, (m, n, p)
            elif 0.0 < p < 1.0:
                assert composite > baseline, (m, n, p)
            else:
                assert baseline <= composite + 1e-9, (m, n, p)


def test_baseline_routes_agree_off_square_multiples():
    """Closed-form baseline times max equals the probability-weighted sum."""
    for m, n in [(4, 3), (3, 4), (4, 2), (2, 2), (5, 4)]:
        r = min(m, n) / max(m, n)
        for p in P_GRID:
            direct = bx.per_topology_baseline(m, n, p)
            closed = max(m, n) * bx.baseline_normalized(r, p)
            assert abs(direct - closed) < 1e-12


def test_baseline_equals_the_topology_weighted_sum_bit_for_bit():
    for m in range(1, 13):
        for n in range(1, 13):
            for p in P_GRID:
                want = 0.0
                for name, topo in bx.TOPOLOGIES.items():
                    want += bx.topology_probability(topo, p) * bx.single_slot_symbols(name, m, n)
                assert bx.per_topology_baseline(m, n, p).hex() == want.hex(), (m, n, p)


def test_baseline_square_multiple_uplift():
    # all-links slots on 3|m squares decode 4m/3, one extra symbol at (3,3)
    direct = bx.per_topology_baseline(3, 3, 1.0)
    closed = 3 * bx.baseline_normalized(1.0, 1.0)
    assert direct - closed == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("count", [4.0, True, float("inf"), float("nan"), np.float64(3.0), 0, -1, 2**63])
def test_closed_forms_refuse_antenna_counts_that_are_not_positive_integers(count):
    """Shapes are held as Dimensions holds them: a float or a bool is refused, not truncated."""
    shaped = (
        bx.composite_achievable,
        bx.rate_pair_bound,
        bx.three_rate_bound,
        bx.per_topology_baseline,
        bx.dof_profile,
        lambda m, n, _p: bx.single_slot_symbols("f", m, n),
    )
    for form in shaped:
        with pytest.raises(ValueError, match=r"m must be an integer in \[1, 2\*\*63\)"):
            form(count, 3, 0.5)
        with pytest.raises(ValueError, match=r"n must be an integer in \[1, 2\*\*63\)"):
            form(3, count, 0.5)
    with pytest.raises(ValueError, match="m must be an integer"):
        bx.Dimensions(count, 3)


def test_closed_forms_accept_numpy_integer_antenna_counts():
    assert bx.composite_achievable(np.int64(4), np.int64(3), 0.5) == bx.composite_achievable(4, 3, 0.5)


def test_input_validation():
    with pytest.raises(ValueError):
        bx.normalized_dof(0.0, 0.5)
    with pytest.raises(ValueError):
        bx.normalized_dof(1.2, 0.5)
    with pytest.raises(ValueError):
        bx.lower_bound(0.5, 1.5)
    with pytest.raises(ValueError):
        bx.composite_achievable(0, 3, 0.5)
    with pytest.raises(ValueError):
        bx.single_slot_symbols("f", -1, 3)
    with pytest.raises(ValueError):
        bx.rate_pair_bound(4, 3, 1.5)
    with pytest.raises(ValueError):
        bx.three_rate_bound(4, 3, -1)


# -- profiles and the gap search --------------------------------------------

def test_profile_regimes():
    # The last shape is just inside the open regime, but its r rounds to 2/3.
    shapes = [(4, 2, 0.9, "low"), (4, 3, 0.3, "mid"), (4, 3, 0.8, "open"), (2 * 10**16 + 1, 3 * 10**16, 0.9, "open")]
    for m, n, p, regime in shapes:
        prof = bx.dof_profile(m, n, p)
        assert prof.regime == regime
        assert (prof.dof is None) == (regime == "open")
        assert prof.to_dict() == dataclasses.asdict(prof)
    prof = bx.dof_profile(4, 3, 0.8)
    assert prof.dof is None
    assert prof.lb <= min(prof.ub1, prof.ub2) + 1e-12


def test_profile_to_dict_round_trip():
    d = bx.dof_profile(4, 3, 0.5).to_dict()
    assert set(d) == {
        "m", "n", "p", "r", "regime", "dof", "ub1", "ub2", "lb", "baseline",
        "composite", "pair_bound", "triple_bound",
    }
    assert d["composite"] == pytest.approx(4.0)
    assert d["regime"] == "mid"
    assert d["r"] == pytest.approx(0.75)


def test_gap_search_rejects_steps_below_the_memory_floor(monkeypatch):
    # the check comes before any grid: a numpy call here would fail otherwise
    monkeypatch.setattr(burstyx.formulas, "np", None)
    for step in (0.000999, 1e-4, 1e-6, 0.0, -0.01, 0.26, float("nan")):
        with pytest.raises(ValueError, match=r"step must lie in \[0.001, 0.25\]"):
            bx.max_gap_search(step)


def test_gap_search_coarse_grid_sane():
    res = bx.max_gap_search(step=0.02)
    assert 2 / 3 < res.r <= 1.0
    assert 0.5 < res.p <= 1.0
    assert 0.0 < res.gap < 0.06


def test_gap_search_frozen_location():
    # argmax confirmed by an independent scalar scan over the same lattice
    res = bx.max_gap_search(step=0.005)
    assert res.r == pytest.approx(0.815, abs=1e-9)
    assert res.p == pytest.approx(0.765, abs=1e-9)
    assert res.gap == pytest.approx(0.0512756, abs=1e-6)


# 0.0123 and 0.003 leave a partial last block of rows
@pytest.mark.parametrize("step", [0.001, 0.005, 0.02, 0.25, 0.0123, 0.003])
def test_gap_search_equals_the_full_meshgrid_bit_for_bit(step):
    k = np.arange(1, int(round(1.0 / step)) + 1)
    grid = np.round(k * step, 12)
    rr, pp = np.meshgrid(grid[(grid > 2.0 / 3.0) & (grid <= 1.0)], grid[(grid > 0.5) & (grid <= 1.0)], indexing="ij")
    gap = 1.0 - _lb(rr, pp) / np.minimum(_ua(rr, pp), _ub(rr, pp))
    idx = np.unravel_index(int(np.argmax(gap)), gap.shape)
    assert bx.max_gap_search(step) == bx.GapResult(float(rr[idx]), float(pp[idx]), float(gap[idx]))


@pytest.mark.parametrize("step", [0.001, 0.0123, 0.25])
def test_gap_search_returns_the_first_of_tied_maxima(monkeypatch, step):
    # a zero lower bound puts every grid point at gap 1.0, in every block
    monkeypatch.setattr(burstyx.formulas, "_lb", lambda r, p: 0.0 * r * p)
    k = np.arange(1, int(round(1.0 / step)) + 1)
    grid = np.round(k * step, 12)
    first_r = float(grid[grid > 2.0 / 3.0][0])
    first_p = float(grid[grid > 0.5][0])
    assert bx.max_gap_search(step) == bx.GapResult(first_r, first_p, 1.0)


def _gap_search_peak_bytes(step):
    tracemalloc.start()
    try:
        bx.max_gap_search(step)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gap_search_working_memory_grows_as_one_over_step():
    bx.max_gap_search(0.001)  # warm numpy's first-call allocations
    fine, coarse = _gap_search_peak_bytes(0.001), _gap_search_peak_bytes(0.002)
    assert fine < 1_000_000
    assert fine / coarse < 2.5  # a full grid of either step gives about 4


def _golden_max(f, lo, hi, tol=1e-12):
    """Arg max of a unimodal f on [lo, hi] by golden-section search."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    while hi - lo > tol:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = f(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = f(a)
    return (lo + hi) / 2.0


def _worst_r(p):
    """(gap, r) at the worst r in [2/3, 1] for one p. Each bound is affine
    in r, so lb/ua and lb/ub are monotone in r and the worst r is 2/3, 1
    or the crossing ua = ub."""
    candidates = [2.0 / 3.0, 1.0]
    slope = (_ua(1.0, p) - _ua(0.0, p)) - (_ub(1.0, p) - _ub(0.0, p))
    if slope != 0.0:
        crossing = (_ub(0.0, p) - _ua(0.0, p)) / slope
        if 2.0 / 3.0 < crossing < 1.0:
            candidates.append(crossing)
    return max((1.0 - _lb(r, p) / min(_ua(r, p), _ub(r, p)), r) for r in candidates)


def test_open_regime_gap_supremum_is_within_five_point_two_percent():
    """The abstract's "within 5.2%": the supremum of 1 - lb/min(ua, ub)
    over r > 2/3, p > 1/2, located without a grid."""
    p = _golden_max(lambda x: _worst_r(x)[0], 0.5, 1.0)
    gap, r = _worst_r(p)
    assert gap == pytest.approx(0.0513505, abs=1e-6)
    assert r == pytest.approx(0.811944, abs=1e-6)
    assert p == pytest.approx(0.767142, abs=1e-6)
    assert bx.max_gap_search(0.001).gap <= gap < 0.052


def test_gap_value_at_reference_point():
    lb = bx.lower_bound(0.81, 0.77)
    cap = min(bx.upper_bound_a(0.81, 0.77), bx.upper_bound_b(0.81, 0.77))
    assert 1 - lb / cap == pytest.approx(0.051163, abs=1e-5)
