"""Closed-form degrees-of-freedom values and bounds.

Everything here is per slot. Normalized quantities divide the sum DoF by
the larger antenna count and depend only on the antenna ratio
r = min(m, n) / max(m, n) and the link-on probability p. Shape-aware
quantities (composite_achievable, the per-topology baseline, and the
rate bounds that dof_profile reports as pair_bound and triple_bound) take
integer antenna counts and return absolute symbol rates.

The normalized sum DoF is known exactly except when r > 2/3 and p > 1/2;
in that open region the package exposes an upper-bound pair and an
achievable lower bound instead, plus a grid search for their worst-case
relative gap.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

import numpy as np

from .channel import TOPOLOGIES, _check_shape, _check_unit, _topology_law

__all__ = [
    "normalized_dof",
    "upper_bound_a",
    "upper_bound_b",
    "lower_bound",
    "composite_achievable",
    "per_topology_baseline",
    "baseline_normalized",
    "single_slot_symbols",
    "max_gap_search",
    "GapResult",
    "dof_profile",
    "DofProfile",
]


def _check_rp(r: float, p: float) -> None:
    if not 0.0 < r <= 1.0:
        raise ValueError("antenna ratio r must lie in (0, 1]")
    _check_unit(p, "p")


# Unchecked expressions, one per normalized series. Each public function is
# its input check plus one of these; the curves command (which builds only
# in-range points) and max_gap_search's grid call them directly. _ua, _ub
# and _lb accept Python floats or numpy arrays alike. Their operation order
# fixes every printed digit of the curves, table and gap-search outputs.
# A receiver's rate pair bound has two branches, _pair_low (2 min <= max)
# and _pair_high; _dof and _ua are twice a branch at (r, 1), which equals
# the product written out bit for bit, since doubling is exact.


def _pair_low(mn, p):
    q = 1.0 - p
    return mn * p * (1.0 + q)


def _pair_high(mn, mx, p):
    q = 1.0 - p
    return mn * (p * p + 2.0 * p * q * q) + mx * p * p * q


def _ua(r, p):
    return 2.0 * _pair_high(r, 1.0, p)


def _ub(r, p):
    q = 1.0 - p
    return 4.0 * r * p * q + (4.0 / 3.0) * p * p


def _lb(r, p):
    q = 1.0 - p
    return (
        r * p * q * (4.0 * q * q + 6.0 * p)
        + 2.0 * p * p * q
        + (4.0 / 3.0) * (p**4 - p**3 * q)
    )


def _dof(r, p):
    """The exact normalized sum DoF, or None in the open regime."""
    if 3.0 * r > 2.0 and p > 0.5:
        return None
    return 2.0 * _pair_low(r, p) if 2.0 * r <= 1.0 else _ua(r, p)


def _baseline(r, p):
    q = 1.0 - p
    doubles = 6.0 * r + 2.0 * min(2.0 * r, 1.0)
    f_term = 2.0 * r if 3.0 * r <= 2.0 else 1.0
    return (
        4.0 * r * p * q**3
        + doubles * p * p * q * q
        + 4.0 * min(2.0 * r, 1.0) * p**3 * q
        + f_term * p**4
    )


def normalized_dof(r: float, p: float) -> float:
    """Exact normalized sum DoF where it is characterized.

    Raises ValueError("outside the characterized regime") when r > 2/3 and
    p > 1/2, where only the bound pair below is available.
    """
    _check_rp(r, p)
    value = _dof(r, p)
    if value is None:
        raise ValueError("outside the characterized regime")
    return value


def upper_bound_a(r: float, p: float) -> float:
    """Normalized converse from per-receiver rate pairs.

    Tight for 1/2 <= r <= 2/3, and for r > 2/3 when p <= 1/2. Below r = 1/2
    it exceeds the DoF by 2 p^2 q (1 - 2r), q = 1 - p.
    """
    _check_rp(r, p)
    return _ua(r, p)


def upper_bound_b(r: float, p: float) -> float:
    """Normalized converse from weighted rate triples; bites at large r, p."""
    _check_rp(r, p)
    return _ub(r, p)


def lower_bound(r: float, p: float) -> float:
    """Normalized DoF achieved by the scheduled constructions at r > 2/3."""
    _check_rp(r, p)
    return _lb(r, p)


def composite_achievable(m: int, n: int, p: float) -> float:
    """Expected per-slot sum DoF of the full scheduling strategy.

    Shape-aware and absolute (not normalized). The branches follow the
    antenna ratio: single-slot codes suffice at r <= 1/2, paired slots give
    the exact value for 1/2 < r <= 2/3 and remain exact up to p = 1/2 for
    larger ratios, and the five-slot reuse pattern takes over above that.
    Outside that open regime it is twice the per-receiver rate pair bound.
    """
    _check_shape(m, n)
    _check_unit(p, "p")
    return _composite(m, n, p)


def _composite(m, n, p):
    mn, mx = min(m, n), max(m, n)
    if 3 * mn <= 2 * mx or p <= 0.5:
        return 2.0 * _rate_pair(m, n, p)
    q = 1.0 - p
    return (
        4.0 * mn * p * q**3
        + (6.0 * mn + 2.0 * mx) * p * p * q
        + (4.0 / 3.0) * mx * (p**4 - p**3 * q)
    )


def _rate_pair(m, n, p):
    """DofProfile.pair_bound, unchecked."""
    mn, mx = min(m, n), max(m, n)
    return _pair_low(mn, p) if 2 * mn <= mx else _pair_high(mn, mx, p)


def _three_rate(m, n, p):
    """DofProfile.triple_bound, unchecked."""
    mn, mx = min(m, n), max(m, n)
    q = 1.0 - p
    return p * p * mx + 3.0 * p * q * mn


def single_slot_symbols(name: str, m: int, n: int) -> int:
    """Symbols the best supported single-slot code delivers on a topology.

    Closed-form counts; the constructive schemes in builders deliver the
    same totals (tests cross-check the two routes). For the all-links
    topology at shapes without a standalone code this returns the fallback
    load max(m, n).
    """
    _check_shape(m, n)
    if name not in TOPOLOGIES:
        raise ValueError(f"unknown topology {name!r}")
    return _symbols(name, m, n)


def _symbols(name: str, m: int, n: int) -> int:
    mn, mx = min(m, n), max(m, n)
    if name == "empty":
        return 0
    if name in ("s11", "s12", "s21", "s22"):
        return mn
    if name in ("mac1", "mac2"):
        return min(2 * m, n)
    if name in ("bc1", "bc2"):
        return min(m, 2 * n)
    if name in ("par_direct", "par_cross"):
        return 2 * mn
    if name in ("z1", "z2", "z3", "z4"):
        return min(2 * mn, mx)
    # all-links topology
    if 3 * mn <= 2 * mx:
        return 2 * mn
    if m == n and m % 3 == 0:
        return 4 * (m // 3)
    return mx


# (name, number of on links) of each topology, in TOPOLOGIES order
_ON_LINKS = tuple((name, topo.n_on) for name, topo in TOPOLOGIES.items())


def per_topology_baseline(m: int, n: int, p: float) -> float:
    """Expected per-slot sum DoF when every slot is coded in isolation."""
    _check_shape(m, n)
    _check_unit(p, "p")
    return _topology_sum(m, n, p)


def _topology_sum(m, n, p):
    law = [_topology_law(k, float(p)) for k in range(5)]  # by on-link count
    total = 0.0
    for name, k in _ON_LINKS:
        total += law[k] * _symbols(name, m, n)
    return total


def baseline_normalized(r: float, p: float) -> float:
    """Ratio-only form of the single-slot baseline, normalized by max(m, n).

    Matches per_topology_baseline / max(m, n) at every integer shape except
    equal antenna counts divisible by 3, where the standalone all-links code
    lifts the p^4 coefficient from 1 to 4/3.
    """
    _check_rp(r, p)
    return _baseline(r, p)


# Rows of r per block of max_gap_search: about 64 KB per temporary at
# step 0.001, so a block's temporaries stay in cache.
_GAP_BLOCK_ROWS = 16


@dataclass(frozen=True)
class GapResult:
    r: float
    p: float
    gap: float


def max_gap_search(step: float = 0.005) -> GapResult:
    """Worst relative slack 1 - lower/min(upper) over the open regime.

    Scans the grid of step multiples with r in (2/3, 1] and p in (1/2, 1]
    and returns the first arg max in row-major (r, then p) order. The grid
    is evaluated in blocks of _GAP_BLOCK_ROWS values of r, each broadcast
    against the one row of p, and the blocks' arg maxima are merged with a
    strict >, so ties resolve as one argmax over the full grid would; each
    grid value is the one a full meshgrid gives, bit for bit.

    step must lie in [0.001, 0.25]. The grid has about 1/(6 step^2) points,
    so the range bounds the time; the working memory is one block, which
    grows as 1/step. 0.001 (334 x 500 points) already resolves the 5.2% gap.
    """
    if not 0.001 <= step <= 0.25:
        raise ValueError("step must lie in [0.001, 0.25]")
    k = np.arange(1, int(round(1.0 / step)) + 1)
    grid = np.round(k * step, 12)
    r_vals = grid[(grid > 2.0 / 3.0) & (grid <= 1.0)]
    p_vals = grid[(grid > 0.5) & (grid <= 1.0)]
    pp = p_vals[None, :]
    best = None  # (gap, r index, p index)
    for start in range(0, r_vals.size, _GAP_BLOCK_ROWS):
        rr = r_vals[start : start + _GAP_BLOCK_ROWS, None]
        gap = 1.0 - _lb(rr, pp) / np.minimum(_ua(rr, pp), _ub(rr, pp))
        i, j = divmod(int(np.argmax(gap)), p_vals.size)
        if best is None or gap[i, j] > best[0]:
            best = (gap[i, j], start + i, j)
    value, i, j = best
    return GapResult(float(r_vals[i]), float(p_vals[j]), float(value))


@dataclass(frozen=True)
class DofProfile:
    """All analytic values for one operating point.

    dof is None in the open regime where the exact value is unknown.
    Normalized entries divide by max(m, n); composite and the two rate
    bounds are absolute per-slot values: pair_bound, the converse on one
    receiver's rate pair (twice it over max(m, n) is the exact DoF where it
    is characterized, and ub1 at r >= 1/2), and triple_bound, the converse
    on a weighted rate triple (4/3 of it over max(m, n) is ub2).
    """

    m: int
    n: int
    p: float
    r: float
    regime: str
    dof: Optional[float]
    ub1: float
    ub2: float
    lb: float
    baseline: float
    composite: float
    pair_bound: float
    triple_bound: float

    def to_dict(self) -> Dict:
        # every field is a scalar, so this shallow dict equals asdict(self)
        return {f.name: getattr(self, f.name) for f in fields(self)}


def dof_profile(m: int, n: int, p: float) -> DofProfile:
    """Evaluate every closed form at one shape and probability.

    Checks the shape and p once, then evaluates each form's unchecked
    expression, the body its public function (if any) runs after the same
    checks.
    """
    _check_shape(m, n)
    _check_unit(p, "p")
    mn, mx = min(m, n), max(m, n)
    r = mn / mx
    if 2 * mn <= mx:
        regime = "low"
    elif 3 * mn > 2 * mx and p > 0.5:
        regime = "open"
    else:
        regime = "mid"
    return DofProfile(
        m=m,
        n=n,
        p=p,
        r=r,
        regime=regime,
        # The regime, tested on the integers, decides: r may round to 2/3
        # at a shape just inside the open regime, where _dof would answer.
        dof=None if regime == "open" else _dof(r, p),
        ub1=_ua(r, p),
        ub2=_ub(r, p),
        lb=_lb(r, p),
        baseline=_topology_sum(m, n, p) / mx,
        composite=_composite(m, n, p),
        pair_bound=_rate_pair(m, n, p),
        triple_bound=_three_rate(m, n, p),
    )
