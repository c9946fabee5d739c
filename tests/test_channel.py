"""Topology bookkeeping, sampling, and channel draws."""

import numpy as np
import pytest

import burstyx as bx
from burstyx.channel import _full_rank

# name -> (s11, s12, s21, s22) index under 8*s11 + 4*s12 + 2*s21 + s22
EXPECTED_INDEX = {
    "empty": 0,
    "s22": 1,
    "s21": 2,
    "mac2": 3,
    "s12": 4,
    "bc2": 5,
    "par_cross": 6,
    "z2": 7,
    "s11": 8,
    "par_direct": 9,
    "bc1": 10,
    "z3": 11,
    "mac1": 12,
    "z1": 13,
    "z4": 14,
    "f": 15,
}


def test_topology_catalogue_complete():
    assert sorted(bx.TOPOLOGIES) == sorted(EXPECTED_INDEX)
    for name, idx in EXPECTED_INDEX.items():
        assert bx.TOPOLOGIES[name].index == idx
    assert len({t.index for t in bx.TOPOLOGIES.values()}) == 16
    assert [t.index for t in bx.TOPOLOGY_BY_INDEX] == list(range(16))


def test_link_accessor_matches_bits():
    z1 = bx.TOPOLOGIES["z1"]
    # z1 drops the rx2<-tx1 link and keeps the other three
    assert z1.links == (True, True, False, True)
    assert z1.link(1, 1) and z1.link(1, 2) and z1.link(2, 2)
    assert not z1.link(2, 1)
    assert z1.n_on == 3
    assert bx.TOPOLOGIES["empty"].n_on == 0
    assert bx.TOPOLOGIES["f"].n_on == 4


def test_topology_probability_values():
    p = 0.3
    assert bx.topology_probability(bx.TOPOLOGIES["f"], p) == pytest.approx(0.3**4)
    assert bx.topology_probability(bx.TOPOLOGIES["s11"], p) == pytest.approx(0.3 * 0.7**3)
    assert bx.topology_probability(bx.TOPOLOGIES["s11"], p) == pytest.approx(0.1029)
    assert bx.topology_probability(bx.TOPOLOGIES["empty"], p) == pytest.approx(0.7**4)
    for t in bx.TOPOLOGIES.values():
        assert bx.topology_probability(t, 0.5) == pytest.approx(0.0625)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5, 0.77, 1.0])
def test_distribution_normalizes(p):
    assert len(bx.TOPOLOGY_BY_INDEX) == 16
    assert abs(sum(bx.topology_probability(t, p) for t in bx.TOPOLOGY_BY_INDEX) - 1.0) < 1e-12


def test_sampling_deterministic_and_dtype():
    a = bx.sample_topology_indices(0.4, 5000, seed=9)
    b = bx.sample_topology_indices(0.4, 5000, seed=9)
    c = bx.sample_topology_indices(0.4, 5000, seed=10)
    assert a.dtype == np.uint8
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("n", [0, 1, 16383, 16384, 16385, 100_000])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.9, 1.0])
def test_chunked_sampling_equals_one_shot_draw(n, p):
    """Chunk edges do not move the stream: same slots as one (n, 4) draw."""
    rng = np.random.Generator(np.random.Philox(21))
    on = rng.random((n, 4)) < p
    one_shot = (on.astype(np.uint8) @ np.array([8, 4, 2, 1], dtype=np.uint8)).astype(np.uint8)
    got = bx.sample_topology_indices(p, n, seed=21)
    assert got.dtype == np.uint8 and got.shape == (n,)
    assert np.array_equal(got, one_shot)


def _counts_from_slots(p, n, seed):
    counts = np.bincount(bx.sample_topology_indices(p, n, seed), minlength=16)
    return {t: int(counts[t.index]) for t in bx.TOPOLOGY_BY_INDEX}


# The per-slot sampler, counted, and the histogram sampler draw the same law.
SAMPLERS = (_counts_from_slots, bx.sample_topology_counts)


def test_sampling_degenerate_probabilities():
    for sample in SAMPLERS:
        assert sample(0.0, 1000, 1) == {t: 1000 * (t.index == 0) for t in bx.TOPOLOGY_BY_INDEX}
        assert sample(1.0, 1000, 1) == {t: 1000 * (t.index == 15) for t in bx.TOPOLOGY_BY_INDEX}


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_empirical_frequencies(p):
    """One-million-slot draws track the closed-form distribution to 5e-3."""
    n = 1_000_000
    for sample in SAMPLERS:
        counts = sample(p, n, 123)
        worst = max(abs(counts[t] / n - bx.topology_probability(t, p)) for t in bx.TOPOLOGY_BY_INDEX)
        assert worst < 5e-3, sample.__name__


@pytest.mark.parametrize("n", [0, 1, 7, 100_000, 2**40])
@pytest.mark.parametrize("p", [0.0, 0.3, 0.9, 1.0])
def test_topology_counts_sum_to_n_in_count_topologies_order(p, n):
    counts = bx.sample_topology_counts(p, n, seed=5)
    assert list(counts) == bx.TOPOLOGY_BY_INDEX
    assert all(type(c) is int and c >= 0 for c in counts.values())
    assert sum(counts.values()) == n


def test_topology_counts_deterministic_per_seed():
    a = bx.sample_topology_counts(0.4, 5000, seed=9)
    assert a == bx.sample_topology_counts(0.4, 5000, seed=9)
    assert a != bx.sample_topology_counts(0.4, 5000, seed=10)


# A float or bool window is refused, not truncated; 2**63 is a ValueError, not an OverflowError.
@pytest.mark.parametrize(
    "p,n",
    [
        (-0.1, 10), (1.5, 10), (float("nan"), 10), (0.5, -1), (0.5, 2.5), (0.5, np.float64(3.0)), (0.5, 2**63),
        (0.5, True),
    ],
)
def test_topology_counts_validate_like_indices(p, n):
    for sample in (bx.sample_topology_indices, bx.sample_topology_counts):
        with pytest.raises(ValueError):
            sample(p, n, 0)


def test_numpy_integer_window_is_accepted():
    assert sum(bx.sample_topology_counts(0.5, np.int64(3), 1).values()) == 3
    assert bx.sample_topology_indices(0.5, np.int64(3), 1).size == 3


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (4, 2), (3, 3)])
def test_sampled_channels_full_rank(shape):
    m, n = shape
    dims = bx.Dimensions(m, n)
    for seed in range(100):
        ch = bx.sample_channels(dims, seed)
        for k in range(1, 5):
            h = ch.h(k)
            assert h.shape == (n, m)
            assert np.linalg.matrix_rank(h) == min(m, n)


def _per_matrix_reference(m, n, seed):
    """sample_channels as one loop: draw each matrix, re-draw it in place."""
    rng = np.random.Generator(np.random.Philox(seed))
    mats = []
    for _ in range(4):
        h = rng.standard_normal((n, m))
        while np.linalg.matrix_rank(h) != min(m, n):
            h = rng.standard_normal((n, m))
        mats.append(h)
    return mats


@pytest.mark.parametrize("m", range(1, 9))
def test_stacked_draw_equals_per_matrix_draws(m):
    for n in range(1, 9):
        for seed in (0, 1, 777):
            ch = bx.sample_channels(bx.Dimensions(m, n), seed)
            for k, ref in enumerate(_per_matrix_reference(m, n, seed), start=1):
                assert np.array_equal(ch.h(k), ref), (m, n, seed, k)


def test_rank_deficient_draw_is_redrawn_after_all_four(monkeypatch):
    m, n, seed = 4, 3, 5
    real = np.random.Generator

    class DeficientThird:
        """The first draw's third matrix gets two equal rows."""

        def __init__(self, bit_generator):
            self._rng = real(bit_generator)
            self._first = True

        def standard_normal(self, size):
            out = self._rng.standard_normal(size)
            if self._first:
                out[2, 1] = out[2, 0]
                self._first = False
            return out

    monkeypatch.setattr(np.random, "Generator", DeficientThird)
    ch = bx.sample_channels(bx.Dimensions(m, n), seed)
    monkeypatch.undo()
    stream = real(np.random.Philox(seed)).standard_normal((5, n, m))
    for k, expected in ((1, stream[0]), (2, stream[1]), (3, stream[4]), (4, stream[3])):
        assert np.array_equal(ch.h(k), expected), k
        assert np.linalg.matrix_rank(ch.h(k)) == min(m, n)


def test_sampled_channels_keep_the_drawn_stack_without_a_copy(monkeypatch):
    real = np.random.Generator
    drawn = []

    class Recording:
        def __init__(self, bit_generator):
            self._rng = real(bit_generator)

        def standard_normal(self, size):
            drawn.append(self._rng.standard_normal(size))
            return drawn[-1]

    monkeypatch.setattr(np.random, "Generator", Recording)
    ch = bx.sample_channels(bx.Dimensions(4, 3), 5)
    monkeypatch.undo()
    (stack,) = drawn
    assert all(ch.h(k).base is stack for k in range(1, 5))
    assert not stack.flags.writeable
    assert ch.dims == bx.Dimensions(4, 3) and ch.bases == {}


def test_channel_alias_and_orientation():
    dims = bx.Dimensions(4, 3)
    ch = bx.sample_channels(dims, 0)
    assert ch.h(1) is ch.link_matrix(1, 1)
    assert ch.h(2) is ch.link_matrix(1, 2)
    assert ch.h(3) is ch.link_matrix(2, 1)
    assert ch.h(4) is ch.link_matrix(2, 2)


@pytest.mark.parametrize("k", [0, -1, 5])
def test_channel_alias_outside_one_to_four_is_refused(k):
    """An index below 1 does not wrap around to h22 or h21."""
    with pytest.raises(ValueError, match=r"channel alias index must be 1\.\.4"):
        bx.sample_channels(bx.Dimensions(4, 3), 0).h(k)


@pytest.mark.parametrize("rx, tx", [(0, 1), (1, 3), (1, 0), (3, 1), (-1, 2)])
def test_link_outside_one_or_two_is_refused(rx, tx):
    """Neither a channel set nor a topology maps an out-of-range link onto another."""
    with pytest.raises(ValueError, match="rx and tx must be 1 or 2"):
        bx.sample_channels(bx.Dimensions(4, 3), 0).link_matrix(rx, tx)
    with pytest.raises(ValueError, match="rx and tx must be 1 or 2"):
        bx.TOPOLOGIES["f"].link(rx, tx)


def test_channels_deterministic_and_readonly():
    dims = bx.Dimensions(3, 2)
    a = bx.sample_channels(dims, 11)
    b = bx.sample_channels(dims, 11)
    for k in range(1, 5):
        assert np.array_equal(a.h(k), b.h(k))
    with pytest.raises(ValueError):
        a.h(1)[0, 0] = 99.0


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("fault", ["shape", "nan", "inf"])
def test_channel_set_names_the_faulty_matrix(k, fault):
    mats = [np.ones((3, 4)) for _ in range(4)]
    if fault == "shape":
        mats[k - 1] = np.ones((4, 3))
    else:
        mats[k - 1][1, 2] = np.nan if fault == "nan" else -np.inf
    with pytest.raises(ValueError, match=("h11", "h12", "h21", "h22")[k - 1]):
        bx.ChannelSet(bx.Dimensions(4, 3), *mats)


def test_channel_set_copies_the_callers_matrices_read_only():
    mats = [np.full((3, 4), float(k)) for k in range(1, 5)]
    ch = bx.ChannelSet(bx.Dimensions(4, 3), *mats)
    for h in mats:
        h[...] = -1.0
    for k in range(1, 5):
        h = ch.h(k)
        assert np.array_equal(h, np.full((3, 4), float(k)))
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 0] = 0.0


@pytest.mark.parametrize("m", range(1, 7))
def test_rank_verdict_equals_matrix_rank(m):
    rng = np.random.Generator(np.random.Philox(m))
    for n in range(1, 7):
        stack = rng.standard_normal((5, n, m))
        stack[1, -1] = stack[1, 0]  # two equal rows when n > 1
        stack[2] = 0.0
        stack[3] *= 1e-300  # tiny but generic: the tolerance is relative
        expected = [np.linalg.matrix_rank(h) == min(n, m) for h in stack]
        assert _full_rank(stack).tolist() == expected, (m, n)
        assert expected[0] and not expected[2]
