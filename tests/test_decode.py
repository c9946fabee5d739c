"""Successive cancellation decoding and the verification wrapper."""

import numpy as np
import pytest

import burstyx as bx
from burstyx.schemes import Carrier, CodeScheme, DecodeStep, Placement, Variable


def _verify(scheme, m, n, seed=0, trials=2):
    ch = bx.sample_channels(bx.Dimensions(m, n), seed)
    return bx.verify_decodability(ch, scheme, trials=trials, seed=seed + 50)


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (3, 2), (2, 3), (5, 4), (2, 2)])
@pytest.mark.parametrize("pair", ["z12", "z34"])
def test_pair_codes_decode(shape, pair):
    m, n = shape
    res = _verify(bx.build_z_pair_code(bx.Dimensions(m, n), pair), m, n)
    assert res.ok, res.error
    assert res.achieved_dof == 2 * min(m, n) + max(m, n)
    assert res.max_rel_error < 1e-6


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (5, 4), (4, 5), (3, 3)])
def test_zf_codes_decode(shape):
    m, n = shape
    res = _verify(bx.build_zf_code(bx.Dimensions(m, n)), m, n)
    assert res.ok, res.error
    assert res.achieved_dof == 6 * min(m, n) + 2 * max(m, n)


@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (5, 4)])
def test_precoders_decode(shape):
    m, n = shape
    for build, total in [
        (bx.build_block_ia_precoder, 8 * n),
        (bx.build_refined_ia_precoder, 6 * n + 2 * m),
    ]:
        res = _verify(build(bx.Dimensions(m, n)), m, n)
        assert res.ok, res.error
        assert res.achieved_dof == total


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (4, 2), (3, 3), (1, 1)])
def test_all_single_slot_codes_decode(shape):
    m, n = shape
    dims = bx.Dimensions(m, n)
    ch = bx.sample_channels(dims, 3)
    for name in sorted(bx.TOPOLOGIES):
        try:
            scheme = bx.build_single_topology_code(name, dims)
        except ValueError:
            scheme = bx.build_f_fallback(dims)
        res = bx.verify_decodability(ch, scheme, trials=2, seed=7)
        assert res.ok, (name, res.error)
        assert res.achieved_dof == bx.single_slot_symbols(name, m, n)


def test_structural_metrics_are_tiny():
    dims = bx.Dimensions(4, 3)
    for seed in range(10):
        ch = bx.sample_channels(dims, seed)
        res = bx.verify_decodability(ch, bx.build_zf_code(dims), trials=2, seed=seed)
        assert res.ok
        assert res.max_null_residual < 1e-10
        assert res.max_align_mismatch < 1e-10
        assert res.max_group_crosscheck < 1e-10


def test_sic_decode_returns_all_variables():
    dims = bx.Dimensions(4, 3)
    ch = bx.sample_channels(dims, 1)
    scheme = bx.build_z_pair_code(dims, "z12")
    eff = bx.effective_channel(ch, scheme)
    rng = np.random.default_rng(0)
    x = {v.name: rng.standard_normal(v.length) for v in scheme.variables}
    known, metrics = bx.sic_decode(eff, scheme.steps, x)
    assert set(known) == set(x)
    for name in x:
        assert np.linalg.norm(known[name] - x[name]) < 1e-8
    assert metrics.max_null_residual < 1e-10


@pytest.mark.parametrize("batch", [(), (3,)])
def test_sic_decode_rejects_a_nan_message(batch):
    dims = bx.Dimensions(4, 3)
    scheme = bx.build_zf_code(dims)
    eff = bx.effective_channel(bx.sample_channels(dims, 1), scheme)
    x = {v.name: np.ones((v.length,) + batch) for v in scheme.variables}
    x[scheme.variables[-1].name].flat[0] = np.nan
    with pytest.raises(ValueError, match="inconsistent system"):
        bx.sic_decode(eff, scheme.steps, x)


def test_verify_fails_a_nan_reconstruction(monkeypatch):
    import burstyx.decode

    real = burstyx.decode.sic_decode

    def nan_decode(eff, steps, x_true, rel_tol=1e-6):
        decoded, metrics = real(eff, steps, x_true, rel_tol)
        return {name: np.full_like(val, np.nan) for name, val in decoded.items()}, metrics

    dims = bx.Dimensions(4, 3)
    ch = bx.sample_channels(dims, 1)
    scheme = bx.build_z_pair_code(dims, "z12")
    assert bx.verify_decodability(ch, scheme, seed=2).ok
    monkeypatch.setattr(burstyx.decode, "sic_decode", nan_decode)
    res = bx.verify_decodability(ch, scheme, seed=2)
    assert not res.ok
    assert res.achieved_dof == 0
    assert "nan" in res.error
    assert np.isnan(res.max_rel_error)


def test_verify_messages_are_not_the_channel_stream(monkeypatch):
    """Messages come from their own stream, not sample_channels(dims, seed)'s."""
    import burstyx.decode

    real = burstyx.decode.sic_decode
    seen = []

    def capture(eff, steps, x_true, rel_tol=1e-6):
        seen.append(eff.concat(x_true))
        return real(eff, steps, x_true, rel_tol)

    monkeypatch.setattr(burstyx.decode, "sic_decode", capture)
    dims = bx.Dimensions(4, 3)
    seed = 7
    channels = bx.sample_channels(dims, seed)
    assert bx.verify_decodability(channels, bx.build_zf_code(dims), trials=1, seed=seed).ok
    first = seen[0]
    channel_stream = np.random.Generator(np.random.Philox(seed)).standard_normal(first.size)
    assert not np.any(np.isclose(first, channel_stream))
    messages = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed).spawn(2)[1])
    ).standard_normal(first.size)
    assert np.array_equal(first, messages)


def test_rank_deficient_step_fails_cleanly():
    """Two identical carriers in one slot cannot both be solved."""
    dims = bx.Dimensions(2, 2)
    scheme = CodeScheme(
        "collide",
        dims,
        ("f",),
        (Variable("u", 1, 1, 1), Variable("v", 1, 1, 1)),
        (
            Placement(0, 1, "u", Carrier("I-slice", 1)),
            Placement(0, 1, "v", Carrier("I-slice", 1)),
        ),
        (DecodeStep(rx=1, slots=(0,), solve=("u", "v")),),
    )
    res = _verify(scheme, 2, 2)
    assert not res.ok
    assert res.achieved_dof == 0
    assert res.error


def test_unaccounted_interference_is_detected():
    """A step must mention every variable visible in its rows."""
    dims = bx.Dimensions(2, 2)
    scheme = CodeScheme(
        "leaky",
        dims,
        ("f",),
        (Variable("u", 2, 1, 1), Variable("v", 2, 2, 2)),
        (
            Placement(0, 1, "u", Carrier("I-slice", 2)),
            Placement(0, 2, "v", Carrier("I-slice", 2)),
        ),
        (
            # rx1 also hears v but the step pretends it does not
            DecodeStep(rx=1, slots=(0,), solve=("u",)),
            DecodeStep(rx=2, slots=(0,), cancel=("u",), solve=("v",)),
        ),
    )
    res = _verify(scheme, 2, 2)
    assert not res.ok
    assert "leaks" in res.error


def test_cancellation_after_handover():
    """A variable solved at one receiver cancels later at the other."""
    dims = bx.Dimensions(2, 2)
    scheme = CodeScheme(
        "handover",
        dims,
        ("z1",),  # rx2 hears only tx2
        (Variable("u", 2, 2, 2), Variable("v", 2, 1, 1)),
        (
            Placement(0, 2, "u", Carrier("I-slice", 2)),
            Placement(0, 1, "v", Carrier("I-slice", 2)),
        ),
        (
            DecodeStep(rx=2, slots=(0,), solve=("u",)),
            DecodeStep(rx=1, slots=(0,), cancel=("u",), solve=("v",)),
        ),
    )
    res = _verify(scheme, 2, 2)
    assert res.ok, res.error
    assert res.achieved_dof == 4


def test_verify_reports_channel_misuse():
    # a 3x3 scheme decoded against 4x3 channels must fail, not crash
    scheme = bx.build_zf_code(bx.Dimensions(3, 3))
    ch = bx.sample_channels(bx.Dimensions(4, 3), 0)
    res = bx.verify_decodability(ch, scheme, trials=1, seed=1)
    assert not res.ok


def test_group_alignment_mismatch_detected():
    """Members of an aligned group must ride identical effective columns."""
    dims = bx.Dimensions(2, 2)
    scheme = CodeScheme(
        "misaligned",
        dims,
        ("f", "f"),
        (Variable("a", 1, 1, 1), Variable("b", 1, 2, 2), Variable("w", 2, 1, 1)),
        (
            # a and b use different carriers, so their columns differ
            Placement(0, 1, "a", Carrier("I-slice", 1)),
            Placement(0, 2, "b", Carrier("I-slice", 1, start=1)),
            Placement(1, 1, "w", Carrier("I-slice", 2)),
        ),
        (
            DecodeStep(rx=1, slots=(0,), solve_groups=(("a", "b"),)),
            DecodeStep(rx=1, slots=(1,), solve=("w",)),
            DecodeStep(rx=2, slots=(0,), solve=("a", "b")),
        ),
    )
    res = _verify(scheme, 2, 2)
    assert not res.ok


def test_trials_and_dof_reporting():
    dims = bx.Dimensions(3, 2)
    ch = bx.sample_channels(dims, 9)
    scheme = bx.build_z_pair_code(dims, "z34")
    res = bx.verify_decodability(ch, scheme, trials=5, seed=2)
    assert res.ok
    assert res.trials == 5
    assert res.achieved_dof == 7
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            bx.verify_decodability(ch, scheme, trials=trials, seed=2)


def _all_constructions(dims):
    builds = [
        lambda: bx.build_f_fallback(dims),
        lambda: bx.build_z_pair_code(dims, "z12"),
        lambda: bx.build_z_pair_code(dims, "z34"),
        lambda: bx.build_zf_code(dims),
        lambda: bx.build_block_ia_precoder(dims),
        lambda: bx.build_refined_ia_precoder(dims),
    ] + [
        lambda name=name: bx.build_single_topology_code(name, dims)
        for name in sorted(bx.TOPOLOGIES)
    ]
    for build in builds:
        try:
            scheme = build()
        except ValueError:
            continue  # infeasible at this shape
        if scheme.total_symbols:
            yield scheme


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (3, 3), (24, 18)])
def test_batched_decode_equals_per_column_decodes(shape):
    dims = bx.Dimensions(*shape)
    ch = bx.sample_channels(dims, 11)
    rng = np.random.default_rng(12)
    schemes = list(_all_constructions(dims))
    assert len(schemes) >= 10
    for scheme in schemes:
        eff = bx.effective_channel(ch, scheme)
        x = {v.name: rng.standard_normal((v.length, 4)) for v in scheme.variables}
        batch, metrics = bx.sic_decode(eff, scheme.steps, x)
        worst_crosscheck = 0.0
        for j in range(4):
            column, col_metrics = bx.sic_decode(
                eff, scheme.steps, {name: val[:, j] for name, val in x.items()}
            )
            for name, val in column.items():
                assert batch[name].shape == x[name].shape
                assert np.max(np.abs(batch[name][:, j] - val)) < 1e-12, (scheme.name, name)
            assert col_metrics.max_null_residual == metrics.max_null_residual
            assert col_metrics.max_align_mismatch == metrics.max_align_mismatch
            worst_crosscheck = max(worst_crosscheck, col_metrics.max_group_crosscheck)
        assert abs(metrics.max_group_crosscheck - worst_crosscheck) < 1e-12, scheme.name


def _per_variable_null_residual(eff, steps):
    """max_null_residual as one norm per row block and per variable."""
    worst = 0.0
    for step in steps:
        rows = eff.rows_for(step.rx, step.slots)
        scale = max(1.0, float(np.linalg.norm(eff.matrix[rows])))
        accounted = set(step.solve) | set(step.cancel)
        for g in step.solve_groups + step.cancel_groups:
            accounted |= set(g)
        for name in eff.var_order:
            if name not in accounted:
                leak = float(np.linalg.norm(eff.matrix[rows, eff.col_blocks[name]])) / scale
                worst = max(worst, leak)
    return worst


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (3, 3), (24, 18)])
def test_null_residual_equals_per_variable_norms(shape):
    # Summation order differs from the reference; a sum of squares is
    # accurate to a few ulps, so 1e-12 relative is loose.
    dims = bx.Dimensions(*shape)
    ch = bx.sample_channels(dims, 13)
    rng = np.random.default_rng(14)
    for scheme in _all_constructions(dims):
        eff = bx.effective_channel(ch, scheme)
        x = {v.name: rng.standard_normal(v.length) for v in scheme.variables}
        _known, metrics = bx.sic_decode(eff, scheme.steps, x)
        expected = _per_variable_null_residual(eff, scheme.steps)
        assert abs(metrics.max_null_residual - expected) <= 1e-12 * expected, scheme.name
