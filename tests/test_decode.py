"""Per-receiver zero-forcing decoding and the verification wrapper."""

from dataclasses import replace

import numpy as np
import pytest

import burstyx as bx
import burstyx.decode
from burstyx.decode import STRUCT_TOL
from burstyx.schemes import Carrier, CodeScheme, Placement, Variable


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
        assert res.min_separation > 1e3 * STRUCT_TOL


def test_sic_decode_returns_all_variables():
    dims = bx.Dimensions(4, 3)
    ch = bx.sample_channels(dims, 1)
    scheme = bx.build_z_pair_code(dims, "z12")
    eff = bx.effective_channel(ch, scheme)
    rng = np.random.default_rng(0)
    x = {v.name: rng.standard_normal(v.length) for v in scheme.variables}
    known, metrics = bx.sic_decode(eff, x)
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
        bx.sic_decode(eff, x)


def test_verify_fails_a_nan_reconstruction(monkeypatch):
    real = burstyx.decode.sic_decode

    def nan_decode(eff, x_true, rel_tol=1e-6):
        decoded, metrics = real(eff, x_true, rel_tol)
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
    real = burstyx.decode.sic_decode
    seen = []

    def capture(eff, x_true, rel_tol=1e-6):
        seen.append(eff.concat(x_true))
        return real(eff, x_true, rel_tol)

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
    )
    res = _verify(scheme, 2, 2)
    assert not res.ok
    assert res.achieved_dof == 0
    assert "rx1 cannot separate" in res.error


def test_unaccounted_interference_is_detected():
    """Interference that fills a receiver's space leaves nothing to decode."""
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
    )
    res = _verify(scheme, 2, 2)
    assert not res.ok
    assert "rx1 cannot separate" in res.error


def _handover_scheme():
    """rx1 hears both transmitters at full width in z1; only rx2 could solve u."""
    return CodeScheme(
        "handover",
        bx.Dimensions(2, 2),
        ("z1",),  # rx2 hears only tx2
        (Variable("u", 2, 2, 2), Variable("v", 2, 1, 1)),
        (
            Placement(0, 2, "u", Carrier("I-slice", 2)),
            Placement(0, 1, "v", Carrier("I-slice", 2)),
        ),
    )


def test_cancellation_after_handover():
    """rx1 may not cancel u with the value rx2 solved: it fails on its own rows."""
    scheme = _handover_scheme()
    res = _verify(scheme, 2, 2)
    assert not res.ok
    assert res.achieved_dof == 0
    assert "rx1 cannot separate" in res.error
    eff = bx.effective_channel(bx.sample_channels(scheme.dims, 0), scheme)
    x = {v.name: np.ones(v.length) for v in scheme.variables}
    with pytest.raises(bx.DecodeError, match="rx1 cannot separate"):
        bx.sic_decode(eff, x)


def test_verify_reports_channel_misuse():
    # a 3x3 scheme decoded against 4x3 channels must fail, not crash
    scheme = bx.build_zf_code(bx.Dimensions(3, 3))
    ch = bx.sample_channels(bx.Dimensions(4, 3), 0)
    res = bx.verify_decodability(ch, scheme, trials=1, seed=1)
    assert not res.ok


def _aligned_scheme(start_v):
    """The 3x3 all-links code: u and v, both for rx2, align at rx1 only when
    start_v is 0, as a1 and a2, both for rx1, align at rx2."""
    return CodeScheme(
        "aligned" if start_v == 0 else "misaligned",
        bx.Dimensions(3, 3),
        ("f",),
        (
            Variable("a1", 1, 1, 1),
            Variable("a2", 1, 2, 1),
            Variable("u", 1, 1, 2),
            Variable("v", 1, 2, 2),
        ),
        (
            Placement(0, 1, "a1", Carrier("pinv", 1, ch=3, start=2)),
            Placement(0, 2, "a2", Carrier("pinv", 1, ch=4, start=2)),
            Placement(0, 1, "u", Carrier("pinv", 1, ch=1)),
            Placement(0, 2, "v", Carrier("pinv", 1, ch=2, start=start_v)),
        ),
    )


def test_group_alignment_mismatch_detected():
    """Interference meant to align at a receiver must really share its columns."""
    ok = _verify(_aligned_scheme(0), 3, 3)
    assert ok.ok, ok.error
    assert ok.achieved_dof == 4
    res = _verify(_aligned_scheme(1), 3, 3)
    assert not res.ok
    assert "rx1 cannot separate" in res.error


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
        batch, metrics = bx.sic_decode(eff, x)
        for j in range(4):
            column, col_metrics = bx.sic_decode(eff, {name: val[:, j] for name, val in x.items()})
            for name, val in column.items():
                assert batch[name].shape == x[name].shape
                assert np.max(np.abs(batch[name][:, j] - val)) < 1e-12, (scheme.name, name)
            assert col_metrics == metrics


def _null_residual_reference(eff, scheme):
    """max_null_residual written out, one receiver and one column at a time.

    Per receiver with desired variables: the interference columns of norm
    at most STRUCT_TOL * scale, and the singular values at most
    STRUCT_TOL * scale of the other interference columns; the largest,
    over scale, over both receivers.
    """
    worst = 0.0
    half = eff.matrix.shape[0] // 2
    for rx in (1, 2):
        if not any(v.rx == rx for v in scheme.variables):
            continue
        rows = eff.matrix[(rx - 1) * half : rx * half]
        tol = STRUCT_TOL * max(1.0, float(np.linalg.norm(rows)))
        columns = [
            rows[:, col]
            for v in scheme.variables
            if v.rx != rx
            for col in range(eff.col_blocks[v.name].start, eff.col_blocks[v.name].stop)
        ]
        small = [float(np.linalg.norm(c)) for c in columns if np.linalg.norm(c) <= tol]
        live = [c for c in columns if np.linalg.norm(c) > tol]
        if live:
            sv = np.linalg.svd(np.column_stack(live), compute_uv=False)
            small += [float(v) for v in sv if v <= tol]
        worst = max([worst] + [v * STRUCT_TOL / tol for v in small])
    return worst


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (3, 3), (24, 18)])
def test_null_residual_equals_per_variable_norms(shape):
    """max_null_residual equals an inline SVD reference, to rounding."""
    dims = bx.Dimensions(*shape)
    ch = bx.sample_channels(dims, 13)
    rng = np.random.default_rng(14)
    for scheme in _all_constructions(dims):
        eff = bx.effective_channel(ch, scheme)
        x = {v.name: rng.standard_normal(v.length) for v in scheme.variables}
        _known, metrics = bx.sic_decode(eff, x)
        expected = _null_residual_reference(eff, scheme)
        # Singular values at rounding level (about 1e-16) depend on the
        # LAPACK routine, so they are compared absolutely, far below the gate.
        assert abs(metrics.max_null_residual - expected) <= 1e-12 * expected + 1e-15, scheme.name


def test_misaligned_zf_code_fails_in_the_decoder():
    """zf at 4x3 with c on an identity slice instead of its alignment block."""
    dims = bx.Dimensions(4, 3)
    zf = bx.build_zf_code(dims)
    placements = tuple(
        replace(pl, carrier=Carrier("I-slice", pl.carrier.width)) if pl.var == "c" else pl
        for pl in zf.placements
    )
    scheme = replace(zf, name="zf_misaligned", placements=placements)
    for seed in range(3):
        res = _verify(scheme, 4, 3, seed=seed)
        assert not res.ok
        assert "rx1 cannot separate" in res.error
        assert _verify(zf, 4, 3, seed=seed).ok


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (24, 18)])
def test_each_receiver_is_factored_once_per_effective_channel(monkeypatch, shape):
    real = burstyx.decode.solve_exact
    calls = []

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(burstyx.decode, "solve_exact", counting)
    dims = bx.Dimensions(*shape)
    ch = bx.sample_channels(dims, 5)
    for scheme in _all_constructions(dims):
        calls.clear()
        res = bx.verify_decodability(ch, scheme, trials=3, seed=5)
        assert res.ok, (scheme.name, res.error)
        receivers = {v.rx for v in scheme.variables}
        assert len(calls) == len(receivers), scheme.name
        assert sorted(c[1] for c in calls) == sorted(
            sum(v.length for v in scheme.variables if v.rx == rx) for rx in receivers
        )


def test_memo_and_matrix_are_read_only():
    dims = bx.Dimensions(4, 3)
    scheme = bx.build_zf_code(dims)
    eff = bx.effective_channel(bx.sample_channels(dims, 2), scheme)
    x = {v.name: np.ones(v.length) for v in scheme.variables}
    bx.sic_decode(eff, x)
    assert set(eff.receivers) == {1, 2}
    with pytest.raises(ValueError):
        eff.matrix[0, 0] = 1.0
    for rec in eff.receivers.values():
        for array in (rec.projected, rec.desired):
            with pytest.raises(ValueError):
                array[0] = 1.0
        with pytest.raises(AttributeError):
            rec.separation = 1.0
    before = {rx: rec for rx, rec in eff.receivers.items()}
    bx.sic_decode(eff, x)
    assert all(eff.receivers[rx] is rec for rx, rec in before.items())


def test_separation_is_the_projected_desired_block_conditioning():
    """min_separation is sigma_min of the desired block with the interference
    projected out, over the receiver's scale."""
    dims = bx.Dimensions(4, 3)
    scheme = bx.build_z_pair_code(dims, "z12")
    eff = bx.effective_channel(bx.sample_channels(dims, 3), scheme)
    _known, metrics = bx.sic_decode(eff, {v.name: np.ones(v.length) for v in scheme.variables})
    half = eff.matrix.shape[0] // 2
    want = []
    for rx in (1, 2):
        rows = eff.matrix[(rx - 1) * half : rx * half]
        desired, interference = scheme.receiver_columns[rx]
        scale = max(1.0, np.linalg.norm(rows))
        u, sv, _vt = np.linalg.svd(rows[:, interference])
        q = u[:, : int(np.sum(sv > STRUCT_TOL * scale))]
        block = rows[:, desired] - q @ (q.T @ rows[:, desired])
        want.append(np.linalg.svd(block, compute_uv=False)[-1] / scale)
    assert metrics.min_separation == pytest.approx(min(want), rel=1e-9)
