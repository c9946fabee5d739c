"""Per-receiver zero-forcing decoding and the verification wrapper."""

from dataclasses import replace

import numpy as np
import pytest

import burstyx as bx
import burstyx.builders
import burstyx.decode
import burstyx.sim
from burstyx.decode import STRUCT_TOL
from burstyx.schemes import Carrier, CodeScheme, Variable


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
    x = np.random.default_rng(0).standard_normal(scheme.total_symbols)
    known, metrics = bx.sic_decode(eff, x)
    assert known.shape == x.shape
    for name, cols in scheme.columns.items():
        assert np.linalg.norm(known[cols] - x[cols]) < 1e-8, name
    assert metrics.max_null_residual < 1e-10


@pytest.mark.parametrize("batch", [(), (3,)])
def test_sic_decode_rejects_a_nan_message(batch):
    dims = bx.Dimensions(4, 3)
    scheme = bx.build_zf_code(dims)
    eff = bx.effective_channel(bx.sample_channels(dims, 1), scheme)
    x = np.ones((scheme.total_symbols,) + batch)
    x[(scheme.columns[scheme.variables[-1].name].start,) + (0,) * len(batch)] = np.nan
    with pytest.raises(ValueError, match="inconsistent system"):
        bx.sic_decode(eff, x)


def test_verify_fails_a_nan_reconstruction(monkeypatch):
    real = burstyx.decode.sic_decode

    def nan_decode(eff, x, rel_tol=1e-6):
        decoded, metrics = real(eff, x, rel_tol)
        return np.full_like(decoded, np.nan), metrics

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

    def capture(eff, x, rel_tol=1e-6):
        seen.append(x.copy())
        return real(eff, x, rel_tol)

    monkeypatch.setattr(burstyx.decode, "sic_decode", capture)
    dims = bx.Dimensions(4, 3)
    seed = 7
    channels = bx.sample_channels(dims, seed)
    assert bx.verify_decodability(channels, bx.build_zf_code(dims), trials=1, seed=seed).ok
    first = seen[0]
    channel_stream = np.random.Generator(np.random.Philox(seed)).standard_normal(first.size)
    assert not np.any(np.isclose(first, channel_stream))
    def message_stream():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed).spawn(2)[1]))

    assert np.array_equal(first, message_stream().standard_normal(first.size))
    # one draw per message is the stream a draw per variable would give
    per_variable = message_stream()
    variables = bx.build_zf_code(dims).variables
    assert np.array_equal(first, np.concatenate([per_variable.standard_normal(v.length) for v in variables]))


def test_rank_deficient_step_fails_cleanly():
    """Two identical carriers in one slot cannot both be solved."""
    dims = bx.Dimensions(2, 2)
    scheme = CodeScheme(
        "collide",
        dims,
        ("f",),
        (
            Variable("u", 1, 1, Carrier("I-slice", 1), (0,)),
            Variable("v", 1, 1, Carrier("I-slice", 1), (0,)),
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
        (
            Variable("u", 1, 1, Carrier("I-slice", 2), (0,)),
            Variable("v", 2, 2, Carrier("I-slice", 2), (0,)),
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
        (
            Variable("u", 2, 2, Carrier("I-slice", 2), (0,)),
            Variable("v", 1, 1, Carrier("I-slice", 2), (0,)),
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
    with pytest.raises(bx.DecodeError, match="rx1 cannot separate"):
        bx.sic_decode(eff, np.ones(scheme.total_symbols))


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
            Variable("a1", 1, 1, Carrier("pinv", 1, ch=3, start=2), (0,)),
            Variable("a2", 2, 1, Carrier("pinv", 1, ch=4, start=2), (0,)),
            Variable("u", 1, 2, Carrier("pinv", 1, ch=1), (0,)),
            Variable("v", 2, 2, Carrier("pinv", 1, ch=2, start=start_v), (0,)),
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
        x = rng.standard_normal((scheme.total_symbols, 4))
        batch, metrics = bx.sic_decode(eff, x)
        assert batch.shape == x.shape
        for j in range(4):
            column, col_metrics = bx.sic_decode(eff, x[:, j])
            assert np.max(np.abs(batch[:, j] - column)) < 1e-12, scheme.name
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
            for col in range(scheme.columns[v.name].start, scheme.columns[v.name].stop)
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
        _known, metrics = bx.sic_decode(eff, rng.standard_normal(scheme.total_symbols))
        expected = _null_residual_reference(eff, scheme)
        # Singular values at rounding level (about 1e-16) depend on the
        # LAPACK routine, so they are compared absolutely, far below the gate.
        assert abs(metrics.max_null_residual - expected) <= 1e-12 * expected + 1e-15, scheme.name


def test_misaligned_zf_code_fails_in_the_decoder():
    """zf at 4x3 with c on an identity slice instead of its alignment block."""
    dims = bx.Dimensions(4, 3)
    zf = bx.build_zf_code(dims)
    variables = tuple(
        replace(v, carrier=Carrier("I-slice", v.length)) if v.name == "c" else v for v in zf.variables
    )
    scheme = replace(zf, name="zf_misaligned", variables=variables)
    for seed in range(3):
        res = _verify(scheme, 4, 3, seed=seed)
        assert not res.ok
        assert "rx1 cannot separate" in res.error
        assert _verify(zf, 4, 3, seed=seed).ok


@pytest.mark.parametrize("shape", [(4, 3), (3, 4), (24, 18)])
def test_each_receiver_is_factored_once_per_effective_channel(monkeypatch, shape):
    real = burstyx.decode.solve_exact
    widths = []  # one desired width per factored receiver

    def counting(a):
        widths.extend([a.shape[-1]] * (a.shape[0] if a.ndim == 3 else 1))
        return real(a)

    def receiver_widths(schemes):
        return sorted(
            sum(v.length for v in scheme.variables if v.rx == rx)
            for scheme in schemes
            for rx in {v.rx for v in scheme.variables}
        )

    monkeypatch.setattr(burstyx.decode, "solve_exact", counting)
    dims = bx.Dimensions(*shape)
    ch = bx.sample_channels(dims, 5)
    for scheme in _all_constructions(dims):
        widths.clear()
        res = bx.verify_decodability(ch, scheme, trials=3, seed=5)
        assert res.ok, (scheme.name, res.error)
        assert sorted(widths) == receiver_widths([scheme]), scheme.name

    # A run factors each scheduled kind's receivers once, whatever its decodes.
    widths.clear()
    res = bx.run_simulation(dims, 0.6, 5_000, 5, decode_fraction=0.05)
    scheduled = [burstyx.builders.CODES[name].build(dims) for name in res.allocation.blocks]
    assert sorted(widths) == receiver_widths(scheduled)
    assert len(res.allocation.blocks) > 3


def _factor_alone(eff, rx):
    """Receiver rx factored by itself, with one 2-D np.linalg.svd call per SVD.

    Returns (projected, pseudo-inverse of its desired columns, null
    residual, separation), or the DecodeError's (message, separation, null
    residual).
    """
    height = eff.matrix.shape[0] // 2
    desired, interference = eff.scheme.receiver_columns[rx]
    h = eff.matrix[(rx - 1) * height : rx * height]
    col_sq = np.square(h).sum(axis=0)
    scale = max(1.0, float(np.sqrt(col_sq.sum())))
    cutoff = STRUCT_TOL * scale
    norms = np.sqrt(col_sq[interference])
    residual = float(norms[norms <= cutoff].max(initial=0.0))
    live = interference[norms > cutoff]
    basis = np.zeros((height, 0))
    if live.size:
        u, s, _vt = np.linalg.svd(h[:, live], full_matrices=False)
        basis = u[:, s > cutoff]
        residual = max(residual, float(s[s <= cutoff].max(initial=0.0)))
    projected = h - basis @ (basis.T @ h)
    a = projected[:, desired]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size < a.shape[1] or s[-1] <= max(a.shape) * 1e-12 * s[0]:  # solve_exact's rank test
        return f"rx{rx} cannot separate", 0.0, residual / scale
    separation = float(s[-1]) / scale
    if not separation > STRUCT_TOL:
        return f"rx{rx} cannot separate", separation, residual / scale
    return projected, (vt.T / s) @ u.T, residual / scale, separation


@pytest.mark.parametrize("m", range(1, 13))
def test_stacked_factorization_equals_factoring_each_receiver_alone(m):
    """Every scheduled kind and verify label at m x 1..12, all factored in one pass."""
    rng = np.random.default_rng(m)
    for n in range(1, 13):
        dims = bx.Dimensions(m, n)
        ch = bx.sample_channels(dims, 11)
        codes = {}
        for entry in burstyx.builders.CODES.values():
            try:
                scheme = entry.build(dims)
            except ValueError:
                continue
            codes[id(scheme)] = scheme
        effs = [bx.effective_channel(ch, scheme) for scheme in codes.values()]
        failures = burstyx.decode.factor_receivers(effs)
        for i, eff in enumerate(effs):
            x = rng.standard_normal((eff.scheme.total_symbols, 3))
            for rx in (1, 2):
                if not eff.scheme.receiver_columns[rx][0].size:
                    assert rx not in eff.receivers and (i, rx) not in failures
                    continue
                alone = _factor_alone(eff, rx)
                where = (eff.scheme.name, m, n, rx)
                if isinstance(alone[0], str):
                    failure = failures[i, rx]
                    assert rx not in eff.receivers, where
                    assert str(failure).startswith(alone[0]), where
                    assert (failure.separation, failure.null_residual) == alone[1:], where
                    continue
                rec = eff.receivers[rx]
                assert (i, rx) not in failures, where
                assert np.array_equal(rec.projected, alone[0]), where
                assert (rec.null_residual, rec.separation) == alone[2:], where
                assert np.array_equal(rec.solve(rec.projected @ x), alone[1] @ (alone[0] @ x)), where


def test_factor_receivers_raises_nothing_and_sic_decode_raises_for_the_failure():
    dims = bx.Dimensions(4, 3)
    ch = bx.sample_channels(dims, 2)
    good = bx.build_z_pair_code(dims, "z12")
    # A second copy of a desired stream: its receiver's desired columns lose rank.
    v = good.variables[0]
    doubled = good.variables + (replace(v, name=v.name + "_copy"),)
    broken = replace(good, name="z12_doubled", variables=doubled)
    effs = [bx.effective_channel(ch, scheme) for scheme in (good, broken)]
    failures = burstyx.decode.factor_receivers(effs)
    assert set(effs[0].receivers) == {1, 2}
    assert list(failures) == [(1, v.rx)] and set(effs[1].receivers) == {3 - v.rx}
    assert failures[1, v.rx].separation == 0.0
    with pytest.raises(bx.DecodeError, match=f"rx{v.rx} cannot separate") as exc:
        bx.sic_decode(effs[1], np.zeros(broken.total_symbols))
    assert str(exc.value) == str(failures[1, v.rx])
    assert burstyx.decode.factor_receivers(effs[:1]) == {}  # memoized: nothing left to factor


def test_memo_and_matrix_are_read_only():
    dims = bx.Dimensions(4, 3)
    scheme = bx.build_zf_code(dims)
    eff = bx.effective_channel(bx.sample_channels(dims, 2), scheme)
    x = np.ones(scheme.total_symbols)
    bx.sic_decode(eff, x)
    assert set(eff.receivers) == {1, 2}
    with pytest.raises(ValueError):
        eff.matrix[0, 0] = 1.0
    for rec in eff.receivers.values():
        with pytest.raises(ValueError):
            rec.projected[0] = 1.0
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
    _known, metrics = bx.sic_decode(eff, np.ones(scheme.total_symbols))
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


def _reconstruction_reference(scheme, x_hat, x):
    """The relative error of each variable of each message, one at a time."""
    x_hat, x = x_hat.reshape(len(x), -1), x.reshape(len(x), -1)
    return np.array(
        [
            [
                np.linalg.norm(x_hat[cols, j] - x[cols, j]) / max(1.0, np.linalg.norm(x[cols, j]))
                for j in range(x.shape[1])
            ]
            for cols in scheme.columns.values()
        ]
    )


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_reconstruction_error_holds_each_variable_of_each_message(factor):
    """An error of 0.9 * rel_tol in one variable of one message passes and
    1.1 * rel_tol fails, naming that variable, in a batch and alone; the
    worst error is reported."""
    rel_tol = 1e-6
    scheme = bx.build_zf_code(bx.Dimensions(4, 3))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((scheme.total_symbols, 5))
    x_hat = x + 1e-9 * rng.standard_normal(x.shape)
    v = scheme.variables[2]
    cols = scheme.columns[v.name]
    x_hat[cols.stop - 1, 4] = x[cols.stop - 1, 4] + factor * rel_tol * max(1.0, np.linalg.norm(x[cols, 4]))
    for decoded, sent in ((x_hat, x), (x_hat[:, 4], x[:, 4])):  # the batch, and its last message
        worst, failure = burstyx.decode.reconstruction_error(scheme, decoded, sent, rel_tol)
        reference = _reconstruction_reference(scheme, decoded, sent)
        assert worst == pytest.approx(reference.max(), rel=1e-9)
        assert reference.max(axis=1).argmax() == 2
        if factor < 1:
            assert failure is None
        else:
            assert failure == f"variable {v.name!r} reconstructed with relative error {reference.max():.3e}"


def test_reconstruction_error_names_the_first_failing_variable_and_fails_nan():
    scheme = bx.build_z_pair_code(bx.Dimensions(4, 3), "z12")
    x = np.ones((scheme.total_symbols, 3))
    x_hat = x.copy()
    first, second = (scheme.columns[v.name] for v in scheme.variables[1:3])
    x_hat[second, 0] += 1.0
    x_hat[first.start, 2] = np.nan
    worst, failure = burstyx.decode.reconstruction_error(scheme, x_hat, x, 1e-6)
    assert np.isnan(worst)
    assert failure == f"variable {scheme.variables[1].name!r} reconstructed with relative error nan"


@pytest.mark.parametrize("batch", [(), (4,)])
def test_a_scheme_without_variables_decodes_and_checks_nothing(batch):
    """single:empty has no variable: its message is an empty array."""
    dims = bx.Dimensions(4, 3)
    scheme = bx.build_single_topology_code("empty", dims)
    assert scheme.total_symbols == 0 and scheme.columns == {}
    eff = bx.effective_channel(bx.sample_channels(dims, 1), scheme)
    x = np.zeros((0,) + batch)
    x_hat, metrics = bx.sic_decode(eff, x)
    assert x_hat.shape == x.shape
    assert metrics == burstyx.decode.DecodeMetrics()
    assert burstyx.decode.reconstruction_error(scheme, x_hat, x, 1e-6) == (0.0, None)
    res = bx.verify_decodability(bx.sample_channels(dims, 1), scheme, trials=2, seed=1)
    assert (res.ok, res.achieved_dof, res.max_rel_error, res.min_separation) == (True, 0, 0.0, float("inf"))


@pytest.mark.parametrize("seed,rx,separation", [(7742, 1, 2.60e-10), (10872, 2, 6.34e-10)])
def test_a_failed_draw_reports_the_failing_receivers_separation(seed, rx, separation):
    """The DecodeError carries the separation, so the result reads it, not inf."""
    dims = bx.Dimensions(24, 18)
    res = bx.verify_decodability(bx.sample_channels(dims, seed), bx.build_zf_code(dims), trials=1, seed=seed)
    assert not res.ok
    assert res.error.startswith(f"rx{rx} cannot separate")
    assert res.min_separation == pytest.approx(separation, rel=1e-2)


@pytest.mark.parametrize("seed,rx", [(7742, 1), (10872, 2)])
def test_a_failed_draw_reports_the_failing_receivers_null_residual(seed, rx):
    """The DecodeError carries the null residual too, so the result reads it, not 0.0."""
    dims = bx.Dimensions(24, 18)
    scheme, channels = bx.build_zf_code(dims), bx.sample_channels(dims, seed)
    with pytest.raises(bx.DecodeError, match=f"rx{rx} cannot separate") as failed:
        bx.sic_decode(bx.effective_channel(channels, scheme), np.zeros(scheme.total_symbols))
    # about 1e-16 on these draws: round-off, far inside the gate
    assert 0.0 < failed.value.null_residual < STRUCT_TOL
    res = bx.verify_decodability(channels, scheme, trials=1, seed=seed)
    assert res.max_null_residual == failed.value.null_residual


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: the native wide zf code's separation falls below the 1e-9 gate on this draw",
)
@pytest.mark.parametrize("seed", [7742, 10872])
def test_zf_24x18_decodes_on_the_item_11_draws(seed):
    """zf is generically decodable at 24x18, so this draw should pass."""
    dims = bx.Dimensions(24, 18)
    assert bx.verify_decodability(bx.sample_channels(dims, seed), bx.build_zf_code(dims), trials=1, seed=seed).ok
