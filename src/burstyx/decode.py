"""Per-receiver zero-forcing decode over an effective channel.

Receiver j decodes from its own rows alone, over all slots of a scheme at
once: the variables with rx == j are its desired columns H_D, every other
variable is interference H_I. It decodes exactly when rank([H_D H_I]) -
rank(H_I) = |D_j|, the linear decodability condition of Cadambe & Jafar
(IEEE T-IT 2008). No receiver uses anything the other one solved.

The work that depends only on the effective channel is done once per
receiver and memoized in eff.receivers, read-only (see _receiver):

- scale = max(1, ||rows||_F). Interference columns of norm at most
  STRUCT_TOL * scale (links that are off, or zero-forced) are dropped;
  the left singular vectors of the rest with singular value above
  STRUCT_TOL * scale span the interference. The cutoff is absolute: the
  scale-relative ``rank`` would count a zero-forced block (about 1e-16)
  as full rank. The largest dropped norm or discarded singular value,
  over scale, is the null residual.
- A_j = H_D - U_r (U_r^T H_D), the desired columns with the interference
  projected out, is factored once by solve_exact. Its smallest singular
  value over scale is the receiver's separation; at or below STRUCT_TOL
  the receiver cannot decode and DecodeError names it.

The memo keeps the receiver's projected rows P H, with P = I - U_r U_r^T,
so each call projects y_j as one product (P H) x and solves with the
cached factorization, whose residual check holds every column to
rel_tol. Every check is written as ``not value <= tol``, so a NaN fails
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .channel import ChannelSet
from .linalg import solve_exact
from .schemes import CodeScheme, EffectiveChannel, effective_channel

__all__ = ["DecodeError", "DecodeMetrics", "VerifyResult", "sic_decode", "verify_decodability"]

STRUCT_TOL = 1e-9


class DecodeError(RuntimeError):
    """A receiver cannot separate its variables from its interference."""


@dataclass
class DecodeMetrics:
    max_null_residual: float = 0.0
    min_separation: float = float("inf")


class _Receiver(NamedTuple):
    """What receiver rx's decode needs of one effective channel."""

    desired: np.ndarray  # its columns, in column order
    projected: np.ndarray  # its rows with the interference span projected out
    solve: Callable[..., np.ndarray]  # factored A_j
    null_residual: float
    separation: float


def _receiver(eff: EffectiveChannel, rx: int) -> _Receiver:
    """Receiver rx's projection and factorization, once per effective channel.

    Memoized in eff.receivers with read-only arrays; eff.matrix is
    read-only, so an entry cannot go stale. Errors are not memoized.
    """
    rec = eff.receivers.get(rx)
    if rec is not None:
        return rec
    height = eff.matrix.shape[0] // 2
    desired, interference = eff.receiver_columns[rx]
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
    try:
        solve, sv = solve_exact(projected[:, desired])
        separation = float(sv[-1]) / scale
    except ValueError:  # column-rank deficient: no separation at all
        solve, separation = None, 0.0
    if not separation > STRUCT_TOL:
        raise DecodeError(
            f"rx{rx} cannot separate its {desired.size} desired columns from "
            f"its interference (smallest singular value {separation:.3e} of scale)"
        )
    projected.setflags(write=False)
    rec = _Receiver(desired, projected, solve, residual / scale, separation)
    eff.receivers[rx] = rec
    return rec


# Named for the schedule replay it replaced; the benchmark's tracer binds this name.
def sic_decode(
    eff: EffectiveChannel,
    x_true: Dict[str, np.ndarray],
    rel_tol: float = 1e-6,
) -> Tuple[Dict[str, np.ndarray], DecodeMetrics]:
    """Decode the noise-free observations y = H_eff x_true at each receiver.

    Each x_true[name] is one message (length,) or a batch of B messages
    (length, B), one per column; the decoded values have the same shape.
    Each receiver's projection and factorization depend only on eff, so
    they are computed once per effective channel, whatever the batch.
    Returns the decoded variables and the structural metrics. Raises
    DecodeError when a receiver cannot separate its variables and
    ValueError when a projected system has a residual above rel_tol.
    """
    metrics = DecodeMetrics()
    x = eff.concat(x_true)
    x_hat = np.empty_like(x)
    for rx in (1, 2):
        if not eff.receiver_columns[rx][0].size:
            continue
        rec = _receiver(eff, rx)
        x_hat[rec.desired] = rec.solve(rec.projected @ x, rel_tol)
        metrics.max_null_residual = max(metrics.max_null_residual, rec.null_residual)
        metrics.min_separation = min(metrics.min_separation, rec.separation)
    return {name: x_hat[blk] for name, blk in eff.col_blocks.items()}, metrics


@dataclass
class VerifyResult:
    ok: bool
    achieved_dof: int
    trials: int
    max_rel_error: float = 0.0
    max_null_residual: float = 0.0
    min_separation: float = float("inf")
    error: Optional[str] = None


def verify_decodability(
    channels: ChannelSet,
    scheme: CodeScheme,
    trials: int = 3,
    seed: int = 0,
    rel_tol: float = 1e-6,
) -> VerifyResult:
    """Decode random messages through the scheme on the given channels.

    Each trial draws fresh standard normal messages, decodes, and compares
    against the truth at relative tolerance rel_tol; a non-finite error
    fails. The messages come from child 1 of SeedSequence(seed), as in
    run_simulation, so they are independent of sample_channels(dims,
    seed). The result carries the worst reconstruction error and the
    structural metrics over all trials. Raises ValueError when trials is
    below 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,))))
    result = VerifyResult(ok=True, achieved_dof=scheme.total_symbols, trials=trials)
    try:
        eff = effective_channel(channels, scheme)
        for _ in range(trials):
            x_true = {
                v.name: rng.standard_normal(v.length) for v in scheme.variables
            }
            decoded, metrics = sic_decode(eff, x_true, rel_tol)
            for v in scheme.variables:
                err = float(
                    np.linalg.norm(decoded[v.name] - x_true[v.name])
                ) / max(1.0, float(np.linalg.norm(x_true[v.name])))
                result.max_rel_error = float(np.maximum(result.max_rel_error, err))  # keeps a NaN
                if not err <= rel_tol:
                    result.ok = False
                    result.error = (
                        f"variable {v.name!r} reconstructed with relative "
                        f"error {err:.3e}"
                    )
            result.max_null_residual = max(
                result.max_null_residual, metrics.max_null_residual
            )
            result.min_separation = min(result.min_separation, metrics.min_separation)
    except (DecodeError, ValueError) as exc:
        result.ok = False
        result.error = str(exc)
    if not result.ok:
        result.achieved_dof = 0
    return result
