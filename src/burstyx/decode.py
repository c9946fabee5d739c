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
  STRUCT_TOL * scale span the interference. The cutoff is absolute, set
  by the rows' norm: a cutoff relative to the largest singular value of
  the block itself, such as linalg's max(rows, cols) * 1e-12 * s_max,
  would count a zero-forced block (about 1e-16) as full rank. The largest
  dropped norm or discarded singular value, over scale, is the null
  residual.
- A_j = H_D - U_r (U_r^T H_D), the desired columns with the interference
  projected out, is factored once by solve_exact. Its smallest singular
  value over scale is the receiver's separation; at or below STRUCT_TOL
  the receiver cannot decode and DecodeError names it.

The memo keeps the receiver's projected rows P H, with P = I - U_r U_r^T,
so each call projects y_j as one product (P H) x and solves with the
cached factorization, whose residual check holds every column to
rel_tol. A message x is one array in the scheme's column order
(CodeScheme.columns), and so is its decode. reconstruction_error is the
one reconstruction gate, which verify_decodability and run_simulation
share. Every check is written as ``not value <= tol``, so a NaN fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .channel import ChannelSet
from .linalg import solve_exact
from .schemes import CodeScheme, EffectiveChannel, effective_channel

__all__ = ["DecodeError", "DecodeMetrics", "VerifyResult", "reconstruction_error", "sic_decode", "verify_decodability"]

STRUCT_TOL = 1e-9


class DecodeError(RuntimeError):
    """A receiver cannot separate its variables: its separation (0.0 if rank deficient) and null residual."""

    def __init__(self, message: str, separation: float, null_residual: float):
        super().__init__(message)
        self.separation, self.null_residual = separation, null_residual


@dataclass
class DecodeMetrics:
    max_null_residual: float = 0.0
    min_separation: float = float("inf")


class _Receiver(NamedTuple):
    """What receiver rx's decode needs of one effective channel."""

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
    try:
        solve, sv = solve_exact(projected[:, desired])
        separation = float(sv[-1]) / scale
    except ValueError:  # column-rank deficient: no separation at all
        solve, separation = None, 0.0
    if not separation > STRUCT_TOL:
        raise DecodeError(
            f"rx{rx} cannot separate its {desired.size} desired columns from "
            f"its interference (smallest singular value {separation:.3e} of scale)",
            separation, residual / scale,
        )
    projected.setflags(write=False)
    rec = _Receiver(projected, solve, residual / scale, separation)
    eff.receivers[rx] = rec
    return rec


# Named for the schedule replay it replaced; the benchmark's tracer binds this name.
def sic_decode(eff: EffectiveChannel, x: np.ndarray, rel_tol: float = 1e-6) -> Tuple[np.ndarray, DecodeMetrics]:
    """Decode the noise-free observations y = H_eff x at each receiver.

    x is one message (total_symbols,) or a batch (total_symbols, B) with
    one message per column, laid out as eff.scheme.columns; the decode has
    its shape. Each receiver's projection and factorization are computed
    once per effective channel, whatever the batch. Returns the decode and
    the structural metrics. Raises DecodeError when a receiver cannot
    separate its variables and ValueError when a projected system has a
    residual above rel_tol.
    """
    metrics = DecodeMetrics()
    x_hat = np.empty(np.shape(x))
    for rx in (1, 2):
        desired = eff.scheme.receiver_columns[rx][0]
        if not desired.size:
            continue
        rec = _receiver(eff, rx)
        x_hat[desired] = rec.solve(rec.projected @ x, rel_tol)
        metrics.max_null_residual = max(metrics.max_null_residual, rec.null_residual)
        metrics.min_separation = min(metrics.min_separation, rec.separation)
    return x_hat, metrics


def reconstruction_error(
    scheme: CodeScheme, x_hat: np.ndarray, x: np.ndarray, rel_tol: float
) -> Tuple[float, Optional[str]]:
    """Hold each variable v of each message to rel_tol on its own.

    x and x_hat are laid out as in sic_decode; v's error in one message is
    ||x_hat_v - x_v|| / max(1, ||x_v||). Returns the worst error (NaN if
    any is) and, when an error is above rel_tol or not finite, a message
    naming the first such variable in column order; else None.
    """
    starts = [blk.start for blk in scheme.columns.values()]
    err_sq, x_sq = (np.add.reduceat(a**2, starts) for a in (x_hat - x, x))
    err = np.sqrt(err_sq) / np.maximum(1.0, np.sqrt(x_sq))
    err = err.max(axis=1) if err.ndim > 1 else err  # per variable, over the batch; keeps a NaN
    worst = float(err.max(initial=0.0))
    for v, e in zip(scheme.variables, err):
        if not e <= rel_tol:
            return worst, f"variable {v.name!r} reconstructed with relative error {e:.3e}"
    return worst, None


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

    Each trial draws one fresh standard normal message, decodes it, and holds
    it to rel_tol through reconstruction_error. The messages come from child 1
    of SeedSequence(seed), as in run_simulation, so they are independent of
    sample_channels(dims, seed). The result carries the worst reconstruction
    error and the structural metrics over all trials; when a receiver cannot
    separate its variables, min_separation and max_null_residual count that
    receiver's. Raises ValueError when trials is below 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,))))
    result = VerifyResult(ok=True, achieved_dof=scheme.total_symbols, trials=trials)
    try:
        eff = effective_channel(channels, scheme)
        for _ in range(trials):
            x = rng.standard_normal(scheme.total_symbols)
            x_hat, metrics = sic_decode(eff, x, rel_tol)
            worst, failure = reconstruction_error(scheme, x_hat, x, rel_tol)
            result.max_rel_error = float(np.maximum(result.max_rel_error, worst))  # keeps a NaN
            if failure:
                result.ok, result.error = False, failure
            result.max_null_residual = max(result.max_null_residual, metrics.max_null_residual)
            result.min_separation = min(result.min_separation, metrics.min_separation)
    except DecodeError as exc:
        result.ok, result.error = False, str(exc)
        result.min_separation = min(result.min_separation, exc.separation)
        result.max_null_residual = max(result.max_null_residual, exc.null_residual)
    except ValueError as exc:
        result.ok, result.error = False, str(exc)
    if not result.ok:
        result.achieved_dof = 0
    return result
