"""Per-receiver zero-forcing decode over an effective channel.

Receiver j decodes from its own rows alone, over all slots of a scheme at
once: the variables with rx == j are its desired columns H_D, and every
other variable that a link into j carries in one of its slots is
interference H_I (CodeScheme.receiver_columns; the other variables'
columns are exact zeros in j's rows, so they are left out). It decodes
exactly when rank([H_D H_I]) - rank(H_I) = |D_j|, the linear
decodability condition of Cadambe & Jafar (IEEE T-IT 2008). No receiver
uses anything the other one solved.

The work that depends only on the effective channel is done once per
receiver and memoized in eff.receivers, read-only, by factor_receivers:

- scale = max(1, ||rows||_F). Interference columns of norm at most
  STRUCT_TOL * scale (zero-forced ones) are dropped;
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

factor_receivers does this for every receiver of several effective
channels at once: run_simulation passes it every scheduled kind of a run,
so each receiver is factored once per run. At these sizes a LAPACK call
costs mostly its call overhead, so the SVDs are stacked, one per distinct
shape, and the per-column cutoff tests run on Python floats; each
receiver's results are bit for bit those of factoring it alone.
sic_decode factors a channel it finds unfactored the same way, and raises
a receiver's DecodeError when it reaches that receiver.

The memo keeps the receiver's projected rows P H, with P = I - U_r U_r^T,
so each call projects y_j as one product (P H) x and solves with the
cached factorization, whose residual check holds every column to
linalg.RECON_TOL. A message x is one array in the scheme's column order
(CodeScheme.columns), and so is its decode. reconstruction_error is the
one reconstruction gate, at RECON_TOL, which verify_decodability and
run_simulation share. Every check is written as ``not value <= tol``, so
a NaN fails it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelSet
from .linalg import RECON_TOL, solve_exact
from .schemes import CodeScheme, EffectiveChannel, effective_channel

__all__ = [
    "DecodeError",
    "VerifyResult",
    "factor_receivers",
    "reconstruction_error",
    "sic_decode",
    "verify_decodability",
]

STRUCT_TOL = 1e-9


class DecodeError(RuntimeError):
    """A receiver cannot separate its variables: its separation (0.0 if rank deficient) and null residual."""

    def __init__(self, message: str, separation: float, null_residual: float):
        super().__init__(message)
        self.separation, self.null_residual = separation, null_residual


class _Receiver(NamedTuple):
    """What receiver rx's decode needs of one effective channel."""

    projected: np.ndarray  # its rows with the interference span projected out
    solve: Callable[..., np.ndarray]  # factored A_j
    null_residual: float
    separation: float


def factor_receivers(effs: Sequence[EffectiveChannel]) -> Dict[Tuple[int, int], DecodeError]:
    """Factor every receiver of the effective channels that is not memoized yet.

    A receiver with no desired column is skipped, as sic_decode skips it.
    The work is stacked by shape: one np.linalg.svd per distinct shape of
    live interference, and one solve_exact per distinct shape of projected
    desired columns, so each receiver's results are bit for bit those of
    factoring it alone. Each receiver that separates its variables is
    memoized in its eff.receivers, with read-only arrays; eff.matrix is
    read-only, so an entry cannot go stale. Raises nothing: a receiver that
    cannot separate its variables is left out of the memo, and its
    DecodeError is returned under (index of its channel in effs, rx).
    """
    # One job per receiver: index (of its channel in effs), rx, rows (its
    # rows; once the interference is projected out, P H), desired, scale,
    # residual (so far) and live (the interference columns above the cutoff).
    # The per-column and per-singular-value tests run on Python floats: a
    # receiver has a few dozen columns, so one tolist() costs less than the
    # numpy calls that would mask them.
    jobs = []
    for index, eff in enumerate(effs):
        todo = [rx for rx in (1, 2) if rx not in eff.receivers and eff.scheme.receiver_columns[rx][0].size]
        if not todo:
            continue
        height, width = eff.matrix.shape[0] // 2, eff.matrix.shape[1]
        # Both receivers' squared column norms in one reduction, bit for bit
        # the sums over each receiver's rows alone.
        col_sqs = np.square(eff.matrix).reshape(2, height, width).sum(axis=1)
        scales = np.sqrt(col_sqs.sum(axis=1)).tolist()
        norms = np.sqrt(col_sqs).tolist()
        for rx in todo:
            desired, interference = eff.scheme.receiver_columns[rx]
            scale, rx_norms = max(1.0, scales[rx - 1]), norms[rx - 1]
            cutoff = STRUCT_TOL * scale
            interfering = interference.tolist()
            live = [c for c in interfering if rx_norms[c] > cutoff]
            residual = max((rx_norms[c] for c in interfering if not rx_norms[c] > cutoff), default=0.0)
            jobs.append(SimpleNamespace(
                index=index, rx=rx, rows=eff.matrix[(rx - 1) * height : rx * height],
                desired=desired, scale=scale, residual=residual, live=live,
            ))

    for group in _by_shape((job for job in jobs if job.live), lambda job: len(job.live)):
        u, s, _vt = np.linalg.svd(_stack([job.rows[:, job.live] for job in group]), full_matrices=False)
        # Each member's left singular vectors as rows: its leading vectors,
        # transposed, are then a Fortran-ordered view, the layout numpy
        # gives a masked column copy u_j[:, s_j > cutoff]. BLAS can round
        # differently by operand layout; this keeps the products bit for
        # bit those of that copy.
        u_rows = np.ascontiguousarray(u.swapaxes(1, 2))
        for job, u_j, s_j in zip(group, u_rows, s.tolist()):
            # s_j is in descending order: the first rank values pass the cutoff.
            cutoff = STRUCT_TOL * job.scale
            rank = sum(v > cutoff for v in s_j)
            job.residual = max([job.residual, *s_j[rank:]])
            if rank:
                basis = u_j[:rank].T
                job.rows = job.rows - basis @ (basis.T @ job.rows)

    failures = {}
    for group in _by_shape(jobs, lambda job: job.desired.size):
        solves, sv = solve_exact(_stack([job.rows[:, job.desired] for job in group]))
        for job, solve, sv_min in zip(group, solves, sv[:, -1].tolist()):
            separation = 0.0 if solve is None else sv_min / job.scale  # None: column-rank deficient
            if not separation > STRUCT_TOL:
                failures[job.index, job.rx] = DecodeError(
                    f"rx{job.rx} cannot separate its {job.desired.size} desired columns from "
                    f"its interference (smallest singular value {separation:.3e} of scale)",
                    separation, job.residual / job.scale,
                )
                continue
            job.rows.setflags(write=False)
            rec = _Receiver(job.rows, solve, job.residual / job.scale, separation)
            effs[job.index].receivers[job.rx] = rec
    return failures


def _by_shape(jobs: Iterable[SimpleNamespace], width: Callable[[SimpleNamespace], int]) -> Iterable[list]:
    """The jobs grouped by (rows, width), in order of first appearance."""
    groups = defaultdict(list)
    for job in jobs:
        groups[job.rows.shape[0], width(job)].append(job)
    return groups.values()


def _stack(blocks: list) -> np.ndarray:
    """np.stack, without its copy of a lone block."""
    return blocks[0][None] if len(blocks) == 1 else np.stack(blocks)


def _receiver(eff: EffectiveChannel, rx: int) -> _Receiver:
    """Receiver rx's projection and factorization, once per effective channel.

    factor_receivers on eff alone, on a miss; raises the receiver's
    DecodeError when it cannot separate its variables (errors are not
    memoized).
    """
    rec = eff.receivers.get(rx)
    if rec is None:
        failure = factor_receivers([eff]).get((0, rx))
        if failure is not None:
            raise failure
        rec = eff.receivers[rx]
    return rec


# Named for the schedule replay it replaced; the benchmark's tracer binds this name.
def sic_decode(eff: EffectiveChannel, x: np.ndarray) -> np.ndarray:
    """Decode the noise-free observations y = H_eff x at each receiver.

    x is one message (total_symbols,) or a batch (total_symbols, B) with
    one message per column, laid out as eff.scheme.columns; the decode has
    its shape. Each receiver's projection and factorization are computed
    once per effective channel, whatever the batch. Raises DecodeError when
    a receiver cannot separate its variables and ValueError when a
    projected system has a residual above RECON_TOL.
    """
    x_hat = np.empty(np.shape(x))
    for rx in (1, 2):
        desired = eff.scheme.receiver_columns[rx][0]
        if desired.size:
            rec = _receiver(eff, rx)
            x_hat[desired] = rec.solve(rec.projected @ x)
    return x_hat


def reconstruction_error(scheme: CodeScheme, x_hat: np.ndarray, x: np.ndarray) -> Tuple[float, Optional[str]]:
    """Hold each variable v of each message to RECON_TOL on its own.

    x and x_hat are laid out as in sic_decode; v's error in one message is
    ||x_hat_v - x_v|| / max(1, ||x_v||). Returns the worst error (NaN if
    any is) and, when an error is above RECON_TOL or not finite, a message
    naming the first such variable in column order; else None.
    """
    # x_hat - x and x, squared in one buffer, so that one reduction gives
    # both norms of each variable.
    sq = np.empty((2,) + np.shape(x))
    np.subtract(x_hat, x, out=sq[0])
    sq[1] = x
    err, x_norm = np.sqrt(np.add.reduceat(np.square(sq, out=sq), scheme.column_starts, axis=1))
    err /= np.maximum(x_norm, 1.0, out=x_norm)
    worst = float(np.maximum.reduce(err, axis=None, initial=0.0))  # keeps a NaN
    if worst <= RECON_TOL:
        return worst, None
    err = err.max(axis=1) if err.ndim > 1 else err  # per variable, over the batch; keeps a NaN
    for v, e in zip(scheme.variables, err):
        if not e <= RECON_TOL:
            return worst, f"variable {v.name!r} reconstructed with relative error {e:.3e}"
    return worst, None


@dataclass
class VerifyResult:
    ok: bool
    achieved_dof: int
    max_rel_error: float = 0.0
    max_null_residual: float = 0.0
    min_separation: float = float("inf")
    error: Optional[str] = None


def verify_decodability(
    channels: ChannelSet,
    scheme: CodeScheme,
    trials: int = 3,
    seed: int = 0,
) -> VerifyResult:
    """Decode random messages through the scheme on the given channels.

    Each trial draws one fresh standard normal message, decodes it, and holds
    it to RECON_TOL through reconstruction_error. The messages come from
    child 1 of SeedSequence(seed), as in run_simulation, so they are
    independent of sample_channels(dims, seed). The result carries the worst
    reconstruction error over all trials and the structural metrics of the
    receivers, read once from the memo in eff.receivers after the trials.
    When a receiver cannot separate its variables, min_separation and
    max_null_residual are that receiver's; a ValueError (a degenerate
    carrier, or a residual above RECON_TOL) leaves them at inf and 0.0.
    Raises ValueError when trials is below 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,))))
    result = VerifyResult(ok=True, achieved_dof=scheme.total_symbols)
    try:
        eff = effective_channel(channels, scheme)
        for _ in range(trials):
            x = rng.standard_normal(scheme.total_symbols)
            worst, failure = reconstruction_error(scheme, sic_decode(eff, x), x)
            result.max_rel_error = float(np.maximum(result.max_rel_error, worst))  # keeps a NaN
            if failure:
                result.ok, result.error = False, failure
        receivers = eff.receivers.values()
        result.max_null_residual = max((rec.null_residual for rec in receivers), default=0.0)
        result.min_separation = min((rec.separation for rec in receivers), default=float("inf"))
    except DecodeError as exc:
        result.ok, result.error = False, str(exc)
        result.min_separation = min(result.min_separation, exc.separation)
        result.max_null_residual = max(result.max_null_residual, exc.null_residual)
    except ValueError as exc:
        result.ok, result.error = False, str(exc)
    if not result.ok:
        result.achieved_dof = 0
    return result
