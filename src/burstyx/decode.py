"""Successive interference cancellation over an effective channel.

The decoder replays a scheme's schedule against a concrete channel draw:
each step restricts to one receiver's rows over some slots, subtracts
already-known contributions, solves the remaining exactly determined
system, and hands the newly known values to later steps.

Three structural quantities are measured while decoding, because a scheme
is only correct if its algebra holds on generic channels:

- null residual: column blocks of variables a step does not account for
  must vanish on that receiver (nulled, aligned away, or link off);
- align mismatch: members of a named group must present identical column
  blocks wherever the group is treated as one unknown;
- group crosscheck: once all members of a solved group are individually
  known, their sum must reproduce the group value.

The first two are matrix-level: they depend only on the effective channel,
sit at machine precision on any full-rank draw, and fail hard above
STRUCT_TOL. The crosscheck compares two independently solved estimates, so
its error scales with the conditioning of both systems; it fails at the
decode tolerance rel_tol instead. A real misconstruction (wrong member
set, wrong sum) shows up as an O(1) gap either way. Every check is written
as ``not value <= tol``, so a NaN fails it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .channel import ChannelSet
from .linalg import solve_exact
from .schemes import CodeScheme, DecodeStep, EffectiveChannel, effective_channel

__all__ = ["DecodeError", "DecodeMetrics", "VerifyResult", "sic_decode", "verify_decodability"]

STRUCT_TOL = 1e-9


class DecodeError(RuntimeError):
    """A schedule step is inconsistent with the effective channel."""


@dataclass
class DecodeMetrics:
    max_null_residual: float = 0.0
    max_align_mismatch: float = 0.0
    max_group_crosscheck: float = 0.0


def sic_decode(
    eff: EffectiveChannel,
    steps: Tuple[DecodeStep, ...],
    x_true: Dict[str, np.ndarray],
    rel_tol: float = 1e-6,
) -> Tuple[Dict[str, np.ndarray], DecodeMetrics]:
    """Run the schedule on noise-free observations y = H_eff x_true.

    Each x_true[name] is one message (length,) or a batch of B messages
    (length, B), one per column; the decoded values have the same shape.
    The structural checks depend only on eff and steps, so a batch is
    checked once, and each step solves all B columns with one
    factorization. The group crosscheck and the solver's residual check
    still hold every column to rel_tol, and the metrics report the worst
    column. Returns the decoded variables and the structural metrics.
    Raises DecodeError on schedule inconsistencies and ValueError when a
    step's system is rank deficient or has a large residual.
    """
    metrics = DecodeMetrics()
    x = eff.concat(x_true)
    y = eff.matrix @ x

    lengths = {name: blk.stop - blk.start for name, blk in eff.col_blocks.items()}
    known: Dict[str, np.ndarray] = {}
    group_values: Dict[Tuple[str, ...], np.ndarray] = {}
    groups_checked = set()

    for step in steps:
        rows = eff.rows_for(step.rx, step.slots)
        y_step = y[rows]
        scale = max(1.0, float(np.linalg.norm(eff.matrix[rows])))

        accounted = set(step.solve) | set(step.cancel)
        for g in step.solve_groups + step.cancel_groups:
            accounted |= set(g)
        for name in eff.var_order:
            if name in accounted:
                continue
            leak = float(np.linalg.norm(eff.columns(rows, name))) / scale
            metrics.max_null_residual = max(metrics.max_null_residual, leak)
            if not leak <= STRUCT_TOL:
                raise DecodeError(
                    f"variable {name!r} leaks into rx{step.rx} slots {step.slots} "
                    f"(relative residual {leak:.3e})"
                )

        for name in step.cancel:
            if name not in known:
                raise DecodeError(f"cancel of {name!r} before it was solved")
            y_step -= eff.columns(rows, name) @ known[name]

        def group_block(g: Tuple[str, ...]) -> np.ndarray:
            base = eff.columns(rows, g[0])
            for member in g[1:]:
                other = eff.columns(rows, member)
                mism = float(np.linalg.norm(other - base)) / scale
                metrics.max_align_mismatch = max(metrics.max_align_mismatch, mism)
                if not mism <= STRUCT_TOL:
                    raise DecodeError(
                        f"group {g} is not aligned at rx{step.rx} "
                        f"(relative mismatch {mism:.3e})"
                    )
            return base

        for g in step.cancel_groups:
            key = tuple(g)
            if key not in group_values:
                raise DecodeError(f"cancel of group {key} before it was solved")
            y_step -= group_block(key) @ group_values[key]

        blocks = []
        widths = []
        for name in step.solve:
            blocks.append(eff.columns(rows, name))
            widths.append(lengths[name])
        for g in step.solve_groups:
            blk = group_block(tuple(g))
            blocks.append(blk)
            widths.append(blk.shape[1])
        if not blocks:
            continue
        sol = solve_exact(np.hstack(blocks), y_step, rel_tol)
        off = 0
        for name, w in zip(step.solve, widths[: len(step.solve)]):
            known[name] = sol[off : off + w]
            off += w
        for g in step.solve_groups:
            w = lengths[g[0]]
            group_values[tuple(g)] = sol[off : off + w]
            off += w

        for key, val in group_values.items():
            if key in groups_checked or any(m not in known for m in key):
                continue
            total = np.zeros_like(val)
            for m in key:
                total = total + known[m]
            diff = float(np.max(
                np.linalg.norm(val - total, axis=0)
                / np.maximum(1.0, np.linalg.norm(val, axis=0))
            ))
            metrics.max_group_crosscheck = max(metrics.max_group_crosscheck, diff)
            groups_checked.add(key)
            if not diff <= rel_tol:
                raise DecodeError(
                    f"group {key} value disagrees with its members "
                    f"(relative gap {diff:.3e})"
                )

    missing = [n for n in eff.var_order if n not in known]
    if missing:
        raise DecodeError(f"schedule never solved {missing}")
    return known, metrics


@dataclass
class VerifyResult:
    ok: bool
    achieved_dof: int
    trials: int
    max_rel_error: float = 0.0
    max_null_residual: float = 0.0
    max_align_mismatch: float = 0.0
    max_group_crosscheck: float = 0.0
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
    run_simulation, so they are independent of sample_channels(dims, seed). The result carries the
    worst reconstruction error and structural metrics over all trials.
    Raises ValueError when trials is below 1.
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
            decoded, metrics = sic_decode(eff, scheme.steps, x_true, rel_tol)
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
            result.max_align_mismatch = max(
                result.max_align_mismatch, metrics.max_align_mismatch
            )
            result.max_group_crosscheck = max(
                result.max_group_crosscheck, metrics.max_group_crosscheck
            )
    except (DecodeError, ValueError) as exc:
        result.ok = False
        result.error = str(exc)
    if not result.ok:
        result.achieved_dof = 0
    return result
