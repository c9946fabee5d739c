"""Dense linear-algebra kernels at desk dimensions.

Null-space bases, pseudo-inverses, alignment blocks, and
exact linear solves. These are the building blocks every precoder in this
package is assembled from. All routines are SVD based and use tolerances
relative to the largest singular value, so they are scale invariant.

Sizes here are tiny (dimensions well under 100), so the cost is in call
overhead and repeated factorizations, not in flops. Every routine but
alignment_block takes one matrix or a (k, rows, cols) stack of matrices
of one shape, and factors a stack with one stacked SVD, which costs about
what one 2-D call costs at these sizes; each member's result is bit for
bit that of its own 2-D call. A 2-D call raises on a deficient input,
while a stack reports each deficient member (None in its place). Callers
stack what they can: schemes.fill_bases computes all of a draw's missing
bases of one kind in one call and memoizes them, and
decode.factor_receivers factors every receiver system of one shape with
one solve_exact call.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "null_space_basis",
    "pseudo_inverse",
    "alignment_block",
    "paired_alignment",
    "solve_exact",
]

Solver = Callable[..., np.ndarray]

# Default relative rank cutoff factor: singular values below
# max(rows, cols) * eps * s_max count as zero.
DEFAULT_EPS = 1e-12

# The reconstruction gate on a solve's residual and on each decoded
# variable's error (decode.reconstruction_error), relative to max(1, norm).
RECON_TOL = 1e-6


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def _as_stack(h) -> Tuple[np.ndarray, bool]:
    """h as a finite float (k, rows, cols) stack with rows >= 1, and whether h was one 2-d matrix."""
    h = np.asarray(h, dtype=float)
    if h.ndim not in (2, 3):
        raise ValueError("expected a 2-d array or a 3-d stack")
    if not np.isfinite(h).all():
        raise ValueError("matrix contains non-finite entries")
    if h.shape[-2] == 0:
        raise ValueError("expected at least one row")
    return (h[None], True) if h.ndim == 2 else (h, False)


def _full_row_rank(s: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Whether each member of a stack with singular values s (k, rows) has full row rank."""
    return s[:, rows - 1] > max(rows, cols) * DEFAULT_EPS * s[:, 0]


def _members(results: np.ndarray, ok: np.ndarray, single: bool):
    """A 2-d call's one result, raising on deficiency, or a stack's list with None per deficient member."""
    if single:
        if not ok[0]:
            raise ValueError("degenerate channel")
        return results[0]
    return [r if ok_i else None for r, ok_i in zip(results, ok.tolist())]


def null_space_basis(h):
    """Orthonormal basis of the right null space of a wide full-rank matrix.

    For an R x C input with C > R >= 1 and full row rank R, returns a
    C x (C - R) matrix phi with h @ phi = 0 and orthonormal columns (trailing
    right singular vectors, so the choice is deterministic).

    Raises ValueError("no null space") when C <= R, ValueError("degenerate
    channel") when the input is row-rank deficient, and ValueError when it
    has no rows.

    h may also be a (k, R, C) stack, factored by one stacked SVD: then the
    result is a list of k bases, each bit for bit its member's 2-D result,
    with None for a row-rank deficient member.
    """
    stack, single = _as_stack(h)
    _k, rows, cols = stack.shape
    if cols <= rows:
        raise ValueError("no null space")
    _u, s, vt = np.linalg.svd(stack)
    bases = np.ascontiguousarray(vt[:, rows:].swapaxes(1, 2))
    return _members(bases, _full_row_rank(s, rows, cols), single)


def pseudo_inverse(h):
    """Right pseudo-inverse of a wide full-row-rank matrix.

    For an N x M input with M >= N >= 1 and full row rank, returns the M x N
    Moore-Penrose pseudo-inverse, so h @ pseudo_inverse(h) = I_N. One thin
    SVD gives both the rank test and the inverse, written as
    np.linalg.pinv writes it, so the result equals
    np.linalg.pinv(h, rcond=max(h.shape) * 1e-12) bit for bit. Raises
    ValueError("degenerate channel") on row-rank deficiency, and ValueError
    when M < N or the input has no rows.

    h may also be a (k, N, M) stack, factored by one stacked SVD: then the
    result is a list of k pseudo-inverses, each bit for bit its member's
    2-D result, with None for a row-rank deficient member.
    """
    stack, single = _as_stack(h)
    _k, rows, cols = stack.shape
    if cols < rows:
        raise ValueError("pseudo_inverse expects at least as many columns as rows")
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    ok = _full_row_rank(s, rows, cols)
    if not ok.all():  # a deficient member's inverse is never used: divide it by ones
        s = np.where(ok[:, None], s, 1.0)
    return _members(vt.swapaxes(1, 2) @ ((1 / s)[:, :, None] * u.swapaxes(1, 2)), ok, single)


def alignment_block(h, k: int) -> np.ndarray:
    """First k columns of the pseudo-inverse of h.

    For two independently drawn N x M channels h_a, h_b (M >= N) the products
    h_a @ alignment_block(h_a, k) and h_b @ alignment_block(h_b, k) are both
    equal to the first k columns of I_N, which is what makes two interfering
    streams occupy the same k receive dimensions.
    """
    h = _as_matrix(h)
    if not 0 <= k <= h.shape[0]:
        raise ValueError("alignment width k must lie in [0, rows]")
    return pseudo_inverse(h)[:, :k]


def paired_alignment(h_a, h_b):
    """Direction pairs (Ga, Gb) with h_a @ Ga = h_b @ Gb.

    Needed when the channels are tall (M < N), where no right inverse exists:
    the pairs come from the null space of [h_a | -h_b], split into its top
    (h_a side) and bottom (h_b side) halves. For generic full-rank N x M
    inputs with N < 2M this yields 2M - N usable column pairs.

    h_a and h_b may also be (k, N, M) stacks, paired member by member with
    one stacked SVD: then the result is a list of k pairs, with None for a
    member whose [h_a | -h_b] is row-rank deficient.
    """
    if np.shape(h_a) != np.shape(h_b):
        raise ValueError("paired channels must share a shape")
    h_a = np.asarray(h_a, dtype=float)
    bases = null_space_basis(np.concatenate([h_a, -np.asarray(h_b, dtype=float)], axis=-1))
    m = h_a.shape[-1]
    if h_a.ndim == 2:
        return bases[:m], bases[m:]
    return [None if basis is None else (basis[:m], basis[m:]) for basis in bases]


def solve_exact(a) -> Union[Tuple[Solver, np.ndarray], Tuple[List[Optional[Solver]], np.ndarray]]:
    """Factor a full-column-rank a once; return (solve, singular values).

    One thin SVD of a gives the rank test, the singular values returned
    with the solver, and the pseudo-inverse that every later solve reuses.
    Raises ValueError("underdetermined") on column-rank deficiency: a
    smallest singular value at most max(rows, cols) * 1e-12 * s_max, or
    fewer rows than columns (no rows at all, too), which means a broken
    construction.

    a may also be a (k, rows, cols) stack, factored by one stacked SVD:
    then the result is (solves, s), a list of k solvers and the (k,
    min(rows, cols)) singular values, each member's bit for bit those of
    its own 2-D call. Deficiency is reported per member, not raised: a
    deficient member's solver is None, and a member with a non-finite
    entry is deficient, with NaN singular values.

    solve(y) solves a @ x = y for one right-hand side (rows,) or a batch
    (rows, B) at once (any other shape of y raises ValueError("a and y have
    incompatible shapes")), then verifies each column's residual against
    RECON_TOL * ||y_j|| (absolute RECON_TOL when y_j is tiny); a non-finite
    y fails it. It raises ValueError("inconsistent system") when any column
    fails the residual check.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 3:
        return _factor_stack(a)
    solves, s = _factor_stack(_as_matrix(a)[None])
    if solves[0] is None:
        raise ValueError("underdetermined")
    return solves[0], s[0]


def _factor_stack(a: np.ndarray) -> Tuple[List[Optional[Solver]], np.ndarray]:
    """solve_exact of a (k, rows, cols) stack."""
    k, rows, cols = a.shape
    if cols == 0:
        return [_solver(a_i, np.zeros((0, rows))) for a_i in a], np.zeros((k, 0))
    if rows == 0:  # no equation pins down a column
        return [None] * k, np.zeros((k, 0))
    if np.isfinite(a).all():
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    else:  # a non-finite member is factored as a zero matrix and gets NaN singular values
        finite = np.isfinite(a).all(axis=(1, 2))
        u, s, vt = np.linalg.svd(np.where(finite[:, None, None], a, 0.0), full_matrices=False)
        s[~finite] = np.nan
    ok = (rows >= cols) & (s[:, -1] > max(rows, cols) * DEFAULT_EPS * s[:, 0])
    # A deficient member's pseudo-inverse is never used: divide it by ones.
    divisor = s if ok.all() else np.where(ok[:, None], s, 1.0)
    pinv = (vt.swapaxes(1, 2) / divisor[:, None, :]) @ u.swapaxes(1, 2)
    return [_solver(a_i, pinv_i) if ok_i else None for a_i, pinv_i, ok_i in zip(a, pinv, ok.tolist())], s


def _solver(a: np.ndarray, pinv: np.ndarray) -> Solver:
    """The solve of solve_exact for a factored a with pseudo-inverse pinv."""
    rows, cols = a.shape

    def solve(y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[0] != rows:
            raise ValueError("a and y have incompatible shapes")
        if cols == 0:
            return np.zeros((0,) + y.shape[1:], dtype=float)
        x = pinv @ y
        r = a @ x
        r -= y
        residual = np.sqrt(np.add.reduce(np.square(r, out=r), axis=0))
        # A residual at most RECON_TOL passes the gate whatever ||y|| is
        # (RECON_TOL * max(||y||, 1) >= RECON_TOL in floating point too), so
        # ||y|| is only computed when one is above it. Both tests are
        # written so that a NaN residual (a non-finite y) fails.
        if (residual <= RECON_TOL).all():
            return x
        bad = ~(residual <= RECON_TOL * np.maximum(np.sqrt(np.add.reduce(np.square(y), axis=0)), 1.0))
        if bad.any():
            raise ValueError(
                f"inconsistent system: residual {float(np.max(residual[bad])):.3e} "
                f"exceeds {RECON_TOL:.1e} * max(||y||, 1)"
            )
        return x

    return solve
