"""Dense linear-algebra kernels at desk dimensions.

Null-space bases, pseudo-inverses, alignment blocks, and
exact linear solves. These are the building blocks every precoder in this
package is assembled from. All routines are SVD based and use tolerances
relative to the largest singular value, so they are scale invariant.

Sizes here are tiny (dimensions well under 100), so the cost is in call
overhead and repeated factorizations, not in flops: each routine runs one
SVD, and callers memoize what depends only on a channel draw (see
schemes.Carrier.materialize). solve_exact also takes a stack of matrices
of one shape and factors them with one stacked SVD, which costs about what
one call costs at these sizes (see decode.factor_receivers).
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


def null_space_basis(h) -> np.ndarray:
    """Orthonormal basis of the right null space of a wide full-rank matrix.

    For an R x C input with C > R and full row rank R, returns a C x (C - R)
    matrix phi with h @ phi = 0 and orthonormal columns (trailing right
    singular vectors, so the choice is deterministic).

    Raises ValueError("no null space") when C <= R and
    ValueError("degenerate channel") when the input is row-rank deficient.
    """
    h = _as_matrix(h)
    rows, cols = h.shape
    if cols <= rows:
        raise ValueError("no null space")
    _u, s, vt = np.linalg.svd(h)
    if s.size < rows or s[rows - 1] <= max(h.shape) * DEFAULT_EPS * s[0]:
        raise ValueError("degenerate channel")
    return vt[rows:].T.copy()


def pseudo_inverse(h) -> np.ndarray:
    """Right pseudo-inverse of a wide full-row-rank matrix.

    For an N x M input with M >= N and full row rank, returns the M x N
    Moore-Penrose pseudo-inverse, so h @ pseudo_inverse(h) = I_N. One thin
    SVD gives both the rank test and the inverse, written as
    np.linalg.pinv writes it, so the result equals
    np.linalg.pinv(h, rcond=max(h.shape) * 1e-12) bit for bit.
    """
    h = _as_matrix(h)
    rows, cols = h.shape
    if cols < rows:
        raise ValueError("pseudo_inverse expects at least as many columns as rows")
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    if s.size < rows or s[rows - 1] <= max(h.shape) * DEFAULT_EPS * s[0]:
        raise ValueError("degenerate channel")
    return vt.T @ ((1 / s)[:, None] * u.T)


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


def paired_alignment(h_a, h_b) -> Tuple[np.ndarray, np.ndarray]:
    """Direction pairs (Ga, Gb) with h_a @ Ga = h_b @ Gb.

    Needed when the channels are tall (M < N), where no right inverse exists:
    the pairs come from the null space of [h_a | -h_b], split into its top
    (h_a side) and bottom (h_b side) halves. For generic full-rank N x M
    inputs with N < 2M this yields 2M - N usable column pairs.
    """
    h_a = _as_matrix(h_a)
    h_b = _as_matrix(h_b)
    if h_a.shape != h_b.shape:
        raise ValueError("paired channels must share a shape")
    basis = null_space_basis(np.hstack([h_a, -h_b]))
    m = h_a.shape[1]
    return basis[:m].copy(), basis[m:].copy()


def solve_exact(a) -> Union[Tuple[Solver, np.ndarray], Tuple[List[Optional[Solver]], np.ndarray]]:
    """Factor a full-column-rank a once; return (solve, singular values).

    One thin SVD of a gives the rank test, the singular values returned
    with the solver, and the pseudo-inverse that every later solve reuses.
    Raises ValueError("underdetermined") on column-rank deficiency: a
    smallest singular value at most max(rows, cols) * 1e-12 * s_max, which
    means a broken construction.

    a may also be a (k, rows, cols) stack, factored by one stacked SVD:
    then the result is (solves, s), a list of k solvers and the (k,
    min(rows, cols)) singular values, each member's bit for bit those of
    its own 2-D call. Deficiency is reported per member, not raised: a
    deficient member's solver is None, and a member with a non-finite
    entry is deficient, with NaN singular values.

    solve(y) solves a @ x = y for one right-hand side (rows,) or a batch
    (rows, B) at once, then verifies each column's residual against
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
    finite = np.isfinite(a).all(axis=(1, 2))
    if finite.all():
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    else:  # a non-finite member is factored as a zero matrix and gets NaN singular values
        u, s, vt = np.linalg.svd(np.where(finite[:, None, None], a, 0.0), full_matrices=False)
        s[~finite] = np.nan
    ok = (rows >= cols) & (s[:, -1] > max(rows, cols) * DEFAULT_EPS * s[:, 0])
    # A deficient member's pseudo-inverse is never used: divide it by ones.
    pinv = (vt.swapaxes(1, 2) / np.where(ok[:, None], s, 1.0)[:, None, :]) @ u.swapaxes(1, 2)
    return [_solver(a_i, pinv_i) if ok_i else None for a_i, pinv_i, ok_i in zip(a, pinv, ok.tolist())], s


def _solver(a: np.ndarray, pinv: np.ndarray) -> Solver:
    """The solve of solve_exact for a factored a with pseudo-inverse pinv."""
    rows, cols = a.shape

    def solve(y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if rows != y.shape[0]:
            raise ValueError("a and y have incompatible shapes")
        if cols == 0:
            return np.zeros((0,) + y.shape[1:], dtype=float)
        x = pinv @ y
        residual = np.sqrt(np.square(a @ x - y).sum(axis=0))
        # Written so that a NaN residual (a non-finite y) fails too.
        bad = ~(residual <= RECON_TOL * np.maximum(np.sqrt(np.square(y).sum(axis=0)), 1.0))
        if bad.any():
            raise ValueError(
                f"inconsistent system: residual {float(np.max(residual[bad])):.3e} "
                f"exceeds {RECON_TOL:.1e} * max(||y||, 1)"
            )
        return x

    return solve
