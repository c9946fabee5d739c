"""Dense linear-algebra kernels at desk dimensions.

Numerical rank, null-space bases, pseudo-inverses, alignment blocks, and
exact linear solves. These are the building blocks every precoder in this
package is assembled from. All routines are SVD based and use tolerances
relative to the largest singular value, so they are scale invariant.

Sizes here are tiny (dimensions well under 100), so the cost is in call
overhead and repeated factorizations, not in flops: each routine runs one
SVD, and callers memoize what depends only on a channel draw (see
schemes.Carrier.materialize).
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = [
    "rank",
    "null_space_basis",
    "pseudo_inverse",
    "alignment_block",
    "paired_alignment",
    "solve_exact",
]

# Default relative rank cutoff factor: singular values below
# max(rows, cols) * eps * s_max count as zero.
DEFAULT_EPS = 1e-12


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def rank(a, eps: float = DEFAULT_EPS) -> int:
    """Numerical rank: singular values above max(shape) * eps * s_max."""
    a = _as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > max(a.shape) * eps * s[0]))


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


def solve_exact(a) -> Tuple[Callable[..., np.ndarray], np.ndarray]:
    """Factor a full-column-rank a once; return (solve, singular values).

    One thin SVD of a gives the rank test (the cutoff of ``rank``), the
    singular values returned with the solver, and the pseudo-inverse that
    every later solve reuses. Raises ValueError("underdetermined") on
    column-rank deficiency, which means a broken construction.

    solve(y, rel_tol=1e-6) solves a @ x = y for one right-hand side
    (rows,) or a batch (rows, B) at once, then verifies each column's
    residual against rel_tol * ||y_j|| (absolute rel_tol when y_j is tiny);
    a non-finite y fails it. It raises ValueError("inconsistent system")
    when any column fails the residual check.
    """
    a = _as_matrix(a)
    if a.shape[1] == 0:
        s = np.zeros(0)
        pinv = np.zeros((0, a.shape[0]))
    else:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        if s.size < a.shape[1] or s[-1] <= max(a.shape) * DEFAULT_EPS * s[0]:
            raise ValueError("underdetermined")
        pinv = (vt.T / s) @ u.T

    def solve(y, rel_tol: float = 1e-6) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if a.shape[0] != y.shape[0]:
            raise ValueError("a and y have incompatible shapes")
        if a.shape[1] == 0:
            return np.zeros((0,) + y.shape[1:], dtype=float)
        x = pinv @ y
        residual = np.sqrt(np.square(a @ x - y).sum(axis=0))
        # Written so that a NaN residual (a non-finite y) fails too.
        bad = ~(residual <= rel_tol * np.maximum(np.sqrt(np.square(y).sum(axis=0)), 1.0))
        if np.any(bad):
            raise ValueError(
                f"inconsistent system: residual {float(np.max(residual[bad])):.3e} "
                f"exceeds {rel_tol:.1e} * max(||y||, 1)"
            )
        return x

    return solve, s
