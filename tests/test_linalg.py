"""Rank, null spaces, alignment blocks, and the exact solver."""

import numpy as np
import pytest

import burstyx as bx


def test_rank_basic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    assert bx.rank(a) == 3
    v = rng.standard_normal((4, 1))
    assert bx.rank(v @ v.T) == 1
    assert bx.rank(np.zeros((3, 3))) == 0


def test_null_space_of_padded_identity():
    h = np.hstack([np.eye(2), np.zeros((2, 1))])
    phi = bx.null_space_basis(h)
    assert phi.shape == (3, 1)
    assert np.linalg.norm(h @ phi) < 1e-12
    assert abs(abs(phi[2, 0]) - 1.0) < 1e-12


def test_null_space_orthonormal_and_annihilating():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 5))
    phi = bx.null_space_basis(h)
    assert phi.shape == (5, 2)
    assert np.linalg.norm(h @ phi) < 1e-10
    assert np.allclose(phi.T @ phi, np.eye(2), atol=1e-12)


def test_null_space_errors():
    with pytest.raises(ValueError, match="no null space"):
        bx.null_space_basis(np.eye(3))
    with pytest.raises(ValueError, match="no null space"):
        bx.null_space_basis(np.random.default_rng(0).standard_normal((4, 3)))
    bad = np.ones((2, 4))  # repeated row, rank 1
    with pytest.raises(ValueError, match="degenerate channel"):
        bx.null_space_basis(bad)


def test_pseudo_inverse_right_inverse():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((3, 4))
    g = bx.pseudo_inverse(h)
    assert g.shape == (4, 3)
    assert np.allclose(h @ g, np.eye(3), atol=1e-10)
    with pytest.raises(ValueError, match="degenerate channel"):
        bx.pseudo_inverse(np.ones((2, 4)))


def test_projector_identity():
    # pinv(H) H plus the null projector recovers the identity on the input side
    rng = np.random.default_rng(8)
    for rows, cols in [(3, 4), (2, 5), (4, 6)]:
        h = rng.standard_normal((rows, cols))
        g = bx.pseudo_inverse(h)
        phi = bx.null_space_basis(h)
        assert np.linalg.norm(g @ h + phi @ phi.T - np.eye(cols)) < 1e-9


def test_alignment_block_inverts_leading_columns():
    rng = np.random.default_rng(11)
    h = rng.standard_normal((3, 4))
    g = bx.alignment_block(h, 2)
    assert g.shape == (4, 2)
    assert np.allclose(h @ g, np.eye(3)[:, :2], atol=1e-10)


def test_pseudo_inverse_equals_numpy_pinv_bit_for_bit():
    rng = np.random.default_rng(23)
    for rows in range(1, 13):
        for cols in range(rows, 13):
            h = rng.standard_normal((rows, cols))
            expected = np.linalg.pinv(h, rcond=max(h.shape) * 1e-12)
            assert np.array_equal(bx.pseudo_inverse(h), expected), (rows, cols)


def test_alignment_block_is_the_leading_pinv_columns():
    rng = np.random.default_rng(29)
    h = rng.standard_normal((4, 6))
    for k in range(5):
        assert np.array_equal(bx.alignment_block(h, k), bx.pseudo_inverse(h)[:, :k])


def test_paired_alignment_contract():
    rng = np.random.default_rng(13)
    for rows, cols in [(3, 2), (4, 3), (5, 3)]:
        h_a = rng.standard_normal((rows, cols))
        h_b = rng.standard_normal((rows, cols))
        g_a, g_b = bx.paired_alignment(h_a, h_b)
        assert g_a.shape == (cols, 2 * cols - rows)
        assert g_b.shape == g_a.shape
        assert np.linalg.norm(h_a @ g_a - h_b @ g_b) < 1e-10
        # each side keeps full column rank so the images really carry data
        assert bx.rank(g_a) == 2 * cols - rows
        assert bx.rank(g_b) == 2 * cols - rows


def test_solve_exact_recovers():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 4))
    x = rng.standard_normal(4)
    solve, _s = bx.solve_exact(a)
    assert np.linalg.norm(solve(a @ x) - x) < 1e-9


def test_solve_exact_returns_the_singular_values():
    rng = np.random.default_rng(18)
    for shape in [(6, 4), (4, 4), (9, 1)]:
        a = rng.standard_normal(shape)
        _solve, s = bx.solve_exact(a)
        # Equal to rounding: numpy computes them without vectors here.
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-12)


def test_solve_exact_zero_width():
    solve, s = bx.solve_exact(np.zeros((3, 0)))
    assert s.shape == (0,)
    assert solve(np.zeros(3)).shape == (0,)
    assert solve(np.zeros((3, 5))).shape == (0, 5)
    with pytest.raises(ValueError, match="incompatible"):
        solve(np.zeros(2))


def test_solve_exact_underdetermined():
    a = np.zeros((3, 2))
    a[:, 0] = [1.0, 2.0, 3.0]
    a[:, 1] = [2.0, 4.0, 6.0]
    with pytest.raises(ValueError, match="underdetermined"):
        bx.solve_exact(a)


def test_solve_exact_inconsistent():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    y = np.array([1.0, 1.0, 0.5])  # third row cannot be reached
    solve, _s = bx.solve_exact(a)
    with pytest.raises(ValueError, match="inconsistent system"):
        solve(y)
    with pytest.raises(ValueError, match="incompatible"):
        solve(y[:2])


def test_solve_exact_batch_equals_column_solves():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 4))
    y = a @ rng.standard_normal((4, 6))
    solve, _s = bx.solve_exact(a)
    got = solve(y)
    assert got.shape == (4, 6)
    for j in range(6):
        assert np.linalg.norm(got[:, j] - solve(y[:, j])) < 1e-12


def test_solve_exact_batch_with_one_inconsistent_column_raises():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 3))
    y = a @ rng.standard_normal((3, 4))
    y[:, 2] += np.linalg.svd(a)[0][:, -1]  # a direction outside a's range
    solve, _s = bx.solve_exact(a)
    with pytest.raises(ValueError, match="inconsistent system"):
        solve(y)
    solve(np.delete(y, 2, axis=1))


# numpy warns about inf * 0 inside the solve before the check rejects it.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solve_exact_rejects_non_finite_right_hand_side(bad):
    solve, _s = bx.solve_exact(np.eye(2))
    with pytest.raises(ValueError, match="inconsistent system"):
        solve(np.array([bad, 1.0]))
    y = np.ones((2, 3))
    y[0, 1] = bad  # one bad column of a batch
    with pytest.raises(ValueError, match="inconsistent system"):
        solve(y)
    with pytest.raises(ValueError, match="non-finite"):
        bx.solve_exact(np.array([[1.0, bad], [0.0, 1.0]]))


@pytest.mark.parametrize("batch", [(), (3,)])
def test_solve_exact_wide_and_zero_matrices_are_underdetermined(batch):
    """Either is refused when factored, before any right-hand side."""
    rng = np.random.default_rng(7)
    wide = rng.standard_normal((2, 3))
    with pytest.raises(ValueError, match="underdetermined"):
        bx.solve_exact(wide)[0](np.zeros((2,) + batch))
    with pytest.raises(ValueError, match="underdetermined"):
        bx.solve_exact(np.zeros((4, 2)))[0](np.zeros((4,) + batch))


def test_rank_tolerance_scales_with_magnitude():
    h = np.diag([1e8, 1e8, 1e-9])
    assert bx.rank(h) == 2
    assert bx.rank(h, eps=1e-20) == 3
