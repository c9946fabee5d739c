"""Null spaces, pseudo-inverses, alignment blocks, and the exact solver."""

import numpy as np
import pytest

import burstyx as bx


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
        assert np.linalg.matrix_rank(g_a) == 2 * cols - rows
        assert np.linalg.matrix_rank(g_b) == 2 * cols - rows


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


@pytest.mark.parametrize("shape", [(3, 1), (4, 4), (9, 5), (26, 15), (2, 0)])
def test_solve_exact_on_a_stack_equals_each_2d_call_bit_for_bit(shape):
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((4,) + shape) * np.array([1e-6, 1.0, 1e3, 3.0])[:, None, None]
    y = stack @ rng.standard_normal((4, shape[1], 5))
    solves, s = bx.solve_exact(stack)
    assert len(solves) == 4 and s.shape == (4, min(shape))
    for a, solve, s_i, y_i in zip(stack, solves, s, y):
        solve_2d, s_2d = bx.solve_exact(a)
        assert np.array_equal(s_i, s_2d)
        assert np.array_equal(solve(y_i), solve_2d(y_i))
        assert np.array_equal(solve(y_i[:, 0]), solve_2d(y_i[:, 0]))


def test_solve_exact_reports_each_deficient_member_of_a_stack():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((4, 5, 3))
    stack[1, :, 2] = 2.0 * stack[1, :, 0]  # column-rank deficient
    stack[3, 0, 0] = np.nan  # non-finite
    solves, s = bx.solve_exact(stack)
    assert solves[1] is None and solves[3] is None
    assert np.isnan(s[3]).all() and s[1, -1] <= 5 * 1e-12 * s[1, 0]
    for i in (0, 2):
        solve_2d, s_2d = bx.solve_exact(stack[i])
        assert np.array_equal(s[i], s_2d)
        y = stack[i] @ rng.standard_normal(3)
        assert np.array_equal(solves[i](y), solve_2d(y))
    wide_solves, _s = bx.solve_exact(rng.standard_normal((2, 2, 3)))
    assert wide_solves == [None, None]


@pytest.mark.parametrize("k", [1, 2, 4])
def test_stacked_bases_equal_each_2d_call_bit_for_bit(k):
    """pseudo_inverse, null_space_basis and paired_alignment on a (k, m, n) stack, m, n in 1..12."""
    rng = np.random.default_rng(31 + k)
    checked = 0
    for rows in range(1, 13):
        for cols in range(1, 13):
            stack = rng.standard_normal((k, rows, cols))
            other = rng.standard_normal((k, rows, cols))
            if cols >= rows:
                for member, g in zip(stack, bx.pseudo_inverse(stack)):
                    assert np.array_equal(g, bx.pseudo_inverse(member)), (rows, cols)
                    checked += 1
            if cols > rows:
                for member, phi in zip(stack, bx.null_space_basis(stack)):
                    assert np.array_equal(phi, bx.null_space_basis(member)), (rows, cols)
                    checked += 1
            if 2 * cols > rows:
                for h_a, h_b, sides in zip(stack, other, bx.paired_alignment(stack, other)):
                    for got, want in zip(sides, bx.paired_alignment(h_a, h_b)):
                        assert np.array_equal(got, want), (rows, cols)
                    checked += 1
    assert checked == k * (78 + 66 + 108)


def test_stacked_bases_report_each_deficient_member():
    rng = np.random.default_rng(37)
    stack = rng.standard_normal((3, 3, 5))
    stack[1, 2] = stack[1, 0] - stack[1, 1]  # row-rank deficient
    for fn in (bx.pseudo_inverse, bx.null_space_basis):
        got = fn(stack)
        assert got[1] is None
        with pytest.raises(ValueError, match="degenerate channel"):
            fn(stack[1])
        for i in (0, 2):
            assert np.array_equal(got[i], fn(stack[i]))
    tall = rng.standard_normal((2, 5, 3))
    pairs = bx.paired_alignment(tall, np.stack([tall[0], rng.standard_normal((5, 3))]))
    assert pairs[0] is None and pairs[1] is not None
    with pytest.raises(ValueError, match="paired channels must share a shape"):
        bx.paired_alignment(tall, tall[0])


@pytest.mark.parametrize("shape", [(0, 1), (0, 2), (1, 0, 2), (3, 0, 2)])
def test_inputs_without_rows(shape):
    """No rows: the basis functions raise, and solve_exact finds the columns underdetermined."""
    a = np.zeros(shape)
    for fn in (bx.pseudo_inverse, bx.null_space_basis):
        with pytest.raises(ValueError, match="at least one row"):
            fn(a)
    if a.ndim == 2:
        with pytest.raises(ValueError, match="underdetermined"):
            bx.solve_exact(a)
    else:
        solves, s = bx.solve_exact(a)
        assert solves == [None] * shape[0] and s.shape == (shape[0], 0)


@pytest.mark.parametrize("cols", [2, 0])
def test_solve_refuses_a_right_hand_side_of_another_rank(cols):
    solve, _s = bx.solve_exact(np.eye(2)[:, :cols])
    for y in (np.float64(1.0), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="a and y have incompatible shapes"):
            solve(y)
