"""Wedderburn deflation: pivots, residuals, plans, and derivatives."""

import numpy as np
import pytest

from rcassoc.rank import (
    DeflationPlan,
    PivotError,
    apply_plan,
    deflate,
    pivot_select,
    rank_residual,
    rank_residual_jacobian,
)


def _low_rank(rng, shape, k, scale=1.0):
    m = np.zeros(shape)
    for _ in range(k):
        a = rng.standard_normal(shape[0])
        b = rng.standard_normal(shape[1])
        m += scale * np.outer(a, b)
    return m


def test_deflate_rank_one_vanishes():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = _low_rank(rng, (3, 4), 1)
        piv = pivot_select(m)
        out = deflate(m, piv)
        assert out.shape == (2, 3)
        assert np.abs(out).max() <= 1e-12 * np.abs(m).max()


def test_deflate_identity_by_hand():
    out = deflate(np.eye(3), (0, 0))
    np.testing.assert_array_equal(out, np.eye(2))


def test_deflate_drops_one_singular_value():
    rng = np.random.default_rng(42)
    m = _low_rank(rng, (4, 4), 2)
    out = deflate(m, pivot_select(m))
    sv = np.linalg.svd(out, compute_uv=False)
    assert np.sum(sv > 1e-8) == 1


def test_deflate_zero_pivot_rejected():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PivotError):
        deflate(m, (0, 0))


def test_pivot_select():
    assert pivot_select(np.array([[0.0, 2.0], [1.0, 0.0]])) == (0, 1)
    assert pivot_select(np.array([[3.0, 3.0], [3.0, 3.0]])) == (0, 0)
    assert pivot_select(np.array([[1.0, -5.0], [2.0, 4.0]])) == (0, 1)
    with pytest.raises(PivotError):
        pivot_select(np.zeros((3, 3)))


def test_rank_residual_shapes_and_plan():
    rng = np.random.default_rng(43)
    m = _low_rank(rng, (5, 5), 3)
    res, plan = rank_residual(m, 1)
    assert isinstance(plan, DeflationPlan)
    assert plan.rank == 1
    assert plan.shape == (5, 5)
    assert res.shape == (16,)
    np.testing.assert_array_equal(apply_plan(m, plan), res)


def test_rank_residual_k0_is_vec():
    rng = np.random.default_rng(44)
    m = rng.standard_normal((3, 4))
    res, plan = rank_residual(m, 0)
    np.testing.assert_array_equal(res, m.ravel())
    assert plan.pivots == ()


def test_rank_residual_vanishes_at_rank():
    rng = np.random.default_rng(45)
    shapes = [(4, 4), (5, 4), (4, 6), (5, 5)]
    for trial in range(200):
        k = 1 + trial % 2
        m = _low_rank(rng, shapes[trial % 4], k)
        res, _ = rank_residual(m, k)
        assert np.abs(res).max() <= 1e-9 * np.abs(m).max()


def test_rank_residual_detects_excess_rank():
    rng = np.random.default_rng(46)
    for trial in range(100):
        k = 1 + trial % 2
        m = _low_rank(rng, (5, 5), k)
        m = m + _low_rank(rng, (5, 5), 1, scale=0.1)
        res, _ = rank_residual(m, k)
        assert np.abs(res).max() > 1e-7 * np.abs(m).max()


def test_residual_zero_set_is_pivot_independent():
    # different valid pivot sequences give different residual values but the
    # same verdict on whether the matrix has the claimed rank
    rng = np.random.default_rng(47)
    for _ in range(30):
        low = _low_rank(rng, (4, 4), 1)
        high = low + _low_rank(rng, (4, 4), 1, scale=0.2)
        for m, expect_zero in [(low, True), (high, False)]:
            nz = np.argwhere(np.abs(m) > 0.1 * np.abs(m).max())
            first = tuple(nz[0])
            last = tuple(nz[-1])
            for piv in {first, last}:
                res = deflate(m, piv).ravel()
                if expect_zero:
                    assert np.abs(res).max() <= 1e-9 * np.abs(m).max()
                else:
                    assert np.abs(res).max() > 1e-7 * np.abs(m).max()


def test_jacobian_identity_at_k0():
    rng = np.random.default_rng(48)
    m = rng.standard_normal((3, 3))
    _, plan = rank_residual(m, 0)
    np.testing.assert_array_equal(rank_residual_jacobian(m, plan), np.eye(9))


def test_jacobian_finite_difference():
    rng = np.random.default_rng(49)
    eps = 1e-6
    for _ in range(20):
        m = _low_rank(rng, (3, 3), 2) + 0.01 * rng.standard_normal((3, 3))
        res, plan = rank_residual(m, 1)
        jac = rank_residual_jacobian(m, plan)
        assert jac.shape == (res.size, m.size)
        fd = np.empty_like(jac)
        for c in range(m.size):
            d = np.zeros(m.size)
            d[c] = eps
            hi = apply_plan((m.ravel() + d).reshape(3, 3), plan)
            lo = apply_plan((m.ravel() - d).reshape(3, 3), plan)
            fd[:, c] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(jac, fd, atol=1e-5 * max(1.0, np.abs(fd).max()))


def test_jacobian_annihilates_rank_one_tangents():
    rng = np.random.default_rng(50)
    for _ in range(40):
        a = rng.standard_normal(4)
        b = rng.standard_normal(5)
        m = np.outer(a, b)
        _, plan = rank_residual(m, 1)
        jac = rank_residual_jacobian(m, plan)
        da = rng.standard_normal(4)
        db = rng.standard_normal(5)
        tangent = np.outer(a, db) + np.outer(da, b)
        moved = jac @ tangent.ravel()
        assert np.abs(moved).max() <= 1e-8 * max(1.0, np.abs(m).max())


def test_plan_shape_mismatch():
    rng = np.random.default_rng(51)
    m = _low_rank(rng, (4, 4), 2)
    _, plan = rank_residual(m, 1)
    with pytest.raises(ValueError):
        apply_plan(np.eye(3), plan)
    with pytest.raises(ValueError):
        rank_residual_jacobian(np.eye(3), plan)
    with pytest.raises(ValueError):
        rank_residual(m, 5)


def _deflate_ref(m, pivot):
    i, j = pivot
    u = m - np.outer(m[:, j], m[i, :]) / m[i, j]
    return np.delete(np.delete(u, i, axis=0), j, axis=1)


def test_deflation_matches_delete_reference():
    # dropping the pivot row and column by slicing is bit-identical to np.delete
    rng = np.random.default_rng(61)
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(2, 10, size=2))
        m = rng.standard_normal((rows, cols))
        pivot = (int(rng.integers(-rows, rows)), int(rng.integers(-cols, cols)))
        assert np.array_equal(deflate(m, pivot), _deflate_ref(m, pivot))
        resid, plan = rank_residual(m, int(rng.integers(0, min(rows, cols) + 1)))
        cur = m
        for piv in plan.pivots:
            flat = int(np.argmax(np.abs(cur)))
            assert piv == divmod(flat, cur.shape[1])
            cur = _deflate_ref(cur, piv)
        assert np.array_equal(resid, cur.ravel())
        assert np.array_equal(apply_plan(m, plan), cur.ravel())
