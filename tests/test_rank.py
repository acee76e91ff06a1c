"""Rank residuals as Schur complements: pivots, residuals, plans, and derivatives."""

import numpy as np
import pytest

import rcassoc.rank
from rcassoc.rank import (
    DeflationPlan,
    PivotError,
    apply_plan,
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
        out, _ = rank_residual(m, 1)
        assert out.shape == (6,)
        assert np.abs(out).max() <= 1e-12 * np.abs(m).max()


def test_deflate_identity_by_hand():
    out = apply_plan(np.eye(3), DeflationPlan((3, 3), ((0, 0),)))
    np.testing.assert_array_equal(out, np.eye(2).ravel())


def test_deflate_drops_one_singular_value():
    rng = np.random.default_rng(42)
    m = _low_rank(rng, (4, 4), 2)
    out, _ = rank_residual(m, 1)
    sv = np.linalg.svd(out.reshape(3, 3), compute_uv=False)
    assert np.sum(sv > 1e-8) == 1


def test_deflate_zero_pivot_rejected():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PivotError, match="zero pivot at"):
        apply_plan(m, DeflationPlan((2, 2), ((0, 0),)))


def test_pivot_select():
    # the largest magnitude, first in row-major order on ties
    assert rank_residual(np.array([[0.0, 2.0], [1.0, 0.0]]), 1)[1].pivots == ((0, 1),)
    assert rank_residual(np.array([[3.0, 3.0], [3.0, 3.0]]), 1)[1].pivots == ((0, 0),)
    assert rank_residual(np.array([[1.0, -5.0], [2.0, 4.0]]), 1)[1].pivots == ((0, 1),)
    with pytest.raises(PivotError, match="no pivot above"):
        rank_residual(np.zeros((3, 3)), 1)


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
            first = tuple(int(v) for v in nz[0])
            last = tuple(int(v) for v in nz[-1])
            for piv in {first, last}:
                res = apply_plan(m, DeflationPlan(m.shape, (piv,)))
                if expect_zero:
                    assert np.abs(res).max() <= 1e-9 * np.abs(m).max()
                else:
                    assert np.abs(res).max() > 1e-7 * np.abs(m).max()


def test_jacobian_identity_at_k0():
    rng = np.random.default_rng(48)
    m = rng.standard_normal((3, 3))
    _, plan = rank_residual(m, 0)
    np.testing.assert_array_equal(rank_residual_jacobian(m, plan, np.eye(9)), np.eye(9))


def test_jacobian_finite_difference():
    # the plain jacobian (identity tangent) and the tangent along a random
    # 4-parameter path m(theta) = m + reshape(dm @ theta)
    rng = np.random.default_rng(49)
    eps = 1e-6
    for _ in range(20):
        m = _low_rank(rng, (3, 3), 2) + 0.01 * rng.standard_normal((3, 3))
        res, plan = rank_residual(m, 1)
        for dm in (np.eye(m.size), rng.standard_normal((m.size, 4))):
            jac = rank_residual_jacobian(m, plan, dm)
            assert jac.shape == (res.size, dm.shape[1])
            fd = np.empty_like(jac)
            for c in range(dm.shape[1]):
                d = eps * dm[:, c]
                hi = apply_plan((m.ravel() + d).reshape(3, 3), plan)
                lo = apply_plan((m.ravel() - d).reshape(3, 3), plan)
                fd[:, c] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(jac, fd, atol=1e-5 * max(1.0, np.abs(fd).max()))


def test_jacobian_finite_difference_two_stages():
    # two or three chained stages on non-square matrices, along random tangents
    rng = np.random.default_rng(52)
    eps = 1e-6
    for shape, k in [((4, 5), 2), ((5, 4), 2), ((5, 5), 2), ((6, 5), 3)]:
        m = _low_rank(rng, shape, 3) + 0.01 * rng.standard_normal(shape)
        res, plan = rank_residual(m, k)
        dm = rng.standard_normal((m.size, 6))
        jac = rank_residual_jacobian(m, plan, dm)
        fd = np.column_stack([
            (apply_plan(m + eps * d.reshape(shape), plan)
             - apply_plan(m - eps * d.reshape(shape), plan)) / (2 * eps)
            for d in dm.T
        ])
        assert jac.shape == (res.size, 6)
        np.testing.assert_allclose(jac, fd, atol=1e-5 * max(1.0, np.abs(fd).max()))


def test_jacobian_annihilates_rank_one_tangents():
    rng = np.random.default_rng(50)
    for _ in range(40):
        a = rng.standard_normal(4)
        b = rng.standard_normal(5)
        m = np.outer(a, b)
        _, plan = rank_residual(m, 1)
        jac = rank_residual_jacobian(m, plan, np.eye(m.size))
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
        rank_residual_jacobian(np.eye(3), plan, np.eye(9))
    with pytest.raises(ValueError, match="tangent must have 16 rows"):
        rank_residual_jacobian(m, plan, np.eye(9))
    with pytest.raises(ValueError):
        rank_residual(m, 5)
    with pytest.raises(ValueError, match="expected a matrix"):
        rank_residual(m.ravel(), 1)
    with pytest.raises(ValueError, match="rank must be non-negative"):
        rank_residual(m, -1)


def _deflate_ref(m, pivot):
    i, j = pivot
    u = m - np.outer(m[:, j], m[i, :]) / m[i, j]
    return np.delete(np.delete(u, i, axis=0), j, axis=1)


def test_deflation_matches_delete_reference():
    # eliminating in place and keeping the other rows and columns is
    # bit-identical to deflating and dropping them with np.delete, stage by
    # stage; the reference's stage-local pivots map back to original indices
    rng = np.random.default_rng(61)
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(2, 10, size=2))
        m = rng.standard_normal((rows, cols))
        pivot = (int(rng.integers(rows)), int(rng.integers(cols)))
        one_step = apply_plan(m, DeflationPlan(m.shape, (pivot,)))
        assert np.array_equal(one_step, _deflate_ref(m, pivot).ravel())
        resid, plan = rank_residual(m, int(rng.integers(0, min(rows, cols) + 1)))
        cur, left, right = m, list(range(rows)), list(range(cols))
        for piv in plan.pivots:
            i, j = divmod(int(np.argmax(np.abs(cur))), cur.shape[1])
            assert piv == (left.pop(i), right.pop(j))
            cur = _deflate_ref(cur, (i, j))
        assert np.array_equal(resid, cur.ravel())
        assert np.array_equal(apply_plan(m, plan), cur.ravel())


def test_schur_complement_matches_solve_reference():
    # S = G[I', J'] - G[I', J] G[I, J]^-1 G[I, J'] and dS = P' dG Q with
    # P' = E(I')' - Y E(I)', Q = E(J') - E(J) X, built by solves on G[I, J]
    rng = np.random.default_rng(62)
    for shape in [(5, 5), (4, 6), (7, 5)]:
        for k in (1, 2, 3):
            g = rng.standard_normal(shape)
            dm = rng.standard_normal((g.size, 7))
            res, plan = rank_residual(g, k)
            rows, cols = (list(v) for v in zip(*plan.pivots))
            rest_rows = [a for a in range(shape[0]) if a not in rows]
            rest_cols = [b for b in range(shape[1]) if b not in cols]
            block = g[np.ix_(rows, cols)]
            x = np.linalg.solve(block, g[np.ix_(rows, rest_cols)])
            y = np.linalg.solve(block.T, g[np.ix_(rest_rows, cols)].T).T
            schur = g[np.ix_(rest_rows, rest_cols)] - g[np.ix_(rest_rows, cols)] @ x
            p_t = np.eye(shape[0])[rest_rows] - y @ np.eye(shape[0])[rows]
            q = np.eye(shape[1])[:, rest_cols] - np.eye(shape[1])[:, cols] @ x
            want = np.einsum("ar,rct,cb->abt", p_t, dm.reshape(shape + (7,)), q).reshape(-1, 7)
            scale = np.abs(schur).max()
            np.testing.assert_allclose(res, schur.ravel(), rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(apply_plan(g, plan), schur.ravel(), rtol=0, atol=1e-12 * scale)
            jac = rank_residual_jacobian(g, plan, dm)
            np.testing.assert_allclose(jac, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_jacobian_reuses_the_search_only_at_its_matrix(monkeypatch):
    # the jacobian at the read-only matrix whose pivot search made the plan
    # takes that search's steps; at any other matrix, even an equal copy or
    # a nearby trial point that the plan travels to, it replays the plan
    calls = []
    eliminate = rcassoc.rank._eliminate

    def counting(m, rank, pivots=None):
        calls.append(pivots)
        return eliminate(m, rank, pivots)

    monkeypatch.setattr(rcassoc.rank, "_eliminate", counting)
    rng = np.random.default_rng(53)
    for shape, k in [((4, 4), 1), ((5, 4), 2), ((4, 6), 3)]:
        m = rng.standard_normal(shape)
        m.flags.writeable = False
        dm = rng.standard_normal((m.size, 7))
        _, plan = rank_residual(m, k)
        calls.clear()
        reused = rank_residual_jacobian(m, plan, dm)
        assert calls == []
        replayed = rank_residual_jacobian(m.copy(), plan, dm)
        assert calls == [plan.pivots]
        np.testing.assert_array_equal(reused, replayed)
        trial = m + 1e-3 * rng.standard_normal(shape)
        trial.flags.writeable = False
        calls.clear()
        want = rank_residual_jacobian(trial.copy(), plan, dm)
        np.testing.assert_array_equal(rank_residual_jacobian(trial, plan, dm), want)
        assert calls == [plan.pivots, plan.pivots]
    # a matrix made writable again may have changed since its search
    m.flags.writeable = True
    calls.clear()
    rank_residual_jacobian(m, plan, dm)
    assert calls == [plan.pivots]
    # a writable matrix may change after its search, so its plan keeps no steps
    w = rng.standard_normal((4, 4))
    _, plan = rank_residual(w, 1)
    assert plan._matrix is None
    calls.clear()
    rank_residual_jacobian(w, plan, np.eye(16))
    assert calls == [plan.pivots]
    # the search's steps never enter a plan's equality
    assert plan == DeflationPlan(plan.shape, plan.pivots)
