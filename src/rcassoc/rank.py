"""Rank constraints on interaction matrices via Wedderburn deflation.

A matrix has rank at most K exactly when K successive rank-one deflations

    U = M - M[:, j] M[i, :] / M[i, j]   (then drop row i and column j)

annihilate it.  The residual entries of the K-times deflated matrix are
therefore a smooth local defining system for the rank-K variety near any
point where the chosen pivots stay away from zero.  ``rank_residual``
selects pivots greedily (largest magnitude, first in row-major order on
ties) and returns the residual together with the pivot plan, so the same
plan can be replayed at nearby points and differentiated.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PivotError",
    "DeflationPlan",
    "deflate",
    "pivot_select",
    "rank_residual",
    "apply_plan",
    "rank_residual_jacobian",
]

_REL_TOL = 1e-10


class PivotError(RuntimeError):
    """No usable pivot: the matrix is numerically below the requested rank."""


@dataclass(frozen=True)
class DeflationPlan:
    """Pivot positions per deflation stage, in stage-local coordinates."""

    shape: tuple[int, int]
    pivots: tuple[tuple[int, int], ...]

    @property
    def rank(self):
        return len(self.pivots)


def _check_matrix(m, rank):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if rank > min(m.shape):
        raise ValueError(f"rank {rank} exceeds matrix dimensions {m.shape}")
    return m


def pivot_select(m, tol=None):
    """0-based position of the largest-magnitude entry; row-major first on ties.

    ``tol`` defaults to 1e-10 times the largest magnitude of ``m`` itself,
    so it only rejects an (effectively) all-zero matrix.  Raises PivotError
    when nothing exceeds the tolerance.
    """
    m = np.asarray(m, dtype=np.float64)
    if tol is None:
        tol = _REL_TOL * max(np.abs(m).max() if m.size else 0.0, 1e-300)
    flat = int(np.argmax(np.abs(m)))
    i, j = divmod(flat, m.shape[1])
    if abs(m[i, j]) <= tol:
        raise PivotError(
            f"no pivot above {tol:g}: max |entry| is {abs(m[i, j]):.3e}; "
            "the matrix is numerically of lower rank than requested"
        )
    return i, j


def deflate(m, pivot):
    """One Wedderburn rank-one deflation step at ``pivot`` = (i, j)."""
    m = np.asarray(m, dtype=np.float64)
    i, j = pivot
    piv = m[i, j]
    if piv == 0.0:
        raise PivotError(f"zero pivot at {pivot}")
    u = m - np.outer(m[:, j], m[i, :]) / piv
    # drop row i and column j; a negative pivot counts from the end, as in m[i, j]
    i, j = i % m.shape[0], j % m.shape[1]
    u = np.concatenate((u[:i], u[i + 1 :]), axis=0)
    return np.concatenate((u[:, :j], u[:, j + 1 :]), axis=1)


def rank_residual(m, rank):
    """K-stage deflation residual and the pivot plan that produced it.

    The residual is the C-order vec of the deflated matrix, length
    ``(m - K) * (n - K)``; it vanishes exactly when rank(m) <= K.
    """
    m = _check_matrix(m, rank)
    tol = _REL_TOL * max(np.abs(m).max(), 1e-300)
    pivots = []
    cur = m
    for _ in range(rank):
        piv = pivot_select(cur, tol)
        pivots.append(piv)
        cur = deflate(cur, piv)
    plan = DeflationPlan(shape=m.shape, pivots=tuple(pivots))
    return cur.ravel(), plan


def apply_plan(m, plan):
    """Replay a frozen pivot plan; returns the residual vector."""
    m = _check_matrix(m, plan.rank)
    if m.shape != plan.shape:
        raise ValueError(f"plan is for shape {plan.shape}, got {m.shape}")
    cur = m
    for piv in plan.pivots:
        cur = deflate(cur, piv)
    return cur.ravel()


def _stage_jacobian(m, pivot):
    """d vec(deflate(m, pivot)) / d vec(m) as a dense matrix."""
    rows, cols = m.shape
    i, j = pivot
    piv = m[i, j]
    keep_r = np.delete(np.arange(rows), i)
    keep_c = np.delete(np.arange(cols), j)
    c = m[keep_r, j]
    r = m[i, keep_c]
    e1 = np.zeros((rows - 1, rows))
    e1[np.arange(rows - 1), keep_r] = 1.0
    e2 = np.zeros((cols - 1, cols))
    e2[np.arange(cols - 1), keep_c] = 1.0
    jac = np.einsum("ap,bq->abpq", e1, e2)
    jac[:, :, :, j] -= np.einsum("b,ap->abp", r / piv, e1)
    jac[:, :, i, :] -= np.einsum("a,bq->abq", c / piv, e2)
    jac[:, :, i, j] += np.outer(c, r) / piv**2
    return jac.reshape((rows - 1) * (cols - 1), rows * cols)


def rank_residual_jacobian(m, plan):
    """d residual / d vec(m) for a frozen plan; shape (len(residual), m.size)."""
    m = _check_matrix(m, plan.rank)
    if m.shape != plan.shape:
        raise ValueError(f"plan is for shape {plan.shape}, got {m.shape}")
    cur = m
    total = None
    for piv in plan.pivots:
        stage = _stage_jacobian(cur, piv)
        total = stage if total is None else stage @ total
        cur = deflate(cur, piv)
    if total is None:
        total = np.eye(m.size)
    return total
