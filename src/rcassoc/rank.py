"""Rank constraints on interaction matrices via Wedderburn deflation.

A matrix has rank at most K exactly when K successive rank-one deflations

    U = M - M[:, j] M[i, :] / M[i, j]   (then drop row i and column j)

annihilate it.  The residual entries of the K-times deflated matrix are
therefore a smooth local defining system for the rank-K variety near any
point where the chosen pivots stay away from zero.  ``rank_residual``
selects pivots greedily (largest magnitude, first in row-major order on
ties) and returns the residual together with the pivot plan, so the same
plan can be replayed at nearby points and differentiated.

The jacobian is taken in tangent form: ``rank_residual_jacobian`` carries
dM = d vec(M) / dtheta through each stage with M.  At pivot q = M[i, j]
with pivot column c and row r, dU = dM - (dc r' + c dr') / q + c r' dq / q^2
on the kept rows and columns: slices plus two rank-one corrections.
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


def rank_residual_jacobian(m, plan, dm):
    """d residual / dtheta for a frozen plan, given dm = d vec(m) / dtheta.

    ``dm`` has shape ``(m.size, p)``; the result has shape
    ``(len(residual), p)``.  Pass ``np.eye(m.size)`` for d residual / d vec(m).
    """
    m = _check_matrix(m, plan.rank)
    if m.shape != plan.shape:
        raise ValueError(f"plan is for shape {plan.shape}, got {m.shape}")
    dm = np.asarray(dm, dtype=np.float64)
    if dm.ndim != 2 or dm.shape[0] != m.size:
        raise ValueError(f"tangent must have {m.size} rows, got shape {dm.shape}")
    cur, dcur = m, dm.reshape(m.shape + (-1,))
    for i, j in plan.pivots:
        rows = np.arange(cur.shape[0]) != i % cur.shape[0]
        cols = np.arange(cur.shape[1]) != j % cur.shape[1]
        q = cur[i, j]
        rho, kappa = cur[i, cols] / q, cur[rows, j] / q
        slope = dcur[i, cols] - np.outer(rho, dcur[i, j])  # dr - (r / q) dq
        dc = dcur[rows, j]
        dcur = dcur[np.ix_(rows, cols)]
        dcur -= dc[:, None] * rho[:, None]
        dcur -= kappa[:, None, None] * slope
        cur = deflate(cur, (i, j))
    return dcur.reshape(-1, dm.shape[1])
