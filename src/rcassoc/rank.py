"""Rank constraints on interaction matrices as Schur complements.

Take K pivot rows I and columns J of a matrix G with G[I, J] nonsingular,
and the other rows I' and columns J'.  Then rank(G) <= K exactly when the
Schur complement of the pivot block

    S = G[I', J'] - G[I', J] G[I, J]^-1 G[I, J']

vanishes, so near any point where the block stays nonsingular the entries
of S are a smooth local defining system for the rank-K variety.  K steps of
Gaussian elimination leave S on I' x J': a step at pivot q = w[i, j]
subtracts w[:, j] w[i, :] / q and clears row i and column j (Crabtree &
Haynsworth 1969; Golub & Van Loan, sec. 3.4).  ``rank_residual`` pivots on
the largest remaining entry, first in row-major order on ties, and returns
vec S with the pivots in G's own indices, so the same block can be
replayed at nearby points and differentiated.

With E(I) the columns I of the identity, S = P' G Q for
P' = E(I')' - G[I', J] G[I, J]^-1 E(I)' and Q = E(J') - E(J) G[I, J]^-1 G[I, J'],
so dS = P' dG Q.  The elimination's row operations applied to an identity
give P', and its column operations applied to another give Q.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PivotError",
    "DeflationPlan",
    "rank_residual",
    "apply_plan",
    "rank_residual_jacobian",
]

_REL_TOL = 1e-10


class PivotError(RuntimeError):
    """No usable pivot: the matrix is numerically below the requested rank."""


@dataclass(frozen=True)
class DeflationPlan:
    """Pivot positions (row, column) in elimination order, in the matrix's own indices."""

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


def _eliminate(m, rank, pivots=None):
    """``rank`` elimination steps on a copy of ``m``, in its own indices.

    Each step pivots on the largest remaining entry, or on the next of
    ``pivots`` when given.  Returns vec S, the rows and columns S keeps,
    and the steps (i, j, q, w[:, j], w[i, :]), read before each update.
    """
    w = m.copy()
    if pivots is None:
        tol = _REL_TOL * max(np.abs(m).max(), 1e-300)
    rows, cols = list(range(m.shape[0])), list(range(m.shape[1]))
    steps = []
    for k in range(rank):
        if pivots is None:
            i, j = divmod(int(np.argmax(np.abs(w))), m.shape[1])
            if abs(w[i, j]) <= tol:
                raise PivotError(
                    f"no pivot above {tol:g}: max |entry| is {abs(w[i, j]):.3e}; "
                    "the matrix is numerically of lower rank than requested"
                )
        else:
            i, j = pivots[k]
            if w[i, j] == 0.0:
                raise PivotError(f"zero pivot at {(i, j)}")
        q, c, r = w[i, j], w[:, j].copy(), w[i].copy()
        w -= c[:, None] * r / q
        w[i] = 0.0
        w[:, j] = 0.0
        rows.remove(i)
        cols.remove(j)
        steps.append((i, j, q, c, r))
    return w.take(rows, 0).take(cols, 1).ravel(), rows, cols, steps


def _replay(m, plan):
    m = _check_matrix(m, plan.rank)
    if m.shape != plan.shape:
        raise ValueError(f"plan is for shape {plan.shape}, got {m.shape}")
    return _eliminate(m, plan.rank, plan.pivots)


def rank_residual(m, rank):
    """vec S in C order, length ``(m - K) * (n - K)``, and its pivot plan.

    The residual vanishes exactly when rank(m) <= K; PivotError when no
    remaining entry exceeds 1e-10 times the largest of ``m``.
    """
    m = _check_matrix(m, rank)
    resid, _, _, steps = _eliminate(m, rank)
    return resid, DeflationPlan(shape=m.shape, pivots=tuple((i, j) for i, j, *_ in steps))


def apply_plan(m, plan):
    """Replay a frozen pivot plan; returns the residual vector."""
    return _replay(m, plan)[0]


def rank_residual_jacobian(m, plan, dm):
    """d residual / dtheta = P' dG Q for a frozen plan, given dm = d vec(m) / dtheta.

    ``dm`` has shape ``(m.size, p)``; the result has shape
    ``(len(residual), p)``.  Pass ``np.eye(m.size)`` for d residual / d vec(m).
    """
    _, rows, cols, steps = _replay(m, plan)
    shape = plan.shape
    dm = np.asarray(dm, dtype=np.float64)
    if dm.ndim != 2 or dm.shape[0] != shape[0] * shape[1]:
        raise ValueError(f"tangent must have {shape[0] * shape[1]} rows, got shape {dm.shape}")
    p, q = np.eye(shape[0]), np.eye(shape[1])
    for i, j, piv, c, r in steps:
        p -= (c / piv)[:, None] * p[i]
        q -= q[:, j, None] * (r / piv)
    left = p.take(rows, 0) @ dm.reshape(shape[0], -1)
    right = q.take(cols, 1).T @ left.reshape(len(rows), shape[1], -1)
    return right.reshape(-1, dm.shape[1])
