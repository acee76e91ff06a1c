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
replayed at nearby points.

With E(I) the columns I of the identity, S = P' G Q for
P' = E(I')' - G[I', J] G[I, J]^-1 E(I)' and Q = E(J') - E(J) G[I, J]^-1 G[I, J'],
so dS = P' dG Q, and the gradient of w' vec S is P W Q' with W the matrix
of w.  The elimination's row operations applied to an identity give P',
and its column operations applied to another give Q.  The jacobian and the
gradient at the read-only matrix whose pivot search made a plan reuse that
search's steps; at any other matrix they replay the plan first.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PivotError",
    "DeflationPlan",
    "rank_residual",
    "apply_plan",
    "rank_residual_jacobian",
    "rank_residual_gradient",
]

_REL_TOL = 1e-10


class PivotError(RuntimeError):
    """No usable pivot: the matrix is numerically below the requested rank."""


@dataclass(frozen=True)
class DeflationPlan:
    """Pivot positions (row, column) in elimination order, in the matrix's own indices."""

    shape: tuple[int, int]
    pivots: tuple[tuple[int, int], ...]
    # the read-only matrix whose pivot search made this plan, and that
    # search's kept rows, columns and steps, which its jacobian reuses
    _matrix: np.ndarray = field(default=None, compare=False, repr=False)
    _elimination: tuple = field(default=None, compare=False, repr=False)

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
    remaining entry exceeds 1e-10 times the largest of ``m``.  For a
    read-only ``m`` the plan also keeps the search's steps, which
    ``rank_residual_jacobian`` at ``m`` reuses.
    """
    m = _check_matrix(m, rank)
    resid, rows, cols, steps = _eliminate(m, rank)
    pivots = tuple((i, j) for i, j, *_ in steps)
    if m.flags.writeable:
        return resid, DeflationPlan(m.shape, pivots)
    return resid, DeflationPlan(m.shape, pivots, m, (rows, cols, steps))


def apply_plan(m, plan):
    """Replay a frozen pivot plan; returns the residual vector."""
    return _replay(m, plan)[0]


def _projectors(m, plan):
    """P' and Q of the plan at ``m``, so that the residual is P' m Q.

    At the matrix whose pivot search made ``plan``, while it stays
    read-only, the search's steps are reused; anywhere else the plan is
    replayed.
    """
    if plan._matrix is not None and m is plan._matrix and not m.flags.writeable:
        rows, cols, steps = plan._elimination
    else:
        _, rows, cols, steps = _replay(m, plan)
    p, q = np.eye(plan.shape[0]), np.eye(plan.shape[1])
    for i, j, piv, c, r in steps:
        p -= (c / piv)[:, None] * p[i]
        q -= q[:, j, None] * (r / piv)
    return p.take(rows, 0), q.take(cols, 1)


def rank_residual_jacobian(m, plan, dm):
    """d residual / dtheta = P' dG Q for a frozen plan, given dm = d vec(m) / dtheta.

    ``dm`` has shape ``(m.size, p)``; the result has shape
    ``(len(residual), p)``.  Pass ``np.eye(m.size)`` for d residual / d vec(m).
    """
    shape = plan.shape
    dm = np.asarray(dm, dtype=np.float64)
    if dm.ndim != 2 or dm.shape[0] != shape[0] * shape[1]:
        raise ValueError(f"tangent must have {shape[0] * shape[1]} rows, got shape {dm.shape}")
    p, q = _projectors(m, plan)
    left = p @ dm.reshape(shape[0], -1)
    right = q.T @ left.reshape(len(p), shape[1], -1)
    return right.reshape(-1, dm.shape[1])


def rank_residual_gradient(m, plan, weights):
    """d (weights' residual) / d m = P weights Q' for a frozen plan, shaped
    like ``m``; ``weights`` is indexed like the residual."""
    p, q = _projectors(m, plan)
    return p.T @ np.asarray(weights, dtype=np.float64).reshape(len(p), -1) @ q.T
