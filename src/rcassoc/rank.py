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
of w.  Each elimination applies its row operations to an identity, giving
P', and its column operations to another, giving Q, in the same loop that
gives S, so every plan that ``rank_residual`` or ``apply_plan`` returns
carries the P' and Q of the matrix it was made or replayed at, unless the
replay was asked for S alone.  The jacobian and the gradient read them from
the plan.  The jacobian takes dG as a matrix, or as a function that applies
P' and Q itself, as ``kernels.gamma_jacobian_values`` does on its factors,
so that the full dG is never formed.
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
    """Pivot positions (row, column) in elimination order, in the matrix's own
    indices, with the P' and Q of the matrix the plan was made or replayed
    at (None for a replay made without them), which take no part in
    equality, hashing or repr."""

    shape: tuple[int, int]
    pivots: tuple[tuple[int, int], ...]
    p_t: np.ndarray = field(default=None, compare=False, repr=False)
    q: np.ndarray = field(default=None, compare=False, repr=False)

    @property
    def rank(self):
        return len(self.pivots)


def _checked(m, rank):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if rank < 0:
        raise ValueError("rank must be non-negative")
    if rank > min(m.shape):
        raise ValueError(f"rank {rank} exceeds matrix dimensions {m.shape}")
    return m


def _eliminate(m, rank, pivots=None, projectors=True):
    """``rank`` elimination steps on a copy of ``m``, in its own indices.

    Each step pivots on the largest remaining entry, or on the next of
    ``pivots`` when given, and, when ``projectors`` is set, applies its row
    operation to P' and its column operation to Q.  Returns vec S and the
    plan of the steps taken, carrying P' and Q when they were built.
    """
    w = m.copy()
    if pivots is None:
        tol = _REL_TOL * max(np.abs(m).max(), 1e-300)
    rows, cols = list(range(m.shape[0])), list(range(m.shape[1]))
    if projectors:
        p, q = np.eye(m.shape[0]), np.eye(m.shape[1])
    taken = []
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
        piv, c, r = w[i, j], w[:, j].copy(), w[i].copy()
        w -= c[:, None] * r / piv
        w[i] = 0.0
        w[:, j] = 0.0
        if projectors:
            p -= (c / piv)[:, None] * p[i]
            q -= q[:, j, None] * (r / piv)
        rows.remove(i)
        cols.remove(j)
        taken.append((i, j))
    carried = (p.take(rows, 0), q.take(cols, 1)) if projectors else ()
    return w.take(rows, 0).take(cols, 1).ravel(), DeflationPlan(m.shape, tuple(taken), *carried)


def rank_residual(m, rank):
    """(vec S in C order, length ``(m - K) * (n - K)``, its pivot plan).

    The residual vanishes exactly when rank(m) <= K; PivotError when no
    remaining entry exceeds 1e-10 times the largest of ``m``.
    """
    return _eliminate(_checked(m, rank), rank)


def apply_plan(m, plan, projectors=True):
    """Replay a frozen pivot plan at ``m``: (residual, the plan replayed at
    ``m``), which carries P' and Q unless ``projectors`` is False."""
    m = _checked(m, plan.rank)
    if m.shape != plan.shape:
        raise ValueError(f"plan is for shape {plan.shape}, got {m.shape}")
    return _eliminate(m, plan.rank, plan.pivots, projectors)


def _carried(plan):
    """The P' and Q that ``plan`` carries; ValueError for a plan made by hand."""
    if plan.q is None:
        raise ValueError("the plan carries no P' and Q; take it from rank_residual or apply_plan")
    return plan.p_t, plan.q


def rank_residual_jacobian(plan, dm):
    """d residual / dtheta = P' dG Q at the plan's own matrix.

    ``dm`` is d vec(m) / dtheta, of shape ``(m.size, p)``, or a function
    ``dm(rows, cols)`` that returns d vec(rows @ m @ cols) / dtheta for the
    plan's P' and Q; the result has shape ``(len(residual), p)``.  Pass
    ``np.eye(m.size)`` for d residual / d vec(m).
    """
    p, q = _carried(plan)
    if callable(dm):
        return dm(p, q)
    shape = plan.shape
    dm = np.asarray(dm, dtype=np.float64)
    if dm.ndim != 2 or dm.shape[0] != shape[0] * shape[1]:
        raise ValueError(f"tangent must have {shape[0] * shape[1]} rows, got shape {dm.shape}")
    left = p @ dm.reshape(shape[0], -1)
    right = q.T @ left.reshape(len(p), shape[1], -1)
    return right.reshape(-1, dm.shape[1])


def rank_residual_gradient(plan, weights):
    """d (weights' residual) / d m = P weights Q' at the plan's own matrix,
    shaped like it; ``weights`` is indexed like the residual."""
    p, q = _carried(plan)
    return p.T @ np.asarray(weights, dtype=np.float64).reshape(len(p), -1) @ q.T
