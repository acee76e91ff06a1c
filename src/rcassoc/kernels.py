"""Numeric kernels: quadrant probabilities, scaled interactions, log-odds ratios.

A logit type is its letter, one of "L", "G", "C" and "R"; ``LogitType``
is a ``str`` enum, so its members pass as they are.  The divergence scale
is the Cressie-Read power ``lam`` alone, 0 selecting the log link of the
Kullback-Leibler family.  The object-level wrappers live in
``interactions``.

Every logit type on a margin of size I is one 0/1 event-indicator operator
E: row ``b * (I-1) + x - 1`` marks the cells of event ``b`` at the 1-based
cut ``x``, the b = 0 rows first.  It is built once per ``(size, logit)`` and
cached read-only, with a row of ones appended so that one product
``E1 @ pi @ E2.T`` yields the joint probabilities of every event pair and
both margins' event probabilities, for one table or a stack of tables.
Each is a plain sum of the cells of its event, so its rounding error is
relative to its own probability, not to the table total.  Cut points are
1-based; event bounds are 0-based half-open ranges.
"""

from functools import lru_cache

import numpy as np

# signs of the four (u, v) quadrants in an interaction, shaped like the
# joint probabilities (2, I1-1, 2, I2-1)
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0]).reshape(2, 1, 2, 1)


def _bounds(x, b, logit, size):
    # 0-based half-open range of the event at cut x (1-based).
    if b == 0:
        if logit == "L" or logit == "C":
            return x - 1, x
        return 0, x
    if logit == "L" or logit == "R":
        return x, x + 1
    return x, size


@lru_cache(maxsize=64)
def _operator(size, logit):
    """Event-indicator operator of one margin with a row of ones appended.

    Shape (2(size-1) + 1, size); see the module docstring for the row order.
    """
    ops = np.zeros((2 * size - 1, size))
    for b in (0, 1):
        for x in range(1, size):
            lo, hi = _bounds(x, b, logit, size)
            ops[b * (size - 1) + x - 1, lo:hi] = 1.0
    ops[-1] = 1.0
    ops.flags.writeable = False
    return ops


def _quadrants(pis, l1, l2):
    """Joint, row and column event probabilities of every cut pair.

    Returns ``(p, p1, p2)`` with shapes ``(..., 2, I1-1, 2, I2-1)``,
    ``(..., 2, I1-1)`` and ``(..., 2, I2-1)``, where
    ``p[..., u, i-1, v, j-1]`` is the probability of row event ``u`` at cut
    ``i`` together with column event ``v`` at cut ``j``.  All three are
    blocks of ``E1 @ pi @ E2.T``: the appended rows of ones make its last
    column the row events and its last row the column events.  For a stack
    of tables the first product is one GEMM over all stacked rows.
    """
    head = pis.shape[:-2]
    i1, i2 = pis.shape[-2:]
    e2 = _operator(i2, l2)
    right = (pis.reshape(-1, i2) @ e2.T).reshape(pis.shape[:-1] + (e2.shape[0],))
    q = _operator(i1, l1) @ right
    n1, n2 = 2 * (i1 - 1), 2 * (i2 - 1)
    p = q[..., :n1, :n2].reshape(head + (2, i1 - 1, 2, i2 - 1))
    p1 = q[..., :n1, n2].reshape(head + (2, i1 - 1))
    p2 = q[..., n1, :n2].reshape(head + (2, i2 - 1))
    return p, p1, p2


def _rho(p, p1, p2):
    return p / (p1[..., :, :, None, None] * p2[..., None, None, :, :])


def _contrast(q):
    """Signed sum over the four quadrants: q00 - q01 - q10 + q11."""
    return q[..., 0, :, 0, :] - q[..., 0, :, 1, :] - q[..., 1, :, 0, :] + q[..., 1, :, 1, :]


def _flink(u, lam):
    if lam == 0.0:
        return np.log(u)
    return (u ** lam - 1.0) / lam


def _gamma(pis, l1, l2, lam):
    return _contrast(_flink(_rho(*_quadrants(pis, l1, l2)), lam))


def _lor(pis, l1, l2):
    p, _, _ = _quadrants(pis, l1, l2)
    return _contrast(np.log(p))


def _as_table(pi):
    pi = np.ascontiguousarray(pi, dtype=np.float64)
    if pi.ndim != 2:
        raise ValueError(f"expected a 2-d probability table, got shape {pi.shape}")
    return pi


def _as_batch(pis):
    pis = np.ascontiguousarray(pis, dtype=np.float64)
    if pis.ndim != 3:
        raise ValueError(f"expected a stack of tables, got shape {pis.shape}")
    return pis


def gamma_values(pi, l1, l2, lam):
    """Scaled interaction matrix of one table; shape (I1-1, I2-1)."""
    return _gamma(_as_table(pi), l1, l2, float(lam))


def lor_values(pi, l1, l2):
    """Log-odds-ratio matrix of one table; shape (I1-1, I2-1)."""
    return _lor(_as_table(pi), l1, l2)


def gamma_values_batch(pis, l1, l2, lam):
    """Scaled interactions for a stack of tables; shape (n, I1-1, I2-1)."""
    return _gamma(_as_batch(pis), l1, l2, float(lam))


def lor_values_batch(pis, l1, l2):
    """Log-odds ratios for a stack of tables; shape (n, I1-1, I2-1)."""
    return _lor(_as_batch(pis), l1, l2)


@lru_cache(maxsize=64)
def _slabs(size, logit):
    """E as (3, size-1, size): the b = 0 and b = 1 indicators and all ones;
    cached read-only like ``_operator``."""
    ops = _operator(size, logit)
    slabs = np.concatenate([ops[:-1].reshape(2, size - 1, size), np.ones((1, size - 1, size))])
    slabs.flags.writeable = False
    return slabs


def gamma_jacobian_values(pi, l1, l2, lam):
    """d vec(gamma) / d vec(pi) in C order; shape ((I1-1)(I2-1), I1*I2).

    gamma is a signed sum of F(rho_uv) with log rho_uv = log p_uv - log p1_u
    - log p2_v.  With w_uv = +-F'(rho_uv) rho_uv, each quadrant adds
    w_uv / p_uv on the cells of kron(E1[u], E2[v]) and subtracts w_uv / p1_u
    on its row event and w_uv / p2_v on its column event.  So row (i, j) of
    the jacobian is A_i' C_ij B_j, where A_i stacks the two row-event
    indicators at cut i and a row of ones, B_j likewise for the columns,
    and C_ij is the 3x3 matrix of those weights.
    """
    pi = _as_table(pi)
    i1, i2 = pi.shape
    p, p1, p2 = _quadrants(pi, l1, l2)
    w = _SIGNS * _rho(p, p1, p2) ** float(lam)
    coef = np.zeros((3, i1 - 1, 3, i2 - 1))
    coef[:2, :, :2, :] = w / p
    coef[:2, :, 2, :] = -w.sum(axis=2) / p1[:, :, None]
    coef[2, :, :2, :] = -w.sum(axis=0) / p2
    half = np.einsum("aih,aibj->ijhb", _slabs(i1, l1), coef)
    jac = half @ _slabs(i2, l2).transpose(1, 0, 2)
    return jac.reshape((i1 - 1) * (i2 - 1), i1 * i2)


def _margin_events(margin, logit):
    """Event indicators (2, I-1, I) of one margin and their probabilities (2, I-1)."""
    margin = np.asarray(margin, dtype=np.float64)
    size = margin.shape[0]
    ops = _operator(size, logit)[:-1].reshape(2, size - 1, size)
    return ops, ops @ margin


def marginal_logit_values(margin, logit):
    """Marginal logits of one margin; shape (I-1,)."""
    _, pe = _margin_events(margin, logit)
    return np.log(pe[1]) - np.log(pe[0])


def marginal_logit_jacobian(margin, logit):
    """d logits / d margin; shape (I-1, I)."""
    ops, pe = _margin_events(margin, logit)
    return ops[1] / pe[1][:, None] - ops[0] / pe[0][:, None]
