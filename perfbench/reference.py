"""Independent reference for the benchmark's correctness checks.

Everything here is computed straight from the definitions, without calling
the program's kernels: each logit type is a pair of 0/1 indicator vectors
per cut point, joint and marginal event probabilities are indicator sums,
and the scaled interaction applies the Cressie-Read link

    gamma_ij = F(rho_11) - F(rho_10) - F(rho_01) + F(rho_00),
    rho_uv   = P(E1(i, u) x E2(j, v)) / (P(E1(i, u)) P(E2(j, v))),
    F(u)     = (u**lam - 1) / lam, or log u at lam = 0,

while eta is the same contrast of log P(E1 x E2).  The deviance and the
independence G^2 are recomputed from the counts.
"""

import numpy as np


def event_indicators(size, logit):
    """(2, size-1, size) array: row [b, x-1] is the indicator of E(x, b).

    Categories and cut points are 1-based as in the paper:
    L: {x} vs {x+1}; G: {1..x} vs {x+1..I}; C: {x} vs {x+1..I};
    R: {1..x} vs {x+1}.
    """
    ind = np.zeros((2, size - 1, size))
    for x in range(1, size):
        first = x if logit in "LC" else 1  # E(x, 0) = {first..x}
        last = x + 1 if logit in "LR" else size  # E(x, 1) = {x+1..last}
        ind[0, x - 1, first - 1:x] = 1.0
        ind[1, x - 1, x:last] = 1.0
    return ind


def _joint_and_margins(pis, pair):
    """Event probabilities of a (n, I1, I2) stack for every cut and side."""
    i1, i2 = pis.shape[-2:]
    a1 = event_indicators(i1, pair[0])
    a2 = event_indicators(i2, pair[1])
    joint = np.einsum("uia,nab,vjb->nuvij", a1, pis, a2)
    p1 = np.einsum("uia,na->nui", a1, pis.sum(axis=2))
    p2 = np.einsum("vjb,nb->nvj", a2, pis.sum(axis=1))
    return joint, p1, p2


def _contrast(f):
    return f[:, 1, 1] - f[:, 1, 0] - f[:, 0, 1] + f[:, 0, 0]


def gamma(pis, pair, lam):
    """Scaled interactions of one table (I1, I2) or a stack (n, I1, I2)."""
    pis = np.asarray(pis, dtype=np.float64)
    single = pis.ndim == 2
    pis = pis[None] if single else pis
    joint, p1, p2 = _joint_and_margins(pis, pair)
    rho = joint / (p1[:, :, None, :, None] * p2[:, None, :, None, :])
    f = np.log(rho) if lam == 0 else (rho**lam - 1.0) / lam
    out = _contrast(f)
    return out[0] if single else out


def eta(pis, pair):
    """Generalized log-odds ratios of one table or a stack."""
    pis = np.asarray(pis, dtype=np.float64)
    single = pis.ndim == 2
    pis = pis[None] if single else pis
    joint, _, _ = _joint_and_margins(pis, pair)
    out = _contrast(np.log(joint))
    return out[0] if single else out


def marginal_logits(margin, logit):
    """log P(E(x, 1)) - log P(E(x, 0)) for x = 1..I-1."""
    ind = event_indicators(len(margin), logit)
    return np.log(ind[1] @ margin) - np.log(ind[0] @ margin)


def deviance(counts, pi):
    """2 sum y log(y / (n pi)) over the positive cells."""
    y = np.asarray(counts, dtype=np.float64)
    n = y.sum()
    pos = y > 0
    return float(2.0 * np.sum(y[pos] * np.log(y[pos] / (n * np.asarray(pi)[pos]))))


def independence_g2(counts):
    """Deviance of the independence table built from the observed margins."""
    y = np.asarray(counts, dtype=np.float64)
    n = y.sum()
    return deviance(y, np.outer(y.sum(axis=1), y.sum(axis=0)) / n**2)


def singular_ratio(matrix, k):
    """sigma_{k+1} / sigma_1; zero when the matrix has at most k columns or rows."""
    s = np.linalg.svd(np.asarray(matrix, dtype=np.float64), compute_uv=False)
    return float(s[k] / s[0]) if s.size > k else 0.0


def pooled_survival_violations(pis, tol=1e-10):
    """Tables breaking P(col > j | row = i) <= P(col > j | row > i) somewhere.

    Nonnegative CC interactions imply this pooled-upper-row comparison.
    """
    cond = pis / pis.sum(axis=2, keepdims=True)
    surv = 1.0 - np.cumsum(cond, axis=2)[:, :, :-1]
    bad = np.zeros(pis.shape[0], dtype=bool)
    for i in range(pis.shape[1] - 1):
        upper = pis[:, i + 1:, :].sum(axis=1)
        s_up = 1.0 - np.cumsum(upper / upper.sum(axis=1, keepdims=True), axis=1)[:, :-1]
        bad |= np.any(surv[:, i, :] - s_up > tol, axis=1)
    return int(bad.sum())
