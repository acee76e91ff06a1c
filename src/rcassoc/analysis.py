"""Post-fit analysis: association scores, correlation, table reconstruction,
and positive-dependence reports.

The score decomposition inverts the rank-K representation

    gamma[i, j] = sum_k psi_k (mu[k, i+1] - mu[k, i]) (nu[k, j+1] - nu[k, j])

via an SVD of the interaction matrix: singular vectors are score increments,
integrated to scores and standardized to weighted mean 0 / variance 1 under
the table marginals, with the scale folded into psi.  ``reconstruct`` goes
the other way, recovering the unique joint table carrying given marginal
logits and a given interaction matrix.

For a pair in {G, C, R}^2 it uses the representation by the survival
surface S(i, j) = P(X >= i, Y >= j), whose row 0 and column 0 are the
marginal survivals and whose second differences are the cells.  G and C
share their upper event (X >= i), so at cut (i, j) the four quadrant
probabilities are affine in S(i, j):

    p11 = S(i, j)                  p01 = S(a, j) - S(i, j)
    p10 = S(i, b) - S(i, j)        p00 = S(a, b) - S(a, j) - S(i, b) + S(i, j)

with a = i - 1 for a C row margin and a = 0 for a G one, and b likewise
for the columns.  F is increasing, so gamma[i-1, j-1] rises strictly with
S(i, j) on the interval where all four quadrants are positive, and a
row-major scan fixes each S(i, j) by one bracketed scalar root once its
predecessors are known.  An R margin is a C margin on the reversed axis,
with gamma negated.  A target is unattainable exactly when a cut's bracket
holds no sign change (possible only for lam > 0, where F(0+) = -1/lam is
finite) or a cell comes out <= 0.

With L rows (other pairs with one L margin are transposed) each gamma is a
difference across two adjacent rows.  At column cut j, with c0 and c1 the
lower and upper column-event probabilities, T_i the mass of row i still to
place (1 for G columns, P(Y >= j - 1 | X = i) for C columns) and
t_i = P(lower event | X = i),

    gamma[i-1, j-1] = psi_i(t_i) - psi_(i-1)(t_(i-1)),
    psi_i(t) = F((T_i - t) / c1) - F(t / c0),

and psi_i falls strictly in t.  So psi_i(t_i) = k_j + sum_(i' < i)
gamma[i', j-1], and one scalar k_j, fixed by sum_i r_i t_i = c0, settles
the column: one monotone scalar root per column, with each t_i closed form
at lam = 0 (t_i = T_i expit(log(c0 / c1) - psi_i)) and a bracketed scalar
inversion otherwise.  C columns are solved in order, G columns each on its
own.  For LL, with a_ij = pi_ij / (r_i c_j),

    F(a_ij) = Gamma_ij + alpha_i + beta_j,

where Gamma is the double running sum of gamma, and the margins fix alpha
and beta (up to one gauge).  These are the optimality conditions of the
convex problem: minimize sum r_i c_j (Phi(a_ij) - Gamma_ij a_ij), with
Phi' = F, subject to the margins; Newton steps solve them for a and the
multipliers together.  A column target is out of reach when its bracket
for k_j holds no root, and an LL target when no positive table meets those
conditions; both happen only for lam > 0.
"""

import functools
import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .divergence import cressie_read, kl
from .interactions import (
    InteractionMatrix,
    MarginalLogits,
    gamma_matrix,
    gamma_matrix_batch,
    lor_matrix,
    table_logits,
)
from .table import ContingencyTable, LogitType

__all__ = [
    "ScoreDecomposition",
    "DependenceReport",
    "PairDependence",
    "VerificationRecord",
    "DegenerateScoreError",
    "ReconstructionError",
    "RankDeficiencyWarning",
    "svd_scores",
    "score_correlation",
    "margin_from_logits",
    "reconstruct",
    "extract_invariants",
    "row_conditional_cumulative",
    "dependence_report",
    "counterexample_verify",
    "counterexample_names",
    "collect_nonnegative_gamma_tables",
]


class DegenerateScoreError(ValueError):
    """Score correlation is undefined: a score vector has zero variance."""


class ReconstructionError(RuntimeError):
    """Reconstruction could not reach the target invariants.

    ``residual_norm`` is positive.  It is the max-norm invariant residual of
    the reconstructed table, or, when the target is ruled out, the gap
    between a cut's target and the range its bracket reaches, a column's
    log-odds gap at the end of its bracket (or the width by which that
    bracket is empty), the log-odds gap by which a G column's root falls
    below the previous column's where the cell between them would overflow,
    the amount by which a cell falls below 0 (for a cell that is exactly 0,
    the least positive float, 5e-324, which it falls short of being
    positive), or, for LL, the largest error left in its margin and
    optimality equations (infinite once they are no longer finite).
    """

    def __init__(self, message, residual_norm):
        super().__init__(f"{message} (final residual {residual_norm:.3e})")
        self.residual_norm = residual_norm


class RankDeficiencyWarning(UserWarning):
    """Interaction matrix has lower numerical rank than requested."""


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreDecomposition:
    """Association parameters psi with row and column score vectors.

    ``mu`` is (K, I1) and ``nu`` is (K, I2); each row is one component's
    scores, standardized to mean 0 and variance 1 under the weighting
    marginals, with psi_k >= 0 descending and the sign convention that the
    last row score is not below the first.
    """

    psi: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    @property
    def rank(self):
        return self.psi.shape[0]


def _probs(table_or_pi):
    """The probabilities of a table, or an array of them as float64."""
    if isinstance(table_or_pi, ContingencyTable):
        return table_or_pi.probs
    return np.asarray(table_or_pi, dtype=np.float64)


def svd_scores(gamma, table, rank):
    """Rank-``rank`` score decomposition of an interaction matrix.

    ``table`` supplies the marginals used by the weighted normalization
    (for a fitted model, pass the fitted probabilities).  When the matrix
    is numerically of lower rank, fewer components are returned with a
    warning.
    """
    g = gamma.values if isinstance(gamma, InteractionMatrix) else np.asarray(gamma, dtype=np.float64)
    if rank < 0 or rank > min(g.shape):
        raise ValueError(f"rank {rank} invalid for a {g.shape} interaction matrix")
    pi = _probs(table)
    rowm, colm = pi.sum(axis=1), pi.sum(axis=0)
    left, sing, right_t = np.linalg.svd(g, full_matrices=False)
    tol = 1e-8 * max(sing[0] if sing.size else 0.0, 1e-300)
    effective = min(rank, int(np.sum(sing > tol)))
    if effective < rank:
        warnings.warn(
            f"requested {rank} components but the interaction matrix has "
            f"numerical rank {effective}",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    psi = np.empty(effective)
    mu = np.empty((effective, g.shape[0] + 1))
    nu = np.empty((effective, g.shape[1] + 1))
    for k in range(effective):
        mu_k = np.concatenate(([0.0], np.cumsum(left[:, k])))
        nu_k = np.concatenate(([0.0], np.cumsum(right_t[k])))
        mu_k, mu_scale = _standardize(mu_k, rowm)
        nu_k, nu_scale = _standardize(nu_k, colm)
        if mu_k[-1] < mu_k[0]:
            mu_k, nu_k = -mu_k, -nu_k
        psi[k] = sing[k] * mu_scale * nu_scale
        mu[k], nu[k] = mu_k, nu_k
    return ScoreDecomposition(psi=psi, mu=mu, nu=nu)


def _standardize(score, weights):
    center = float(weights @ score)
    centered = score - center
    scale = float(np.sqrt(weights @ centered**2))
    if scale <= 0.0:
        raise DegenerateScoreError("score vector is constant under the weighting marginals")
    return centered / scale, scale


def score_correlation(pi, decomposition):
    """Pearson correlation of the first-component scores under joint ``pi``."""
    pi = _probs(pi)
    if decomposition.rank < 1:
        raise ValueError("correlation needs at least one score component")
    mu, nu = decomposition.mu[0], decomposition.nu[0]
    rowm, colm = pi.sum(axis=1), pi.sum(axis=0)
    e_mu, e_nu = float(rowm @ mu), float(colm @ nu)
    var_mu = float(rowm @ (mu - e_mu) ** 2)
    var_nu = float(colm @ (nu - e_nu) ** 2)
    if var_mu <= 0.0 or var_nu <= 0.0:
        raise DegenerateScoreError("zero-variance scores have no defined correlation")
    cov = float(mu @ pi @ nu) - e_mu * e_nu
    return cov / np.sqrt(var_mu * var_nu)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def margin_from_logits(values, logit_type):
    """Probability vector whose marginal logits equal ``values``.

    Plain floats throughout: a margin has a handful of categories, where
    numpy's per-call cost would dominate.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1).tolist()
    lt = LogitType.parse(logit_type)
    improper = ValueError("logit values do not define a proper positive margin")
    if not values:
        return np.ones(1)
    if lt is LogitType.GLOBAL:
        # P(X >= i) = expit(values[i - 1]); each cell is a difference of two
        # of them, formed from the logit difference without cancellation
        m = [_expit(-values[0])] + [
            _expit(v) * _expit(-w) * -math.expm1(w - v) for v, w in zip(values, values[1:])
        ] + [_expit(values[-1])]
    elif lt is LogitType.CONTINUATION:
        m, surv = [], 1.0
        for v in values:
            m.append(surv * _expit(-v))
            surv *= _expit(v)
        m.append(surv)
    else:
        try:
            e = [math.exp(v) for v in values]
        except OverflowError:
            raise improper from None
        if lt is LogitType.LOCAL:
            m = list(itertools.accumulate(e, operator.mul, initial=1.0))
        else:  # REVERSE
            m, below = [1.0], 1.0
            for x in e:
                m.append(below * x)
                below += m[-1]
    total = math.fsum(m)
    if not (math.isfinite(total) and total > 0.0 and all(x > 0.0 for x in m)):
        raise improper
    return np.array(m) / total


def extract_invariants(table, fam=None):
    """(row logits, column logits, gamma) of a table under its own logit pair;
    reconstruct's inverse."""
    rows, cols = table_logits(table)
    g = gamma_matrix(table, fam=fam)
    return rows, cols, g


def reconstruct(row_logits, col_logits, gamma_target, fam=None):
    """The unique table with given marginal logits and interaction matrix.

    Each pair has one path, described in the module docstring: the survival
    scan for a pair in {G, C, R}^2, the column sweep for a pair with one L
    margin, and Newton steps on the LL optimality conditions.  The table is
    returned only when the invariants recomputed from it by the kernels are
    within 1e-9 of the target in the max norm.  Raises ValueError on
    non-finite targets and on an InteractionMatrix of another pair than the
    logits', and ReconstructionError, which carries a positive residual,
    when the target is not attainable: the error names the cut, the gamma
    column or the cell that rules it out.
    """
    fam = fam or kl()
    if not isinstance(row_logits, MarginalLogits) or not isinstance(col_logits, MarginalLogits):
        raise TypeError("row_logits and col_logits must be MarginalLogits")
    g_target = (
        gamma_target.values
        if isinstance(gamma_target, InteractionMatrix)
        else np.asarray(gamma_target, dtype=np.float64)
    )
    i1 = len(row_logits) + 1
    i2 = len(col_logits) + 1
    if g_target.shape != (i1 - 1, i2 - 1):
        raise ValueError(
            f"gamma target shape {g_target.shape} does not match logits ({i1 - 1}, {i2 - 1})"
        )
    target = np.concatenate([row_logits.values, col_logits.values, g_target.ravel()])
    if not np.isfinite(target).all():
        raise ValueError("reconstruction targets must be finite")
    pair = (row_logits.logit_type, col_logits.logit_type)
    if isinstance(gamma_target, InteractionMatrix) and gamma_target.pair != pair:
        raise ValueError(
            f"gamma target is for pair {''.join(gamma_target.pair)} "
            f"but the logits are of pair {''.join(pair)}"
        )
    rows = margin_from_logits(row_logits.values, pair[0])
    cols = margin_from_logits(col_logits.values, pair[1])
    if pair == (LogitType.LOCAL, LogitType.LOCAL):
        pi = _ll_solve(rows, cols, g_target, fam.lam)
    elif LogitType.LOCAL in pair:
        pi = _column_sweep(rows, cols, g_target, pair, fam.lam)
    else:
        pi = _survival_scan(rows, cols, g_target, pair, fam.lam)
    bad = np.argwhere(pi <= 0.0)
    if bad.size:
        r, c = bad[0]
        cell = float(pi[r, c])
        raise ReconstructionError(
            f"target implies cell pi[{r}, {c}] = {cell:.3e} <= 0", max(-cell, math.ulp(0.0))
        )
    pi = pi / pi.sum()
    got = np.concatenate([
        kernels.marginal_logit_values(pi.sum(axis=1), pair[0]),
        kernels.marginal_logit_values(pi.sum(axis=0), pair[1]),
        kernels.gamma_values(pi, *pair, fam.lam).ravel(),
    ])
    miss = float(np.abs(got - target).max())
    if not miss <= _RECONSTRUCT_TOL:
        raise ReconstructionError("reconstructed table misses the target invariants", miss)
    return pi


# largest max-norm miss of the invariants and of the LL equations reconstruct accepts
_RECONSTRUCT_TOL = 1e-9
_ROOT_STEPS = 100


def _expit(z):
    """1 / (1 + e^-z) without overflow."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _logistic(z):
    """(expit(z), expit(-z), log expit(z), log expit(-z)) from one exp and
    one log1p, without overflow."""
    e = math.exp(-abs(z))
    s, log_s = 1.0 / (1.0 + e), -math.log1p(e)
    if z >= 0.0:
        return s, e * s, log_s, log_s - z
    return e * s, s, log_s + z, log_s


def _power(log_base, lam):
    """e^(lam log_base), saturating instead of raising on overflow."""
    return math.exp(min(lam * log_base, 709.0))


def _settled(step, x):
    # Newton converges quadratically, so after a step this small the error
    # left is far below rounding
    return abs(step) <= 1e-8 * max(1.0, abs(x))


def _collapsed(lo, hi):
    # a finite bracket no wider than a few ulps
    return hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))) < math.inf


def _invert_psi(y, p, q, lam, z):
    """(z, dpsi/dz at z) with psi(z) = F(e^p expit(-z)) - F(e^q expit(z)) = y.

    For lam != 0 only.  psi falls strictly in z.  With A = a^lam for
    a = e^p expit(-z) and B = b^lam for b = e^q expit(z), the root solves
    A - B = lam y.  The Newton steps are taken on log A - log(B + lam y),
    which is nearly linear in z where a is small (z > 0), or on
    log(A - lam y) - log B where b is small (z < 0), and bisect once the
    root is bracketed.  ``z`` is the start.
    """
    goal = lam * y
    lo, hi = -math.inf, math.inf
    last = math.inf
    for _ in range(_ROOT_STEPS):
        sp, sm, lsp, lsm = _logistic(z)
        la, lb = p + lsm, q + lsp
        big_a, big_b = _power(la, lam), _power(lb, lam)
        if (z < 0.0 and big_a > goal) or big_b + goal <= 0.0:
            h = math.log(big_a - goal) - lam * lb
            slope = -lam * (big_a * sp / (big_a - goal) + sm)
        else:
            h = lam * la - math.log(big_b + goal)
            slope = -lam * (sp + big_b * sm / (big_b + goal))
        if slope == 0.0:
            break  # z so far out that expit(z) or expit(-z) underflows
        step = -h / slope
        if step > 0.0:
            lo = z
        elif step < 0.0:
            hi = z
        else:
            break
        nxt = z + step
        if _settled(step, z) and lo <= nxt <= hi:
            z = nxt
            break
        if not lo < nxt < hi or abs(step) > 0.5 * abs(last) and hi - lo < math.inf:
            nxt = 0.5 * (lo + hi)
        if _collapsed(lo, hi):
            break
        last = nxt - z
        z = nxt
    return z, -(big_a * sp + big_b * sm)


def _running(gcol, m):
    """psi_i - psi_m for every row, from gamma[i - 1] = psi_i - psi_(i-1),
    summed outward from row m so that no large partial sum cancels."""
    run = [0.0] * (len(gcol) + 1)
    for i in range(m + 1, len(run)):
        run[i] = run[i - 1] + gcol[i - 1]
    for i in range(m - 1, -1, -1):
        run[i] = run[i + 1] - gcol[i]
    return run


def _column_root(log_mass, rows, gcol, c0, c1, lam, name):
    """logit(t_i / T_i) for every row at one column cut of a pair with L rows.

    ``log_mass`` holds log T_i, the mass of row i still to place, ``gcol``
    the cut's gamma column, and c0, c1 the lower and upper column-event
    probabilities.  Row i's share t_i of the lower event solves
    psi_i(t_i) = k + run[i], with psi_i(t) = F((T_i - t) / c1) - F(t / c0)
    and ``run`` the running sums of ``gcol`` from a reference row, moved
    to the row whose psi is nearest 0 as k converges; so a large gamma
    entry, from a tiny cell, never cancels against k in a moderate psi.
    The one scalar k solves sum_i r_i t_i = c0, taken as log S0 - log S1 =
    log(c0 / c1) with S0 = sum_i r_i t_i and S1 = sum_i r_i (T_i - t_i);
    that falls in k, so Newton steps in k, safeguarded by bisection, find
    it.  psi_i = 0 where t_i / T_i = c0 / (c0 + c1), and the root puts rows
    on both sides of that, so k lies in [-max run, -min run].  At lam = 0
    each t_i is closed form; otherwise it comes from ``_invert_psi``,
    restarted from a first-order prediction after each step in k.  For
    lam > 0, F is bounded below by -1/lam, so k is further confined to the
    interval where every psi_i reaches its target, and ``name`` names the
    column in the error raised when that interval holds no root.
    """
    n = len(rows)
    odds = math.log(c0 / c1)
    weights = [r * math.exp(lt) for r, lt in zip(rows, log_mass)]
    p = [lt - math.log(c1) for lt in log_mass]
    q = [lt - math.log(c0) for lt in log_mass]
    m = weights.index(max(weights))
    run = _running(gcol, m)
    # f(-max run) >= 0 >= f(-min run)
    lo, hi = -max(run), -min(run)
    signs = {True, False}
    if lam > 0.0:
        # f at an end where some psi_i reaches the end of its range is unknown
        edge_lo = max(-math.exp(lam * qi) / lam - g for qi, g in zip(q, run))
        edge_hi = min(math.exp(lam * pi) / lam - g for pi, g in zip(p, run))
        if edge_lo > lo:
            lo = edge_lo
            signs.discard(True)
        if edge_hi < hi:
            hi = edge_hi
            signs.discard(False)
        if not lo <= hi:
            raise _out_of_reach(name, "columns", lo - hi)
    k = -math.fsum(w * g for w, g in zip(weights, run)) / math.fsum(weights)
    if not lo < k < hi:
        k = 0.5 * (lo + hi)
    z = [odds] * n
    slopes = [-1.0] * n
    done = False
    last = math.inf
    for _ in range(_ROOT_STEPS):
        if lam == 0.0:
            z = [odds - k - g for g in run]
        else:
            for i in range(n):
                z[i], slopes[i] = _invert_psi(k + run[i], p[i], q[i], lam, z[i])
        if done:
            return z
        # re-anchor the sums at the row whose psi is nearest 0, so that k is
        # no larger than the psi it must resolve
        nearest = min(range(n), key=lambda i: abs(k + run[i]))
        if nearest != m:
            shift, m = run[nearest], nearest
            k, lo, hi, run = k + shift, lo + shift, hi + shift, _running(gcol, m)
        sp, sm = zip(*(_logistic(zi)[:2] for zi in z))
        s0 = math.fsum(w * a for w, a in zip(weights, sp))
        s1 = math.fsum(w * b for w, b in zip(weights, sm))
        f = math.log(s0) - math.log(s1) - odds
        if f == 0.0:
            return z
        signs.add(f > 0.0)
        if f > 0.0:
            lo = k
        else:
            hi = k
        # dS0/dk, which is -dS1/dk; 0 only when every row has underflowed
        ds = math.fsum(w * a * b / s for w, a, b, s in zip(weights, sp, sm, slopes) if a * b > 0.0)
        step = -f / (ds * (1.0 / s0 + 1.0 / s1)) if ds else math.copysign(math.inf, f)
        nxt = k + step
        done = _settled(step, k) and lo <= nxt <= hi
        if not done and (not lo < nxt < hi or abs(step) > 0.5 * abs(last)):
            nxt = 0.5 * (lo + hi)
        last = nxt - k
        if not done and _collapsed(lo, hi):
            if len(signs) == 2:
                return z
            break
        # first-order prediction of each row's root at the new k
        z = [zi + (nxt - k) / s if s else zi for zi, s in zip(z, slopes)]
        k = nxt
    raise _out_of_reach(name, "columns", abs(f))


def _out_of_reach(name, solved, gap):
    """The error for the target ``name``, a gamma entry or column, whose
    bracket holds no root once the ``solved`` (cuts or columns) before it
    are fixed; ``gap`` is how far the bracket falls short."""
    return ReconstructionError(
        f"target {name} is out of reach given the margins and the {solved} solved before it",
        gap,
    )


def _as_g_or_c(margin, gamma, logit, axis):
    """(margin, gamma, reversed, continuation) for a G, C or R margin on
    ``axis`` of gamma: an R margin is a C margin on the reversed axis, with
    gamma negated."""
    cont = logit is not LogitType.GLOBAL
    if logit is LogitType.REVERSE:
        return margin[::-1], -np.flip(gamma, axis), True, cont
    return margin, gamma, False, cont


def _cut_events(margin, cont):
    """(lower, upper) event probabilities at each cut x = 1..I-1 of a G or C
    margin given as a list; ``cont`` is True for C."""
    return [
        (margin[x - 1] if cont else math.fsum(margin[:x]), math.fsum(margin[x:]))
        for x in range(1, len(margin))
    ]


def _column_sweep(rows, cols, gamma, pair, lam):
    """Table with margins ``rows``, ``cols`` and interactions ``gamma`` for a
    pair with one L margin, column cut by column cut.

    The L margin is taken as the rows (the other pairs are transposed) and
    an R column margin as a C margin on the reversed axis, with gamma
    negated.  At cut j, ``_column_root`` finds z_i = logit(t_i / T_i),
    where t_i = P(lower event | X = i) and T_i is 1 for G columns and
    P(Y >= j - 1 | X = i) for C columns, kept as a log and carried from
    column to column.  A C cell is r_i T_i expit(z_i), and a G cell the
    difference of two neighbouring columns' expit(z_i), formed from their
    z difference without cancellation.
    """
    transpose = pair[0] is not LogitType.LOCAL
    other = pair[0] if transpose else pair[1]
    gamma = np.asarray(gamma, dtype=np.float64)
    if transpose:
        rows, cols, gamma = cols, rows, gamma.T
    cols, gamma, flip, cont = _as_g_or_c(cols, gamma, other, 1)
    i1, i2 = rows.size, cols.size
    gcols = gamma.T.tolist()
    rows = rows.tolist()
    log_mass = [0.0] * i1
    cells = [[0.0] * i2 for _ in range(i1)]
    zs, names = [], []
    for j, (c0, c1) in enumerate(_cut_events(cols.tolist(), cont), start=1):
        col = i2 - 1 - j if flip else j - 1
        name = f"gamma[{col}, :]" if transpose else f"gamma[:, {col}]"
        names.append(name)
        z = _column_root(log_mass, rows, gcols[j - 1], c0, c1, lam, name)
        if cont:
            for i in range(i1):
                _, _, lsp, lsm = _logistic(z[i])
                cells[i][j - 1] = rows[i] * math.exp(log_mass[i] + lsp)
                log_mass[i] += lsm
        else:
            zs.append(z)
    for i in range(i1):
        if cont:
            cells[i][-1] = rows[i] * math.exp(log_mass[i])
            continue
        # expit(a) - expit(b) = expit(a) expit(-b) (1 - e^(b - a))
        zi = [z[i] for z in zs]
        cells[i][0] = rows[i] * _expit(zi[0])
        for j in range(1, i2 - 1):
            try:
                factor = -math.expm1(zi[j - 1] - zi[j])
            except OverflowError:  # the cell would be far below 0
                raise _out_of_reach(names[j], "columns", zi[j - 1] - zi[j]) from None
            cells[i][j] = rows[i] * _expit(zi[j]) * _expit(-zi[j - 1]) * factor
        cells[i][-1] = rows[i] * _expit(-zi[-1])
    pi = np.array(cells)
    if flip:
        pi = pi[:, ::-1]
    return pi.T if transpose else pi


def _ll_solve(rows, cols, gamma, lam):
    """Table with margins ``rows``, ``cols`` and interactions ``gamma`` for
    the LL pair.

    With a_ij = pi_ij / (r_i c_j), F(a_ij) = y_ij = Gamma_ij + alpha_i +
    beta_j, where Gamma is the double running sum of gamma; the margins fix
    alpha and beta up to one gauge (beta_0 = 0).  These are the optimality
    conditions of the convex problem: minimize sum r_i c_j (Phi(a_ij) -
    Gamma_ij a_ij), with Phi' = F, subject to the margins.  Newton steps
    move the cells a and the multipliers y together (infeasible-start
    Newton, Boyd and Vandenberghe sec. 10.3), so a cell near F's edge is
    never read off a steep F^-1.  A step is shortened so that no y_ij moves
    by more than max(1, |y_ij|), and a cell whose equation F(a) = y cannot
    yet be met (y below F(0+) = -1/lam) shrinks tenfold instead of turning
    negative while the multipliers move on.  y is updated in place, so a
    large alpha_i that cancels against a large Gamma_ij costs no precision
    in a moderate y_ij.  The iteration stops once a full step is below
    1e-10.  A target is out of reach when the equations cannot be met with
    every cell positive (possible only for lam > 0): a multiplier stays
    past F's edge and squeezes its cell toward 0, and the error names it.
    """
    i1, i2 = rows.size, cols.size
    weight = np.outer(rows, cols)
    y = np.zeros((i1, i2))
    y[1:, 1:] = np.cumsum(np.cumsum(gamma, axis=0), axis=1)
    # first-order start (F(a) ~ a - 1), moved row by row into F's domain,
    # with a = F^-1(y)
    y += (rows @ y @ cols - rows @ y) - (y @ cols)[:, None]
    if lam == 0.0:
        a = np.exp(y)
    else:
        y += np.maximum(0.0, 0.5 - (lam * y + 1.0).min(axis=1, keepdims=True)) / lam
        a = (lam * y + 1.0) ** (1.0 / lam)

    def residual(a, y):
        # (F(a) - y, row and column margin errors, 1 / F'(a))
        if lam == 0.0:
            return np.log(a) - y, a @ cols - 1.0, rows @ a - 1.0, a
        power = a**lam
        return (power - 1.0) / lam - y, a @ cols - 1.0, rows @ a - 1.0, a / power

    cur = residual(a, y)
    n = i1 + i2 - 1
    for _ in range(_ROOT_STEPS):
        e1, er, ec, g = cur
        w = weight * g
        we = w * e1
        hess = np.zeros((n, n))
        hess[:i1, :i1] = np.diag(w.sum(axis=1))
        hess[i1:, i1:] = np.diag(w.sum(axis=0)[1:])
        hess[:i1, i1:] = w[:, 1:]
        hess[i1:, :i1] = w[:, 1:].T
        rhs = np.concatenate([we.sum(axis=1) - rows * er, (we.sum(axis=0) - cols * ec)[1:]])
        try:
            step = np.linalg.solve(hess, rhs)
        except np.linalg.LinAlgError:
            break
        dy = step[:i1, None] + np.concatenate([[0.0], step[i1:]])
        da = g * (dy - e1)
        if np.abs(da / a).max() <= 1e-10 and np.abs(dy).max() <= 1e-10 * max(1.0, np.abs(y).max()):
            a, y = a + da, y + dy
            cur = residual(a, y)
            break
        t = min(1.0, float((np.maximum(1.0, np.abs(y)) / np.maximum(np.abs(dy), 1e-300)).min()))
        a, y = np.maximum(a + t * da, 0.1 * a), y + t * dy
        cur = residual(a, y)
        if lam > 0.0 and a.min() < 1e-15 and (lam * y + 1.0).min() < 0.0:
            break  # a cell squeezed to 0 by a multiplier past F's edge
    e1, er, ec = cur[:3]
    err = max(np.abs(er).max(), np.abs(ec).max(), np.abs(e1).max())
    if not err <= _RECONSTRUCT_TOL:
        r, c = np.unravel_index(np.argmin(a if lam <= 0.0 else lam * y), a.shape)
        raise ReconstructionError(
            f"target drives cell pi[{r}, {c}] to 0 before the margins are met",
            math.inf if math.isnan(err) else err,
        )
    return weight * a


def _pair_sum(*terms):
    """Sum of ``terms`` as an unevaluated pair hi + lo: hi is the correctly
    rounded sum and lo the correctly rounded remainder."""
    hi = math.fsum(terms)
    return hi, math.fsum(terms + (-hi,))


def _second_difference(a, b, c, d):
    """a - b - c + d for pairs, correctly rounded to one float."""
    return math.fsum((a[0], a[1], -b[0], -b[1], -c[0], -c[1], d[0], d[1]))


def _survival_scan(rows, cols, gamma, pair, lam):
    """Table with margins ``rows``, ``cols`` and interactions ``gamma`` for a
    pair in {G, C, R}^2, by one root per cut of S(x, y) = P(X >= x, Y >= y).

    Every S is kept as a pair hi + lo from ``_pair_sum``, about twice the
    precision of one float, and every difference of S values is taken by
    ``math.fsum``, so each quadrant and cell keeps its relative precision
    however small it is next to the S values around it.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    rows, gamma, flip_rows, cont_rows = _as_g_or_c(rows, gamma, pair[0], 0)
    cols, gamma, flip_cols, cont_cols = _as_g_or_c(cols, gamma, pair[1], 1)
    i1, i2 = rows.size, cols.size
    rows, cols, gamma = rows.tolist(), cols.tolist(), gamma.tolist()
    row_events, col_events = _cut_events(rows, cont_rows), _cut_events(cols, cont_cols)
    # s[x][y] for x < I1, y < I2; row 0 and column 0 are the marginal survivals
    s = [[_pair_sum(*rows[x:])] + [None] * (i2 - 1) for x in range(i1)]
    s[0][1:] = [_pair_sum(*cols[y:]) for y in range(1, i2)]
    for x in range(1, i1):
        a = x - 1 if cont_rows else 0
        r0, r1 = row_events[x - 1]
        for y in range(1, i2):
            b = y - 1 if cont_cols else 0
            c0, c1 = col_events[y - 1]
            # the cut's gamma entry in the caller's orientation, for errors
            name = f"gamma[{i1 - 1 - x if flip_rows else x - 1}, {i2 - 1 - y if flip_cols else y - 1}]"
            weights = (r0 * c0, r0 * c1, r1 * c0, r1 * c1)
            s[x][y] = _cut_root(s[a][b], s[a][y], s[x][b], weights, gamma[x - 1][y - 1], lam, name)
    # cells are second differences of S, with S = 0 past the last row and column
    zero = (0.0, 0.0)
    ext = [row + [zero] for row in s] + [[zero] * (i2 + 1)]
    pi = np.array([
        [_second_difference(ext[r][c], ext[r][c + 1], ext[r + 1][c], ext[r + 1][c + 1])
         for c in range(i2)]
        for r in range(i1)
    ])
    return pi[:: -1 if flip_rows else 1, :: -1 if flip_cols else 1]


def _plackett(psi, row, col, diff):
    """Cell q of a 2x2 table with q (diff + q) = psi (row - q)(col - q).

    ``row`` and ``col`` are the totals of q's row and column and ``diff``
    is the opposite cell minus q; the feasible root, taken without
    cancellation.  A discriminant that rounds below 0 at a double root
    counts as 0.
    """
    b = diff + psi * (row + col)
    root = math.sqrt(max(0.0, b * b + 4.0 * (1.0 - psi) * psi * row * col))
    if b > 0.0:
        return 2.0 * psi * row * col / (b + root)
    return (root - b) / (2.0 * (1.0 - psi))


def _cut_root(sab, say, sxb, weights, target, lam, name):
    """S(x, y) at one cut, as a ``_pair_sum`` pair, from the S values before it.

    The quadrants are p00 = S(a, b) - S(a, y) - S(x, b) + s, p01 = S(a, y) - s,
    p10 = S(x, b) - s and p11 = s, and ``weights`` holds the matching
    products of marginal event probabilities.  The root is sought in the
    coordinate q of the smallest quadrant at the Plackett start (odds ratio
    e^gamma, exact at lam = 0), where the other three are q's row total
    minus q, its column total minus q, and q plus a constant, each formed
    without cancellation.  Safeguarded Newton steps in log q keep q inside
    the bracket where all four quadrants are positive; gamma rises with q
    when q is p00 or p11 and falls otherwise.  ``name`` names the cut's
    gamma entry in the error raised when the bracket holds no root, whose
    gap is the least |gamma - target| the bracket reaches.
    """
    # quadrants are indexed 2u + v, so q's row mate is m ^ 1, its column
    # mate m ^ 2 and its opposite m ^ 3
    row_lower = math.fsum((sab[0], sab[1], -sxb[0], -sxb[1]))  # p00 + p01
    col_lower = math.fsum((sab[0], sab[1], -say[0], -say[1]))  # p00 + p10
    diag = math.fsum((say[0], say[1], sxb[0], sxb[1], -sab[0], -sab[1]))  # p11 - p00
    psi = math.exp(max(-50.0, min(50.0, target)))
    q = _plackett(psi, row_lower, col_lower, diag)
    start = (q, row_lower - q, col_lower - q, diag + q)
    m = start.index(min(start))
    sign = 1.0 if m in (0, 3) else -1.0
    row_t = row_lower if m < 2 else sxb[0] + sxb[1]
    col_t = col_lower if m % 2 == 0 else say[0] + say[1]
    if m == 0:
        diff = diag
    else:
        # the opposite quadrant minus q: p00 - p11, or p10 - p01 = -anti for q = p01
        anti = math.fsum((say[0], say[1], -sxb[0], -sxb[1])) if m < 3 else 0.0
        diff = (diag, -anti, anti, -diag)[m]
        q = _plackett(psi**sign, row_t, col_t, diff)
    w_m, w_r, w_c, w_o = weights[m], weights[m ^ 1], weights[m ^ 2], weights[m ^ 3]
    goal = sign * target

    if lam == 0.0:
        offset = math.log(w_r * w_c / (w_m * w_o)) - goal

        def value(q):
            # gamma - target in the orientation of q, and its derivative in log q
            a, b, o = row_t - q, col_t - q, diff + q
            return math.log(q / a) + math.log(o / b) + offset, 1.0 + q / a + q / b + q / o

    else:

        def value(q):
            a, b, o = row_t - q, col_t - q, diff + q
            tq, ta, tb, to = (q / w_m) ** lam, (a / w_r) ** lam, (b / w_c) ** lam, (o / w_o) ** lam
            return (tq - ta - tb + to) / lam - goal, tq + q * (ta / a + tb / b + to / o)

        def edge(q):
            # value at a bracket end, where one or two quadrants are 0
            a, b, o = max(row_t - q, 0.0), max(col_t - q, 0.0), max(diff + q, 0.0)
            tq, ta, tb, to = (q / w_m) ** lam, (a / w_r) ** lam, (b / w_c) ** lam, (o / w_o) ** lam
            return (tq - ta - tb + to) / lam - goal

    lo, hi = max(0.0, -diff), min(row_t, col_t)
    if not lo < hi:
        raise _out_of_reach(name, "cuts", math.inf)
    if lam > 0.0:
        # F(0+) = -1/lam is finite, so the bracket may hold no sign change
        at_lo, at_hi = edge(lo), edge(hi)
        if at_lo >= 0.0:
            raise _out_of_reach(name, "cuts", at_lo)
        if at_hi <= 0.0:
            raise _out_of_reach(name, "cuts", -at_hi)
    if not lo < q < hi:
        q = 0.5 * (lo + hi)
    for _ in range(_ROOT_STEPS):
        v, slope = value(q)
        if v < 0.0:
            lo = q
        elif v > 0.0:
            hi = q
        else:
            break
        step = v / slope
        nxt = q * math.exp(min(-step, 30.0))
        if abs(step) <= 1e-12:
            if lo <= nxt <= hi:
                q = nxt
            break
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if hi - lo <= 4.0 * math.ulp(hi):
            break
        q = nxt
    if m == 3:
        return q, 0.0
    if m == 0:
        return _pair_sum(*say, *sxb, -sab[0], -sab[1], q)
    return _pair_sum(*(sxb if m == 2 else say), -q)


# ---------------------------------------------------------------------------
# dependence
# ---------------------------------------------------------------------------

_SIGN_TOL = 1e-10


@dataclass(frozen=True)
class PairDependence:
    """Minima and nonnegativity flags of gamma and eta for one logit pair."""

    pair: tuple[LogitType, LogitType]
    min_gamma: float
    min_eta: float
    gamma_nonneg: bool
    eta_nonneg: bool


@dataclass(frozen=True)
class DependenceReport:
    """Positive-dependence summary of one table.

    ``simple_stochastic_order`` compares each row's conditional survival
    with the next row's; ``collapsed_survival_order`` compares it with the
    survival of all rows above pooled, the weaker ordering that nonnegative
    continuation-continuation interactions actually guarantee.
    """

    simple_stochastic_order: bool
    quadrant_dependence: bool
    collapsed_survival_order: bool
    violations: tuple
    pairs: tuple
    conditional_cumulative: np.ndarray


def row_conditional_cumulative(pi):
    """Cumulative conditional distributions by row, columns 1..I2-1."""
    pi = _probs(pi)
    cond = pi / pi.sum(axis=1, keepdims=True)
    return np.cumsum(cond, axis=1)[:, :-1]


def _implied(premise, claim, conclusions):
    return tuple(
        (("gamma", premise), ("eta", c), f"{claim}: eta({c}) violates") for c in conclusions
    )


# (premise, conclusion, message) of each audited implication, in report
# order.  A term is a (measure, pair) whose least entry must be >= 0, or a
# survival-order flag of the report.
_AUDIT = (
    *(
        (("gamma", p), ("eta", p), f"gamma({p}) >= 0 but eta({p}) has a negative entry")
        for p in ("LG", "GL", "GG", "GC", "GR", "CG", "RG")
    ),
    *_implied("LL", "gamma(LL) >= 0 implies eta(LG) >= 0 and eta(GL) >= 0", ("LG", "GL")),
    *_implied("LC", "gamma(LC) >= 0 implies eta(LG) >= 0 and eta(GG) >= 0", ("LG", "GG")),
    *_implied("CC", "gamma(CC) >= 0 implies eta(GG) >= 0", ("GG",)),
    (
        ("eta", "LG"),
        "simple_stochastic_order",
        "eta(LG) >= 0 but row-conditional survival order fails",
    ),
    (
        ("gamma", "CC"),
        "collapsed_survival_order",
        "gamma(CC) >= 0 but pooled-upper-row survival comparison fails",
    ),
)


def dependence_report(pi, fam=None, pairs=(("G", "G"),)):
    """Dependence summary: per-pair minima, order relations, implication audit.

    Quadrant dependence, P(Y > j | X > i) >= P(Y > j | X <= i) at every cut,
    is the sign of the GG log-odds ratios.  The audit checks every rule of
    ``_AUDIT``, whatever ``pairs`` holds.  The per-row survival order is
    reported as a flag but is not a consequence of nonnegative CC
    interactions: tables exist with every CC interaction positive whose
    row-wise survivals are not monotone.
    """
    fam = fam or kl()
    table = pi if isinstance(pi, ContingencyTable) else ContingencyTable.from_probabilities(pi)

    @functools.cache
    def least(measure, pair):
        # the smallest entry of gamma or eta for a pair such as "GG"
        matrix = gamma_matrix(table, *pair, fam) if measure == "gamma" else lor_matrix(table, *pair)
        return float(matrix.values.min())

    entries = []
    for l1, l2 in pairs:
        pair = (LogitType.parse(l1), LogitType.parse(l2))
        g, e = least("gamma", pair[0] + pair[1]), least("eta", pair[0] + pair[1])
        entries.append(PairDependence(pair, g, e, g >= -_SIGN_TOL, e >= -_SIGN_TOL))
    cum = row_conditional_cumulative(table)
    surv = 1.0 - cum  # surv[i, j] = P(col > j | row = i)
    # row i against the rows after it pooled, from a reverse cumulative sum
    pooled = 1.0 - row_conditional_cumulative(np.cumsum(table.probs[::-1], axis=0)[-2::-1])
    flags = {
        "simple_stochastic_order": bool(np.all(np.diff(surv, axis=0) >= -_SIGN_TOL)),
        "collapsed_survival_order": not np.any(surv[:-1] - pooled > _SIGN_TOL),
    }

    def holds(term):
        return flags[term] if isinstance(term, str) else least(*term) >= -_SIGN_TOL

    return DependenceReport(
        **flags,
        quadrant_dependence=holds(("eta", "GG")),
        violations=tuple(msg for cause, effect, msg in _AUDIT if holds(cause) and not holds(effect)),
        pairs=tuple(entries),
        conditional_cumulative=cum,
    )


# ---------------------------------------------------------------------------
# built-in counterexamples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of recomputing one built-in counterexample table."""

    name: str
    pair: tuple[LogitType, LogitType]
    lam: float
    pi: np.ndarray
    gamma: np.ndarray
    eta: np.ndarray
    reference_gamma: np.ndarray
    reference_eta: np.ndarray | None
    gamma_claim_ok: bool
    eta_claim_ok: bool

    @property
    def passed(self):
        return self.gamma_claim_ok and self.eta_claim_ok


_COUNTEREXAMPLES = {
    "ll": dict(
        pair=("L", "L"),
        lam=7.0,
        pi=[[0.1444, 0.1018, 0.0939], [0.0979, 0.1117, 0.1175], [0.0914, 0.1178, 0.1236]],
        ref_gamma=[[0.8100, 0.0900], [0.0810, 0.0090]],
        # the reported eta values for this case duplicate the LC case and are
        # inconsistent with the table itself, so no reference is kept
        ref_eta=None,
    ),
    "lc": dict(
        pair=("L", "C"),
        lam=5.0,
        pi=[[0.1418, 0.1064, 0.0355], [0.1773, 0.1418, 0.1064], [0.1064, 0.1064, 0.0780]],
        ref_gamma=[[0.3839, 0.4860], [0.1980, 0.0740]],
        ref_eta=[[0.3365, 0.8109], [0.2136, -0.0225]],
    ),
    "cc": dict(
        pair=("C", "C"),
        lam=16.0,
        pi=[[0.1695, 0.0847, 0.0847], [0.1525, 0.0678, 0.0847], [0.1695, 0.0847, 0.1017]],
        ref_gamma=[[0.0518, 0.2042], [0.0973, 0.0082]],
        ref_eta=[[0.0513, 0.2007], [0.0953, -0.0408]],
    ),
}


def counterexample_names():
    return tuple(_COUNTEREXAMPLES)


def counterexample_verify(which):
    """Recompute one built-in table where gamma >= 0 yet eta dips negative.

    The verifier asserts min gamma >= 0 and min eta < 0 for the pair and
    scale the table was designed for, and carries the previously reported
    matrices for comparison.
    """
    key = str(which).strip().lower()
    if key not in _COUNTEREXAMPLES:
        raise ValueError(f"unknown counterexample {which!r}; choose from {sorted(_COUNTEREXAMPLES)}")
    info = _COUNTEREXAMPLES[key]
    table = ContingencyTable.from_probabilities(
        info["pi"], info["pair"][0], info["pair"][1], normalize=True
    )
    fam = cressie_read(info["lam"])
    g = gamma_matrix(table, fam=fam).values
    e = lor_matrix(table).values
    return VerificationRecord(
        name=key,
        pair=(table.row_logit, table.col_logit),
        lam=info["lam"],
        pi=table.probs.copy(),
        gamma=g,
        eta=e,
        reference_gamma=np.asarray(info["ref_gamma"], dtype=np.float64),
        reference_eta=None if info["ref_eta"] is None else np.asarray(info["ref_eta"], dtype=np.float64),
        gamma_claim_ok=bool(g.min() >= 0.0),
        eta_claim_ok=bool(e.min() < 0.0),
    )


# ---------------------------------------------------------------------------
# randomized table collection for the implication suites
# ---------------------------------------------------------------------------


def _proposals(rng, shape, batch):
    """A (batch, I1, I2) stack of random tables biased toward (but not
    confined to) positive dependence.

    Independent Dirichlet margins, tilted by exp(a * s_i t_j) with
    increasing latent scores s, t and a random strength a >= 0, then
    roughened with multiplicative log-normal noise of scale sigma.  Plain
    Dirichlet rejection is hopeless for the larger shapes (the
    all-nonnegative-gamma region has vanishing mass), while this proposal
    keeps a workable acceptance rate and, thanks to the noise, still lands
    near the gamma = 0 boundary.
    """
    i1, i2 = shape
    rows = rng.dirichlet(np.ones(i1), size=batch)
    cols = rng.dirichlet(np.ones(i2), size=batch)
    s = np.cumsum(rng.uniform(0.2, 1.0, size=(batch, i1)), axis=1)
    t = np.cumsum(rng.uniform(0.2, 1.0, size=(batch, i2)), axis=1)
    s -= s.mean(axis=1, keepdims=True)
    t -= t.mean(axis=1, keepdims=True)
    a = rng.uniform(0.0, 3.0, size=batch)[:, None, None]
    sigma = rng.uniform(0.0, 0.25, size=batch)[:, None, None]
    pis = rows[:, :, None] * cols[:, None, :] * np.exp(a * s[:, :, None] * t[:, None, :])
    pis *= np.exp(sigma * rng.standard_normal(size=(batch, i1, i2)))
    return pis / pis.sum(axis=(1, 2), keepdims=True)


# the collector draws, builds and scores proposals in stacks of _BATCH (stacks
# of 1,024 made the typical call slower), and gives up after _MAX_BATCHES
# stacks (8,192,000 proposals)
_BATCH = 512
_MAX_BATCHES = 16_000


def collect_nonnegative_gamma_tables(rng, shape, pair, fam, count):
    """Rejection-sampled tables with all-nonnegative gamma for a pair.

    Returns an array (count, I1, I2).  Every returned table passes the
    exact filter min gamma >= 0; the proposal distribution only affects
    the acceptance rate.  Proposals are drawn, built and filtered in stacks
    of ``_BATCH``, and the accepted ones are kept in order until ``count``
    are held, so ``rng`` ends after the last stack that was drawn.  Raises
    ValueError, before any draw, unless ``count`` is an integer >= 1 and
    both dimensions are >= 2, and RuntimeError when ``count`` tables cannot
    be collected within ``_MAX_BATCHES`` stacks.
    """
    i1, i2 = shape
    if not (isinstance(count, (int, np.integer)) and count >= 1 and min(i1, i2) >= 2):
        raise ValueError(
            "need an integer count >= 1 and both dimensions >= 2, "
            f"got count={count!r}, shape={shape!r}"
        )
    keep = []
    have = 0
    for _ in range(_MAX_BATCHES):
        tables = _proposals(rng, shape, _BATCH)
        ok = np.all(gamma_matrix_batch(tables, pair[0], pair[1], fam) >= 0.0, axis=(1, 2))
        keep.append(tables[ok])
        have += int(ok.sum())
        if have >= count:
            return np.concatenate(keep)[:count]
    raise RuntimeError(
        f"could not collect {count} gamma-nonnegative {i1}x{i2} tables for pair {pair}: "
        f"kept {have} of {_MAX_BATCHES * _BATCH} proposals drawn"
    )
