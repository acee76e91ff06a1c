"""Post-fit analysis: association scores, correlation, table reconstruction,
and positive-dependence reports.

The score decomposition inverts the rank-K representation

    gamma[i, j] = sum_k psi_k (mu[k, i+1] - mu[k, i]) (nu[k, j+1] - nu[k, j])

via an SVD of the interaction matrix: singular vectors are score increments,
integrated to scores and standardized to weighted mean 0 / variance 1 under
the table marginals, with the scale folded into psi.  ``reconstruct`` goes
the other way, recovering the unique joint table carrying given marginal
logits and a given interaction matrix.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .divergence import DivergenceFamily, cressie_read, kl
from .estimation import ModelSpec, _Workspace, theta_from_prob
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
    """Newton reconstruction failed to reach the target invariants."""

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

    def gamma_values(self):
        """Interaction matrix implied by the decomposition."""
        dmu = np.diff(self.mu, axis=1)
        dnu = np.diff(self.nu, axis=1)
        return np.einsum("k,ki,kj->ij", self.psi, dmu, dnu)


def _weights_of(table_or_pi):
    if isinstance(table_or_pi, ContingencyTable):
        pi = table_or_pi.probs
    else:
        pi = np.asarray(table_or_pi, dtype=np.float64)
    return pi.sum(axis=1), pi.sum(axis=0)


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
    rowm, colm = _weights_of(table)
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
    pi = pi.probs if isinstance(pi, ContingencyTable) else np.asarray(pi, dtype=np.float64)
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
    """Probability vector whose marginal logits equal ``values``."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    lt = LogitType.parse(logit_type)
    size = values.shape[0] + 1
    e = np.exp(values)
    if lt is LogitType.LOCAL:
        m = np.concatenate(([1.0], np.cumprod(e)))
    elif lt is LogitType.GLOBAL:
        surv = np.concatenate(([1.0], e / (1.0 + e), [0.0]))  # P(> i), i = 0..size
        m = -np.diff(surv)
    elif lt is LogitType.CONTINUATION:
        m = np.empty(size)
        surv = 1.0
        for i in range(size - 1):
            m[i] = surv / (1.0 + e[i])
            surv -= m[i]
        m[-1] = surv
    else:  # REVERSE
        m = np.empty(size)
        m[0] = 1.0
        below = 1.0
        for i in range(size - 1):
            m[i + 1] = below * e[i]
            below += m[i + 1]
        m /= below
    total = m.sum()
    if not np.isfinite(total) or total <= 0 or np.any(m <= 0):
        raise ValueError("logit values do not define a proper positive margin")
    return m / total


def extract_invariants(table, l1=None, l2=None, fam=None):
    """(row logits, column logits, gamma) of a table; reconstruct's inverse."""
    rows, cols = table_logits(table, l1, l2)
    g = gamma_matrix(table, l1, l2, fam)
    return rows, cols, g


def reconstruct(row_logits, col_logits, gamma_target, fam=None, tol=1e-9, max_iter=200):
    """The unique table with given marginal logits and interaction matrix.

    Newton iteration on the canonical parameters solving the exactly
    determined system {row logits, column logits, vec gamma} = targets,
    started from the independence table with the target marginals.  When
    the direct solve fails on a strongly associated target, the
    interaction block is ramped up from zero in warm-started stages.
    Raises ReconstructionError (with the final residual) when the target
    is not attainable, e.g. outside the link domain of the family.
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
    pair = (row_logits.logit_type, col_logits.logit_type)
    spec = ModelSpec(pair=pair, family=fam, rank=0)
    marginal_part = np.concatenate([row_logits.values, col_logits.values])
    gamma_part = g_target.ravel()

    start = np.outer(
        margin_from_logits(row_logits.values, pair[0]),
        margin_from_logits(col_logits.values, pair[1]),
    )
    theta0 = theta_from_prob(start)

    def newton(theta_init, scale):
        target = np.concatenate([marginal_part, scale * gamma_part])

        def residual_ws(th):
            # trial points may step outside the link domain; the resulting
            # non-finite residuals are rejected by the caller, so suppress
            # the numpy warnings they would otherwise emit
            with np.errstate(all="ignore"):
                ws = _Workspace(th, spec, (i1, i2))
                r = np.concatenate([ws.eta_row, ws.eta_col, ws.gamma.ravel()]) - target
            return r, ws

        res, ws = residual_ws(theta_init)
        norm = float(np.abs(res).max())
        sq = float(res @ res)
        n_par = ws.theta.size
        mu = 0.0
        for _ in range(max_iter):
            if norm <= tol:
                return ws
            jac = (
                np.vstack([ws.eta_row_jac_pi, ws.eta_col_jac_pi, ws.gamma_jac_pi])
                @ ws.dpi_dtheta
            )
            # pure Newton while it makes progress; on rejection escalate a
            # Levenberg-Marquardt ridge, which both turns the step toward
            # steepest descent and shortens it (so boundary blow-ups heal
            # without a separate line search)
            while True:
                try:
                    if mu == 0.0:
                        step = np.linalg.solve(jac, -res)
                    else:
                        jtj = jac.T @ jac
                        ridge = mu * max(np.trace(jtj) / n_par, np.finfo(float).tiny)
                        step = np.linalg.solve(
                            jtj + ridge * np.eye(n_par), -(jac.T @ res)
                        )
                except np.linalg.LinAlgError:
                    step = None
                trial_sq = np.inf
                if step is not None:
                    try:
                        trial_res, trial_ws = residual_ws(ws.theta + step)
                        trial_sq = float(trial_res @ trial_res)
                    except (FloatingPointError, ZeroDivisionError):
                        trial_sq = np.inf
                if np.isfinite(trial_sq) and trial_sq < sq:
                    res, ws, sq = trial_res, trial_ws, trial_sq
                    norm = float(np.abs(res).max())
                    mu = 0.0 if mu < 1e-10 else mu / 8.0
                    break
                mu = 1e-6 if mu == 0.0 else 10.0 * mu
                if mu > 1e14:
                    raise ReconstructionError("reconstruction stalled", norm)
        if norm <= tol:
            return ws
        raise ReconstructionError("reconstruction did not converge", norm)

    try:
        return newton(theta0, 1.0).pi2d.copy()
    except ReconstructionError as err:
        failure = err

    # Continuation: scale the interaction target up from the independence
    # solution in warm-started stages, halving the increment when a stage
    # fails.  Targets whose Newton basin excludes the independence start
    # are usually reachable along this path; genuinely unattainable ones
    # still fail at the increment floor with the latest residual attached.
    theta = theta0
    reached = 0.0
    increment = 0.25
    for _ in range(200):
        stage = min(1.0, reached + increment)
        try:
            ws = newton(theta, stage)
        except ReconstructionError as err:
            failure = err
            increment *= 0.5
            if increment < 1.0 / 64.0:
                raise failure
            continue
        theta = ws.theta
        reached = stage
        if reached >= 1.0:
            return ws.pi2d.copy()
        increment = min(0.25, 2.0 * increment)
    raise failure


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

    pairs: tuple
    simple_stochastic_order: bool
    quadrant_dependence: bool
    collapsed_survival_order: bool
    violations: tuple
    conditional_cumulative: np.ndarray


def row_conditional_cumulative(pi):
    """Cumulative conditional distributions by row, columns 1..I2-1."""
    pi = pi.probs if isinstance(pi, ContingencyTable) else np.asarray(pi, dtype=np.float64)
    cond = pi / pi.sum(axis=1, keepdims=True)
    return np.cumsum(cond, axis=1)[:, :-1]


def _order_flags(pi):
    cum = row_conditional_cumulative(pi)
    surv = 1.0 - cum  # s[i, j] = P(col > j | row = i)
    sso = bool(np.all(np.diff(surv, axis=0) >= -_SIGN_TOL))
    collapsed = True
    for i in range(pi.shape[0] - 1):
        upper = pi[i + 1 :].sum(axis=0)
        s_up = 1.0 - np.cumsum(upper / upper.sum())[:-1]
        if np.any(surv[i] - s_up > _SIGN_TOL):
            collapsed = False
            break
    # global-logit quadrants: P(col > j | row > i) against P(col > j | row <= i)
    p, p_row, _ = kernels.quadrant_values(pi, kernels.LOGIT_G, kernels.LOGIT_G)
    s1 = p[1, :, 1, :] / p_row[1][:, None]
    s0 = p[0, :, 1, :] / p_row[0][:, None]
    qd = bool(np.all(s1 - s0 >= -_SIGN_TOL))
    return sso, qd, collapsed, cum


_IMPLICATIONS = (
    # (name, premise pair, conclusion pairs checked on eta)
    ("gamma(LL) >= 0 implies eta(LG) >= 0 and eta(GL) >= 0", ("L", "L"), (("L", "G"), ("G", "L"))),
    ("gamma(LC) >= 0 implies eta(LG) >= 0 and eta(GG) >= 0", ("L", "C"), (("L", "G"), ("G", "G"))),
    ("gamma(CC) >= 0 implies eta(GG) >= 0", ("C", "C"), (("G", "G"),)),
)


def _pairs_with_global():
    out = []
    for a in "LGCR":
        for b in "LGCR":
            if "G" in (a, b):
                out.append((a, b))
    return tuple(out)


def dependence_report(pi, fam=None, pairs=(("G", "G"),)):
    """Dependence summary: per-pair minima, order relations, implication audit.

    The audit always covers the implications relating nonnegative scaled
    interactions to nonnegative log-odds ratios (any pair containing a
    global logit; LL to LG/GL; LC to LG/GG; CC to GG), the equivalence of
    nonnegative LG log-odds ratios with the simple stochastic order, and
    the pooled-upper-row survival comparison guaranteed by nonnegative CC
    interactions, regardless of ``pairs``.  The per-row survival order
    itself is reported as a flag but is not a consequence of nonnegative
    CC interactions: tables exist with every CC interaction positive whose
    row-wise survivals are not monotone.
    """
    fam = fam or kl()
    table = pi if isinstance(pi, ContingencyTable) else ContingencyTable.from_probabilities(pi)
    entries = []
    for l1, l2 in pairs:
        g = gamma_matrix(table, l1, l2, fam).values
        e = lor_matrix(table, l1, l2).values
        entries.append(
            PairDependence(
                pair=(LogitType.parse(l1), LogitType.parse(l2)),
                min_gamma=float(g.min()),
                min_eta=float(e.min()),
                gamma_nonneg=bool(g.min() >= -_SIGN_TOL),
                eta_nonneg=bool(e.min() >= -_SIGN_TOL),
            )
        )
    sso, qd, collapsed, cum = _order_flags(table.probs)
    violations = []
    for l1, l2 in _pairs_with_global():
        if gamma_matrix(table, l1, l2, fam).values.min() >= -_SIGN_TOL:
            if lor_matrix(table, l1, l2).values.min() < -_SIGN_TOL:
                violations.append(
                    f"gamma({l1}{l2}) >= 0 but eta({l1}{l2}) has a negative entry"
                )
    for name, premise, conclusions in _IMPLICATIONS:
        if gamma_matrix(table, *premise, fam).values.min() >= -_SIGN_TOL:
            for concl in conclusions:
                if lor_matrix(table, *concl).values.min() < -_SIGN_TOL:
                    violations.append(f"{name}: eta({concl[0]}{concl[1]}) violates")
    if lor_matrix(table, "L", "G").values.min() >= -_SIGN_TOL and not sso:
        violations.append("eta(LG) >= 0 but row-conditional survival order fails")
    if gamma_matrix(table, "C", "C", fam).values.min() >= -_SIGN_TOL and not collapsed:
        violations.append("gamma(CC) >= 0 but pooled-upper-row survival comparison fails")
    return DependenceReport(
        pairs=tuple(entries),
        simple_stochastic_order=sso,
        quadrant_dependence=qd,
        collapsed_survival_order=collapsed,
        violations=tuple(violations),
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


def _association_proposal(rng, shape, batch):
    """Random tables biased toward (but not confined to) positive dependence.

    Independent Dirichlet margins are tilted by exp(a * s_i t_j) with
    increasing latent scores and a random strength a >= 0, then roughened
    with multiplicative log-normal noise.  Plain Dirichlet rejection is
    hopeless for the larger shapes (the all-nonnegative-gamma region has
    vanishing mass), while this proposal keeps a workable acceptance rate
    and, thanks to the noise, still lands near the gamma = 0 boundary.
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
    noise = np.exp(sigma * rng.standard_normal(size=(batch, i1, i2)))
    pis = rows[:, :, None] * cols[:, None, :] * np.exp(a * s[:, :, None] * t[:, None, :])
    pis *= noise
    return pis / pis.sum(axis=(1, 2), keepdims=True)


def collect_nonnegative_gamma_tables(rng, shape, pair, fam, count, batch=4096, max_batches=2000):
    """Rejection-sampled tables with all-nonnegative gamma for a pair.

    Returns an array (count, I1, I2).  Every returned table passes the
    exact filter min gamma >= 0; the proposal distribution only affects
    the acceptance rate.  Raises RuntimeError when ``count`` tables cannot
    be collected within ``max_batches`` batches.
    """
    i1, i2 = shape
    keep = []
    have = 0
    for _ in range(max_batches):
        draws = _association_proposal(rng, shape, batch)
        gammas = gamma_matrix_batch(draws, pair[0], pair[1], fam)
        ok = np.all(gammas >= 0.0, axis=(1, 2))
        if np.any(ok):
            keep.append(draws[ok])
            have += int(ok.sum())
        if have >= count:
            return np.concatenate(keep)[:count]
    raise RuntimeError(
        f"could not collect {count} gamma-nonnegative {i1}x{i2} tables for pair {pair}"
    )
