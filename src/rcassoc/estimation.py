"""Constrained maximum likelihood by the Aitchison-Silvey regression method.

The model is a multinomial over the table cells, parametrized canonically
by the contrasts of each cell against the last, theta_i = log(pi_i / pi_last)
in row-major order, subject to the nonlinear constraint vector h(theta) = 0
stacking

* the rank-K deflation residual of the scaled interaction matrix, and
* optional linear restrictions A v = offset on the invariant vector
  v = [row marginal logits; column marginal logits; vec gamma].

Each iteration maximizes a quadratic approximation of the log-likelihood
subject to the linearized constraints.  With score s, information F,
constraint value h and constraint gradients H (columns are gradients), the
step is taken in the multiplier form of Aitchison & Silvey (1958), the form
Evans & Forcina (2013) use:

    lambda = G^-1 (H' F^-1 s + h),   G = H' F^-1 H,
    direction = F^-1 (s - H lambda).

On the first d = cells - 1 cells, F = n (diag(p) - p p') and
F^-1 w = (w / p + sum(w) / pi_last) / n in closed form, so F is never
formed or factorized.  The one factorization per iteration is a Q-free
pivoted QR of the (d + 1) x k matrix C H, where C'C = F^-1, built in one
buffer: it gives G = R'R, the rank (dependent constraint rows are
dropped), and the two triangular solves with R' and R for both right-hand
sides of lambda, by the LAPACK routine that ``cho_solve`` wraps; scipy
scans C H for non-finite entries before the QR, and R is computed from
it, so the solves scan nothing.  The direction solves H' direction = -h.
The stationarity test is on the multiplier residual s - H lambda0, with
lambda0 = G^-1 H' F^-1 s: the score that the constraint gradients leave
unexplained.  With no constraint rows (the saturated model) the step is
F^-1 s and no factorization runs.

Every jacobian is formed once, in theta: dpi/dtheta = (diag(pi) - pi pi')
without its last column, so a pi-jacobian J maps to column c
(J[:, c] - J pi) pi_c.  The rank residual is the Schur complement S of a
pivot block of gamma, so its jacobian is P' (d vec(gamma) / dtheta) Q, with
P' and Q built in the elimination that gives S (``rank``) and carried by
its plan: a workspace keeps the plan of its own gamma, searched or
replayed, and its jacobian reads P' and Q from that plan.

A line search on the exact l1 penalty merit
f(t) = y' log pi(t) / n - mu ||h(t)||_1 picks the step length (Han 1977;
Powell 1978; Nocedal & Wright, sec. 15.4 and 18.3).  As s' direction =
direction' F direction - lambda' h and H' direction = -h, f'(0) is at least
direction' F direction / n + (mu - ||lambda||_inf / n) ||h||_1, so each
iteration takes mu = max(previous mu, 2 ||lambda||_inf / n) and the step is
an ascent direction of f wherever the iterate is not stationary.  The
search tries the unit step first, as Nocedal & Wright (2006, sec. 3.5)
advise for Newton-type steps, and takes it when f(1) > f(0) and
f(1) - f(0) >= f'(0) / 4, that is when the quadratic through f(0), f'(0)
and f(1) peaks at t >= 2/3.  Otherwise it backtracks from that peak,
floored at t = 1/2, by halving (Dennis & Schnabel 1983, Alg. A6.3.1).  It
stops as soon as no step can gain: at once when f'(0) <= 0, and once the
predicted gain t f'(0) falls to a few ulps of max(1, |f(0)|); the fit then
ends.  Deflation pivots are frozen for one outer iteration so h stays
smooth along the search path.  A workspace computes the marginal logits
and the jacobians only when they are first read, so line-search trial
points, which need only h and the log-likelihood, never build them; the
accepted trial point's workspace, with the log-likelihood its merit
evaluation computed, is the next iteration's, so an iteration whose unit
step is taken builds one workspace.

The step leaves out the curvature M = sum_k lambda_k d2h_k of the
constraints, so F stands in for the Lagrangian hessian F + M and the
iteration converges only linearly.  When every count is positive and the
plain step shrank by less than a factor 0.3 since the previous iteration,
at most two steps of projected preconditioned CG (Nocedal & Wright 2006,
Alg. 16.2) correct it toward the Newton step of the Lagrangian: CG runs on
s'e - e'(F + M)e / 2 over {H1' e = -h1} from the plain step, with the
F-metric projection F^-1 - F^-1 H1 G^-1 H1' F^-1 as preconditioner, applied
with the R of the iteration's one QR.  A product M v is the forward
difference of the gradient of lambda' h along v with the pivots frozen.
That gradient needs no jacobian: it is sum_ij W_ij d gamma_ij / dtheta with
W = P lambda_S Q' (``rank``), two small GEMMs with the event slabs, plus the
linear block's term; a product point computes gamma and replays the plan
once, and builds no workspace.  The line search tries the corrected
direction first and falls back to the plain step when f'(0) <= 0 along it
or the search finds no step.  A table with a zero count keeps the plain
steps: its maximum may lie on the boundary of the model, where the
curvature grows without bound.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.special import chdtrc

from . import kernels
from .divergence import DivergenceFamily, cressie_read
from .rank import (
    PivotError,
    apply_plan,
    rank_residual,
    rank_residual_gradient,
    rank_residual_jacobian,
)
from .table import ContingencyTable, LogitType, _freeze

__all__ = [
    "ModelSpec",
    "CanonicalParam",
    "FitResult",
    "LinearConstraint",
    "MarginalHomogeneity",
    "MarginalShift",
    "EqualRowSpacing",
    "EqualColumnSpacing",
    "RedundantConstraintWarning",
    "constraint_from_name",
    "canonical_to_prob",
    "theta_from_prob",
    "constraint_eval",
    "fit",
]


class RedundantConstraintWarning(UserWarning):
    """Stacked constraint gradients are linearly dependent; dropping rows."""


# ---------------------------------------------------------------------------
# linear constraints on [eta_row; eta_col; vec gamma]
# ---------------------------------------------------------------------------


def _first_difference(m):
    return np.eye(m - 1, m) - np.eye(m - 1, m, k=1)


class LinearConstraint:
    """Linear restriction A [eta_row; eta_col; vec gamma] = offset."""

    def coefficients(self, shape, pair):
        """(A, offset) over the invariant vector of a table of ``shape`` with
        logit types ``pair``; ValueError when the restriction does not fit it."""
        raise NotImplementedError


def _square_same_logits(shape, pair, name):
    """The number of cuts of each margin, after checking that ``name`` fits."""
    if shape[0] != shape[1]:
        raise ValueError(f"{name} requires a square table, got {shape[0]}x{shape[1]}")
    if pair[0] != pair[1]:
        raise ValueError(f"{name} requires identical row and column logit types")
    return shape[0] - 1


@dataclass(frozen=True)
class MarginalHomogeneity(LinearConstraint):
    """Row and column marginal logits coincide: eta_row(i) = eta_col(i)."""

    name = "marginal-homogeneity"

    def coefficients(self, shape, pair):
        m = _square_same_logits(shape, pair, self.name)
        return np.hstack([np.eye(m), -np.eye(m), np.zeros((m, m * m))]), np.zeros(m)


@dataclass(frozen=True)
class MarginalShift(LinearConstraint):
    """eta_row - eta_col is a constant shift: its differences vanish."""

    name = "marginal-shift"

    def coefficients(self, shape, pair):
        m = _square_same_logits(shape, pair, self.name)
        if m < 2:
            raise ValueError(f"{self.name} needs at least 3 categories")
        d = _first_difference(m)
        return np.hstack([d, -d, np.zeros((m - 1, m * m))]), np.zeros(m - 1)


@dataclass(frozen=True)
class EqualRowSpacing(LinearConstraint):
    """Adjacent rows of gamma coincide (the "R" model)."""

    name = "equal-row-spacing"

    def coefficients(self, shape, pair):
        if shape[0] < 3:
            raise ValueError(f"{self.name} needs at least 3 row categories")
        m1, m2 = shape[0] - 1, shape[1] - 1
        a = np.kron(_first_difference(m1), np.eye(m2))
        return np.hstack([np.zeros((len(a), m1 + m2)), a]), np.zeros(len(a))


@dataclass(frozen=True)
class EqualColumnSpacing(LinearConstraint):
    """Adjacent columns of gamma coincide (the "C" model)."""

    name = "equal-column-spacing"

    def coefficients(self, shape, pair):
        if shape[1] < 3:
            raise ValueError(f"{self.name} needs at least 3 column categories")
        m1, m2 = shape[0] - 1, shape[1] - 1
        a = np.kron(np.eye(m1), _first_difference(m2))
        return np.hstack([np.zeros((len(a), m1 + m2)), a]), np.zeros(len(a))


_CONSTRAINT_NAMES = {
    c.name: c for c in (MarginalHomogeneity, MarginalShift, EqualRowSpacing, EqualColumnSpacing)
}


def constraint_names():
    """Names accepted by constraint_from_name."""
    return tuple(sorted(_CONSTRAINT_NAMES))


def constraint_from_name(name):
    """Instantiate a named linear constraint (CLI spelling, lowercase)."""
    key = str(name).strip().lower()
    try:
        return _CONSTRAINT_NAMES[key]()
    except KeyError:
        raise ValueError(
            f"unknown constraint {name!r}; expected one of {sorted(_CONSTRAINT_NAMES)}"
        ) from None


# ---------------------------------------------------------------------------
# model specification and canonical parametrization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """A model: logit pair, divergence family, rank bound, linear restrictions."""

    pair: tuple[LogitType, LogitType]
    family: DivergenceFamily
    rank: int
    linear_constraints: tuple = ()

    def __post_init__(self):
        object.__setattr__(
            self, "pair", (LogitType.parse(self.pair[0]), LogitType.parse(self.pair[1]))
        )
        object.__setattr__(self, "rank", int(self.rank))
        object.__setattr__(self, "linear_constraints", tuple(self.linear_constraints))
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        for c in self.linear_constraints:
            if not isinstance(c, LinearConstraint):
                raise TypeError(f"not a linear constraint: {c!r}")

    def linear_system(self, shape):
        """The linear constraints stacked into one (A, offset) for a table of
        ``shape``, or None when there are none; ValueError when the rank
        bound or a constraint does not fit the table."""
        kmax = min(shape) - 1
        if self.rank > kmax:
            raise ValueError(f"rank {self.rank} exceeds the maximum {kmax} for shape {shape}")
        if not self.linear_constraints:
            return None
        blocks = [c.coefficients(shape, self.pair) for c in self.linear_constraints]
        return np.vstack([a for a, _ in blocks]), np.concatenate([off for _, off in blocks])

    def rank_block_active(self, shape):
        """Whether the deflation residual contributes equations.

        The block is vacuous at the maximal rank, and structurally redundant
        when a spacing constraint is present with K >= 1: equal rows (or
        columns) of gamma force rank(gamma) <= 1, so keeping the nonlinear
        residual would make the stacked system irregular at the solution.
        """
        if self.rank >= min(shape) - 1:
            return False
        if self.rank >= 1 and any(
            isinstance(c, (EqualRowSpacing, EqualColumnSpacing))
            for c in self.linear_constraints
        ):
            return False
        return True


@dataclass(frozen=True)
class CanonicalParam:
    """Multinomial canonical parameters of a table of ``shape``: the
    contrasts theta_i = log(pi_i / pi_last) of each cell but the last
    against the last, in row-major order."""

    theta: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        theta = _freeze(self.theta).reshape(-1)
        shape = tuple(self.shape)
        if theta.shape[0] != shape[0] * shape[1] - 1:
            raise ValueError(
                f"theta length {theta.shape[0]} does not match shape {shape}, "
                f"which needs {shape[0] * shape[1] - 1} contrasts"
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "shape", shape)


def _softmax(theta):
    """Cell probabilities of contrasts against the last cell, as a vector."""
    z = np.append(theta, 0.0)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def canonical_to_prob(p):
    """Strictly positive probability matrix of a CanonicalParam."""
    return _softmax(p.theta).reshape(p.shape)


def theta_from_prob(pi):
    """Invert canonical_to_prob for a strictly positive table:
    theta_i = log(pi_i / pi_last)."""
    pi = np.asarray(pi, dtype=np.float64)
    if np.any(pi <= 0):
        raise ValueError("theta_from_prob needs a strictly positive table")
    logp = np.log(pi.reshape(-1))
    return logp[:-1] - logp[-1]


# ---------------------------------------------------------------------------
# per-point workspace
# ---------------------------------------------------------------------------


def _in_theta(jac_pi, pi):
    """jac_pi @ dpi/dtheta, for a jacobian or a gradient in pi: column c of
    dpi/dtheta is pi_c (e_c - pi)."""
    return (jac_pi[..., :-1] - (jac_pi @ pi)[..., None]) * pi[:-1]


class _Workspace:
    """All quantities needed at one theta: pi and gamma, plus the invariant
    vector [eta_row; eta_col; vec gamma] and its jacobians in theta, which
    are built on first read.  ``linear`` is the stacked (A, offset) of the
    linear constraints from ``ModelSpec.linear_system``, built once per fit,
    or None."""

    def __init__(self, theta, spec, shape, linear):
        self.theta = np.asarray(theta, dtype=np.float64)
        self.spec = spec
        self.shape = shape
        self._linear = linear
        self.pi = _softmax(self.theta)
        self.pi2d = self.pi.reshape(shape)
        self._gamma_args = (*spec.pair, spec.family.lam)
        self.gamma = kernels.gamma_values(self.pi2d, *self._gamma_args)
        self._plan = None
        self._loglik = None, None

    def _margins(self):
        """(row margin, its logit type) and (column margin, its logit type)."""
        return zip((self.pi2d.sum(axis=1), self.pi2d.sum(axis=0)), self.spec.pair)

    @cached_property
    def invariants(self):
        """[eta_row; eta_col; vec gamma]: the vector linear constraints act on."""
        rows, cols = (kernels.marginal_logit_values(*mc) for mc in self._margins())
        return np.concatenate([rows, cols, self.gamma.ravel()])

    @cached_property
    def gamma_jac(self):
        """d vec(gamma) / dtheta."""
        return _in_theta(kernels.gamma_jacobian_values(self.pi2d, *self._gamma_args), self.pi)

    @cached_property
    def _eta_jac(self):
        """d [eta_row; eta_col] / dtheta."""
        jr, jc = (kernels.marginal_logit_jacobian(*mc) for mc in self._margins())
        i1, i2 = self.shape
        return _in_theta(np.vstack([np.repeat(jr, i2, axis=1), np.tile(jc, (1, i1))]), self.pi)

    def constraints(self, plan=None):
        """(h, plan); selects deflation pivots when plan is None and replays
        ``plan`` otherwise.  The plan returned is the one at this point's
        gamma, which ``constraint_jacobian`` then uses."""
        spec, shape = self.spec, self.shape
        parts = []
        if spec.rank_block_active(shape):
            if plan is None:
                resid, plan = rank_residual(self.gamma, spec.rank)
            else:
                resid, plan = apply_plan(self.gamma, plan)
            self._plan = plan
            parts.append(resid)
        if self._linear is not None:
            a, off = self._linear
            parts.append(a @ self.invariants - off)
        return (np.concatenate(parts) if parts else np.zeros(0)), plan

    def constraint_jacobian(self):
        """dh/dtheta (rows are constraint gradients) with the pivots of the plan
        that ``constraints`` kept; the linear block takes A's columns
        blockwise, never a d x d invariant jacobian."""
        spec, shape = self.spec, self.shape
        parts = []
        if spec.rank_block_active(shape):
            parts.append(rank_residual_jacobian(self._plan, self.gamma_jac))
        if self._linear is not None:
            a = self._linear[0]
            e = shape[0] + shape[1] - 2
            parts.append(a[:, :e] @ self._eta_jac + a[:, e:] @ self.gamma_jac)
        return np.vstack(parts) if parts else np.zeros((0, self.theta.shape[0]))

    def score(self, y):
        """Gradient of the log-likelihood y' log pi in theta."""
        return (y - y.sum() * self.pi)[:-1]

    def loglik(self, y):
        """y' log pi, computed once for the counts last passed."""
        if self._loglik[0] is not y:
            self._loglik = y, float(y @ np.log(self.pi))
        return self._loglik[1]


# ---------------------------------------------------------------------------
# public operations on CanonicalParam
# ---------------------------------------------------------------------------


def constraint_eval(p, spec, plan=None):
    """Constraint residual h and gradient matrix H (columns are gradients).

    H is d-by-k with k the number of stacked equations, i.e. the transpose
    of dh/dtheta.  Pass ``plan`` to freeze the deflation pivots.
    """
    ws = _Workspace(p.theta, spec, p.shape, spec.linear_system(p.shape))
    h, _ = ws.constraints(plan)
    return h, ws.constraint_jacobian().T


def _info_solve(n, pi, w):
    """F^-1 w for the information F = n (diag(p) - p p') in theta, p being pi
    without its last cell: F^-1 = (diag(p)^-1 + 1 1' / pi_last) / n."""
    return (w / pi[:-1] + w.sum() / pi[-1]) / n


def _info_product(n, pi, v):
    """F v for the information F = n (diag(p) - p p') in theta, p being pi
    without its last cell."""
    p = pi[:-1]
    return n * p * (v - p @ v)


def _factor(jac, n, pi, warn):
    """The one factorization of a step: a Q-free pivoted QR of C H.

    ``jac`` is H' (rows are constraint gradients).  Returns the indices of
    the leading ``rank`` pivoted rows H1', which are independent, and the
    R factor of G = H1' F^-1 H1 = R'R.  The rank is the number of |diag R|
    above a ``matrix_rank``-style tolerance; the other rows are dropped,
    with a warning when ``warn`` is set.  With no rows no QR runs.
    """
    k, d = jac.shape
    if k == 0:
        return np.zeros(0, dtype=int), np.zeros((0, 0))
    # (C H)' in one buffer, with C = [diag(p)^-1/2; pi_last^-1/2 1'] / sqrt(n),
    # so C'C = F^-1; its transpose is Fortran-ordered, so the QR overwrites it
    hc = np.empty((k, d + 1))
    hc[:, :d] = jac
    hc[:, d] = jac.sum(axis=1)
    hc /= np.sqrt(n * pi)
    _, r, piv = scipy.linalg.qr(hc.T, overwrite_a=True, mode="raw", pivoting=True)
    diag = np.abs(r.diagonal())
    rank = int(np.count_nonzero(diag > diag[0] * max(k, d) * np.finfo(np.float64).eps))
    if rank < k and warn:
        warnings.warn(
            f"{k - rank} of {k} constraint equations are redundant; dropping dependent rows",
            RedundantConstraintWarning,
            stacklevel=3,
        )
    return piv[:rank], r[:rank, :rank]


def _multiplier_step(s, h, jac, n, pi, factor):
    """Aitchison-Silvey step in multiplier form: (direction, lambda, residual, rank).

    ``jac`` is H' (rows are constraint gradients) and ``factor`` is
    ``_factor(jac, n, pi, warn)``, the iteration's one factorization.  With the
    kept rows H1, h1, lambda0 = G^-1 H1' F^-1 s and residual = s - H1 lambda0,
    the multipliers are lambda = lambda0 + G^-1 h1 and the direction is
    F^-1 (s - H1 lambda).  ``lambda`` is indexed like the rows of ``jac``,
    zero on dropped rows.  With h = 0 the direction is P s, the F-metric
    projection of F^-1 s onto the tangent space {H1' e = 0}.
    """
    rows, r = factor
    kept = jac[rows]
    rhs = np.column_stack([kept @ _info_solve(n, pi, s), h[rows]])
    # G = R'R: the two triangular solves of cho_solve, without its input scans
    lam0, lam_h = (scipy.linalg.lapack.dpotrs(r, rhs)[0] if len(rows) else rhs).T
    resid = s - lam0 @ kept
    lam = np.zeros(len(jac))
    lam[rows] = lam0 + lam_h
    return _info_solve(n, pi, resid - lam_h @ kept), lam, resid, len(rows)


def _multiplier_gradient(pi, shape, spec, linear, plan, lam):
    """d (lam' h) / dtheta at the cell probabilities ``pi`` (a vector), with
    the pivots of ``plan`` and ``linear`` the fit's (A, offset) or None.

    It is sum_ij W_ij d gamma_ij / dtheta plus the linear block's
    marginal-logit term, with W = P lam_S Q' from the rank block and the
    gamma coefficients of A' lam from the linear block: gamma is computed
    and the plan replayed only for the rank block, and no jacobian is
    formed.
    """
    pi2d = pi.reshape(shape)
    args = (*spec.pair, spec.family.lam)
    weights = np.zeros((shape[0] - 1, shape[1] - 1))
    grad = np.zeros(shape)
    rows = 0
    if spec.rank_block_active(shape):
        rows = (shape[0] - 1 - spec.rank) * (shape[1] - 1 - spec.rank)
        gamma = kernels.gamma_values(pi2d, *args)
        weights += rank_residual_gradient(apply_plan(gamma, plan)[1], lam[:rows])
    if linear is not None:
        coef = linear[0].T @ lam[rows:]
        e = shape[0] + shape[1] - 2
        weights += coef[e:].reshape(weights.shape)
        margins = zip((pi2d.sum(axis=1), pi2d.sum(axis=0)), spec.pair)
        jr, jc = (kernels.marginal_logit_jacobian(*mc) for mc in margins)
        grad += (coef[: shape[0] - 1] @ jr)[:, None] + coef[shape[0] - 1 : e] @ jc
    grad += kernels.gamma_gradient_values(pi2d, *args, weights)
    return _in_theta(grad.ravel(), pi)


def _curvature(ws, jac, linear, plan, lam):
    """v -> M v for M = sum_k lam_k d2h_k at ``ws``: the forward difference
    of the gradient of lam' h along v, from its value lam' jac at ``ws``,
    with the pivots of ``plan`` frozen.  A product point builds no
    workspace and no jacobian; where the plan finds no pivot the product is
    NaN."""
    base = lam @ jac
    scale = np.sqrt(np.finfo(np.float64).eps) * max(1.0, float(np.abs(ws.theta).max()))

    def product(v):
        eps = scale / float(np.abs(v).max())
        pi = _softmax(ws.theta + eps * v)
        try:
            grad = _multiplier_gradient(pi, ws.shape, ws.spec, linear, plan, lam)
        except PivotError:
            return np.full(base.shape, np.nan)
        return (grad - base) / eps

    return product


# projected CG steps of the curvature correction per iteration
_CG_STEPS = 2
# the correction runs once the plain step shrinks by less than this factor
_LINEAR_RATE = 0.3


def _newton_cg(direction, project, info, curvature):
    """Curvature-corrected step: (direction or None, curvature products made).

    A truncated Newton step on the model s'e - e'(F + M)e / 2 over the plain
    step plus the tangent space {H1' e = 0}: at most ``_CG_STEPS`` steps of
    projected preconditioned CG (Nocedal & Wright 2006, Alg. 16.2), with
    ``project`` the F-metric projection P onto that space.  CG starts at the
    plain step, the model's maximum for M = 0, whose residual (F + M) e - s
    is M e up to the range of H1, which P removes.  ``info`` is v -> F v and
    ``curvature`` v -> M v.  CG stops at non-positive curvature; None when
    it took no step.
    """
    e = direction
    r = curvature(e)
    made = 1
    g = project(r)
    rg = float(r @ g)
    p = -g
    for k in range(_CG_STEPS):
        if not rg > 0.0:
            break
        hp = info(p) + curvature(p)
        made += 1
        php = float(p @ hp)
        if not php > 0.0:
            break
        alpha = rg / php
        e = e + alpha * p
        if k + 1 == _CG_STEPS:
            break
        r = r + alpha * hp
        g = project(r)
        rg, previous = float(r @ g), rg
        p = (rg / previous) * p - g
    return (None if e is direction else e), made


def _objective(ws, y, plan, mu):
    """The merit y' log pi / n - mu ||h||_1 at the workspace ``ws``, or -inf
    where it is not finite."""
    with np.errstate(all="ignore"):
        try:
            h, _ = ws.constraints(plan)
        except PivotError:
            return -np.inf
        val = ws.loglik(y) / y.sum() - mu * float(np.abs(h).sum())
    return val if np.isfinite(val) else -np.inf


# ---------------------------------------------------------------------------
# the fitter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Outcome of one constrained fit."""

    theta_hat: np.ndarray
    pi_hat: np.ndarray
    deviance: float
    dof: int
    p_value: float
    constraint_norm: float
    iterations: int
    converged: bool
    loglik: float
    message: str = ""
    # merit evaluations across all of the fit's line searches
    evaluations: int = 0
    # constraint-curvature (Hessian-vector) products of the Newton-CG steps
    products: int = 0


def _deviance(y2d, pi2d):
    n = y2d.sum()
    mask = y2d > 0
    return float(2.0 * np.sum(y2d[mask] * np.log(y2d[mask] / (n * pi2d[mask]))))


def _counts_table(y):
    """A table with counts, or an array of them checked as ``from_counts`` checks it."""
    if not isinstance(y, ContingencyTable):
        y = ContingencyTable.from_counts(y)
    if y.counts is None:
        raise ValueError("fit needs observed counts, not a probability table")
    return y


def fit(y, spec, tol_h=1e-7, tol_rel=1e-9, tol_score=1e-6, max_iter=500):
    """Constrained maximum likelihood fit of ``spec`` to counts ``y``.

    Starts from the smoothed empirical table (y + 1/2) / (n + cells / 2)
    and iterates line-searched multiplier-form regression steps until the
    constraint norm falls below ``tol_h``, the relative log-likelihood
    change below ``tol_rel`` and the multiplier residual s - H lambda0 (the
    score left after projecting out the constraint gradients in the F^-1
    metric) below ``tol_score * n`` in every coordinate, or until
    ``max_iter`` iterations have each computed a step.

    Every step is line-searched on the merit f = y' log pi / n - mu ||h||_1,
    mu = max(previous mu, 2 ||lambda||_inf / n) with lambda the step's
    multipliers; there is no restoration phase.  The search (``_search``)
    tries the unit step first and otherwise halves from the peak of the
    quadratic through f(0), f'(0) and f(1), floored at 1/2.  Each trial
    point's workspace is kept, and the accepted one becomes the next
    iterate's, so no workspace is built twice at one theta.
    ``FitResult.evaluations`` counts the merit evaluations of all searches.
    When every count is positive and the plain step shrank by less than a
    factor 0.3 since the previous iteration, at most two projected CG steps
    on the constraint curvature first correct it (see the module
    docstring): the search tries the corrected direction, and the plain one
    when the merit does not rise along it or no step is found.
    ``FitResult.products`` counts the curvature products of the correction.
    When the search finds no step, the fit stops as "converged
    (stationary)" if the constraints hold to ``tol_h`` and as "line search
    stalled away from feasibility" otherwise.  A cell driven so close to 0
    that the step is not finite (a maximum on the boundary) stops the fit
    unconverged, with a message naming the cell, and so does a failure of
    the deflation pivots.

    Every stop reports the latest iterate whose step was computed, with the
    constraint norm and the constraint rank (the dof) of that step: the
    converged or stationary iterate, iterate ``max_iter`` when the
    iterations run out, and the previous iterate when a cell or the pivots
    fail.  A stop before the first step reports the start, with dof 0 and
    ``constraint_norm`` NaN, as its constraints were not evaluated.
    """
    y2d = _counts_table(y).counts
    shape = y2d.shape
    linear = spec.linear_system(shape)
    yv = y2d.reshape(-1)
    n = yv.sum()
    smoothed = (y2d + 0.5) / (n + y2d.size / 2.0)

    # the curvature correction runs only when every count is positive
    positive = bool(yv.min() > 0)
    prev_ll = None
    prev_size = None
    mu = 0.0
    converged = False
    message = "maximum iterations reached"
    iterations = 0
    evaluations = 0
    products = 0
    ws = _Workspace(theta_from_prob(smoothed), spec, shape, linear)
    # (workspace, h, rank) of the latest iterate whose step was computed, which
    # every stop reports; h is None at the start, before any step
    last = ws, None, 0
    for iterations in range(1, max_iter + 1):
        try:
            h, plan = ws.constraints()
            with np.errstate(all="ignore"):  # a non-finite jacobian stops the fit below
                jac = ws.constraint_jacobian()
        except PivotError as exc:
            message = f"deflation pivot failure: {exc}"
            break
        # F^-1 divides by each cell, so a subnormal cell overflows it
        if ws.pi.min() < np.finfo(np.float64).tiny or not np.isfinite(jac).all():
            cell = tuple(int(i) for i in np.unravel_index(np.argmin(ws.pi), shape))
            message = (
                f"cell {cell} probability {ws.pi.min():.3g} is too close to 0 "
                "for a finite step; stopped at the previous iterate"
            )
            break
        ll = ws.loglik(yv)
        hnorm = float(np.abs(h).max(initial=0.0))
        s0 = ws.score(yv)
        factor = _factor(jac, n, ws.pi, warn=(iterations == 1))
        direction, lam, resid, rank = _multiplier_step(s0, h, jac, n, ws.pi, factor=factor)
        last = ws, h, rank
        if hnorm <= tol_h and prev_ll is not None and abs(ll - prev_ll) <= tol_rel * (abs(prev_ll) + 1.0):
            if float(np.abs(resid).max()) <= tol_score * n:
                converged = True
                message = "converged"
                break
        # twice the least exact penalty, so f'(0) keeps a margin of
        # ||lambda||_inf ||h||_1 / n as lambda moves between iterations
        mu = max(mu, 2.0 * float(np.abs(lam).max(initial=0.0)) / n)
        f0 = ll / n - mu * float(np.abs(h).sum())

        def slope(d):
            return float(s0 @ d) / n - mu * float(np.sign(h) @ (jac @ d))

        directions = [direction]
        size = float(np.abs(direction).max())
        # a plain step that shrank by less than _LINEAR_RATE: linear convergence
        if positive and rank and prev_size is not None and size > _LINEAR_RATE * prev_size:
            zero = np.zeros(len(h))
            with np.errstate(all="ignore"):  # a non-finite product ends the CG
                corrected, made = _newton_cg(
                    direction,
                    lambda r: _multiplier_step(r, zero, jac, n, ws.pi, factor=factor)[0],
                    lambda v: _info_product(n, ws.pi, v),
                    _curvature(ws, jac, linear, plan, lam),
                )
            products += made
            if corrected is not None and slope(corrected) > 0.0:
                directions.insert(0, corrected)
        prev_size = size
        for direction in directions:
            # trial workspaces by step length; the accepted one is the next iterate's
            trials = {}

            def feval(t):
                with np.errstate(all="ignore"):
                    trials[t] = _Workspace(ws.theta + t * direction, spec, shape, linear)
                return _objective(trials[t], yv, plan, mu)

            t = _search(f0, slope(direction), feval)
            evaluations += len(trials)
            if t is not None:
                break
        if t is None:
            if hnorm <= tol_h:
                converged = True
                message = "converged (stationary)"
            else:
                message = "line search stalled away from feasibility"
            break
        ws = trials[t]
        prev_ll = ll

    ws, h, dof = last
    dev = _deviance(y2d, ws.pi2d)
    pval = float(chdtrc(dof, dev)) if dof > 0 else float("nan")
    return FitResult(
        theta_hat=ws.theta,
        pi_hat=ws.pi2d.copy(),
        deviance=dev,
        dof=dof,
        p_value=pval,
        constraint_norm=float("nan") if h is None else float(np.abs(h).max(initial=0.0)),
        iterations=iterations,
        converged=converged,
        loglik=ws.loglik(yv),
        message=message,
        evaluations=evaluations,
        products=products,
    )


# the line search stops halving once its predicted gain is this many ulps of f
_GAIN_ULPS = 4


def _search(f0, fp0, feval):
    """Step length t in (0, 1] with feval(t) > f0, or None when no step can gain.

    Tries the unit step first and takes it when f(1) > f0 and
    f(1) - f0 >= fp0 / 4, that is when the quadratic through f0, fp0 and
    f(1) peaks at t >= 2/3 (Nocedal & Wright 2006, sec. 3.5).  Otherwise,
    along an ascent direction, tries that peak, floored at t = 1/2, and
    halves it while the predicted gain t * fp0 stays above _GAIN_ULPS ulps
    of max(1, |f0|) (Dennis & Schnabel 1983, Alg. A6.3.1): below that a
    rise of f is rounding noise.  With fp0 <= 0 no small step can rise, so
    the search ends after the unit step.  The trial sequence 1, t, t/2, ...
    never repeats a value.
    """
    f1 = feval(1.0)
    if f1 > f0 and f1 - f0 >= fp0 / 4.0:
        return 1.0
    if fp0 <= 0.0:
        return None
    # the quadratic's peak, below 2/3 here: f1 - f0 < fp0 / 4 or f1 <= f0,
    # so the denominator is positive, and f1 = -inf gives 0
    t = max(0.5, fp0 / (2.0 * (fp0 - (f1 - f0))))
    floor = _GAIN_ULPS * np.finfo(np.float64).eps * max(1.0, abs(f0))
    while t > 2.0**-40 and t * fp0 > floor:
        if feval(t) > f0:
            return t
        t *= 0.5
    return None


# the FitResult fields of a sweep row, in row order
_SWEEP_FIELDS = ("deviance", "dof", "converged", "iterations", "evaluations", "products", "message")


def sweep(y, pairs, lambdas, rank=1, constraints=()):
    """Fit every (pair, lambda) cell of a grid to counts ``y``, which are
    checked once, here, as ``fit`` checks them: a bad table raises ValueError.

    The logit ``pairs``, such as "GG", run deduplicated and sorted, each over
    ``lambdas`` in the order given, with rank bound ``rank`` and the
    ``LinearConstraint`` objects ``constraints``.  Returns one dict per
    cell, keyed in this order: ``pair``, ``lambda``, the fit's ``deviance``,
    ``dof``, ``converged``, ``iterations``, line-search merit
    ``evaluations``, curvature ``products`` and stop ``message``, and
    ``error``: None for a fitted cell, and "Type: text" for a cell whose
    spec or fit raised ValueError (lambda = -1, a rank or constraint that
    does not fit the table), whose fit fields are None and ``converged``
    False.  Any other exception propagates.
    """
    table = _counts_table(y)
    rows = []
    for pair in sorted(set(pairs)):
        for lam in lambdas:
            row = {"pair": pair, "lambda": float(lam), **dict.fromkeys((*_SWEEP_FIELDS, "error"))}
            try:
                result = fit(table, ModelSpec(tuple(pair), cressie_read(lam), rank, constraints))
            except ValueError as exc:  # invalid specs; fit itself stops on a pivot failure
                row.update(converged=False, error=f"{type(exc).__name__}: {exc}")
            else:
                row.update((key, getattr(result, key)) for key in _SWEEP_FIELDS)
            rows.append(row)
    return rows
