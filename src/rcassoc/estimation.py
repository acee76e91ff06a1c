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
formed or factorized.  The one factorization per iteration is an R-only
pivoted QR of the (d + 1) x k matrix C H, where C'C = F^-1: it gives
G = R'R, the rank (dependent constraint rows are dropped), and the
triangular solves for lambda.  The direction solves H' direction = -h.
The stationarity test is on the multiplier residual s - H lambda0, with
lambda0 = G^-1 H' F^-1 s: the score that the constraint gradients leave
unexplained.  With no constraint rows (the saturated model) the step is
F^-1 s and no factorization runs.

Every jacobian is formed once, in theta: dpi/dtheta = (diag(pi) - pi pi')
without its last column, so a pi-jacobian J maps to column c
(J[:, c] - J pi) pi_c.  The deflation residual carries d vec(gamma) / dtheta
through its stages in tangent form (``rank``).

A line search on the exact l1 penalty merit
f(t) = y' log pi(t) / n - mu ||h(t)||_1 picks the step length (Han 1977;
Powell 1978; Nocedal & Wright, sec. 15.4 and 18.3).  As s' direction =
direction' F direction - lambda' h and H' direction = -h, f'(0) is at least
direction' F direction / n + (mu - ||lambda||_inf / n) ||h||_1, so each
iteration takes mu = max(previous mu, 2 ||lambda||_inf / n) and the step is
an ascent direction of f wherever the iterate is not stationary.  The
search tries the unit step first, as Nocedal & Wright (ch. 3) advise for
Newton-type steps, and takes it when f(1) > f(0) and
f(1) - f(0) >= f'(0) / 2, that is when the quadratic through f(0), f'(0)
and f(1) peaks at or beyond t = 1.  Otherwise it fits a cubic through
f(0), f'(0) and the probes t = 1/4 and 1/2 and tries its maximizer.  It
stops as soon as no step can gain (the backtracking rule of Nocedal &
Wright, ch. 3): it halves t from 1 only along an ascent direction,
f'(0) > 0, and only while the predicted gain t f'(0) exceeds a few ulps of
max(1, |f(0)|); the fit then ends.  Deflation pivots are frozen for one
outer iteration so h stays smooth along the search path.  A workspace
computes the marginal logits and the jacobians only when they are first
read, so line-search trial points, which need only h and the
log-likelihood, never build them; the accepted trial point's workspace is
the next iteration's, so an iteration whose unit step is taken builds one
workspace.
"""

import warnings
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg
from scipy.special import chdtrc

from . import kernels
from .divergence import DivergenceFamily
from .rank import PivotError, apply_plan, rank_residual, rank_residual_jacobian
from .table import ContingencyTable, LogitType

__all__ = [
    "ModelSpec",
    "CanonicalParam",
    "FitResult",
    "LinearConstraint",
    "MarginalHomogeneity",
    "MarginalShift",
    "EqualRowSpacing",
    "EqualColumnSpacing",
    "Custom",
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

    name = "custom"

    def validate(self, shape, spec):
        pass

    def coefficients(self, shape):
        """(A, offset) over the invariant vector of a table of ``shape``."""
        raise NotImplementedError


def _require_square_same_logits(shape, spec, name):
    if shape[0] != shape[1]:
        raise ValueError(f"{name} requires a square table, got {shape[0]}x{shape[1]}")
    if spec is not None and spec.pair[0] != spec.pair[1]:
        raise ValueError(f"{name} requires identical row and column logit types")


@dataclass(frozen=True)
class MarginalHomogeneity(LinearConstraint):
    """Row and column marginal logits coincide: eta_row(i) = eta_col(i)."""

    name = "marginal-homogeneity"

    def validate(self, shape, spec):
        _require_square_same_logits(shape, spec, self.name)

    def coefficients(self, shape):
        m = shape[0] - 1
        return np.hstack([np.eye(m), -np.eye(m), np.zeros((m, m * m))]), np.zeros(m)


@dataclass(frozen=True)
class MarginalShift(LinearConstraint):
    """eta_row - eta_col is a constant shift: its differences vanish."""

    name = "marginal-shift"

    def validate(self, shape, spec):
        _require_square_same_logits(shape, spec, self.name)
        if shape[0] < 3:
            raise ValueError(f"{self.name} needs at least 3 categories")

    def coefficients(self, shape):
        m = shape[0] - 1
        d = _first_difference(m)
        return np.hstack([d, -d, np.zeros((m - 1, m * m))]), np.zeros(m - 1)


@dataclass(frozen=True)
class EqualRowSpacing(LinearConstraint):
    """Adjacent rows of gamma coincide (the "R" model)."""

    name = "equal-row-spacing"

    def validate(self, shape, spec):
        if shape[0] < 3:
            raise ValueError(f"{self.name} needs at least 3 row categories")

    def coefficients(self, shape):
        m1, m2 = shape[0] - 1, shape[1] - 1
        a = np.kron(_first_difference(m1), np.eye(m2))
        return np.hstack([np.zeros((len(a), m1 + m2)), a]), np.zeros(len(a))


@dataclass(frozen=True)
class EqualColumnSpacing(LinearConstraint):
    """Adjacent columns of gamma coincide (the "C" model)."""

    name = "equal-column-spacing"

    def validate(self, shape, spec):
        if shape[1] < 3:
            raise ValueError(f"{self.name} needs at least 3 column categories")

    def coefficients(self, shape):
        m1, m2 = shape[0] - 1, shape[1] - 1
        a = np.kron(np.eye(m1), _first_difference(m2))
        return np.hstack([np.zeros((len(a), m1 + m2)), a]), np.zeros(len(a))


@dataclass(frozen=True)
class Custom(LinearConstraint):
    """A @ [eta_row; eta_col; vec gamma] = offset for a user matrix A."""

    matrix: np.ndarray
    offset: np.ndarray | None = None

    name = "custom"

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        off = (
            np.zeros(a.shape[0])
            if self.offset is None
            else np.asarray(self.offset, dtype=np.float64).reshape(-1)
        )
        if off.shape[0] != a.shape[0]:
            raise ValueError("offset length must match the number of rows of A")
        a.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "offset", off)

    def validate(self, shape, spec):
        width = (shape[0] - 1) + (shape[1] - 1) + (shape[0] - 1) * (shape[1] - 1)
        if self.matrix.shape[1] != width:
            raise ValueError(
                f"custom constraint matrix has {self.matrix.shape[1]} columns, "
                f"expected {width} for a {shape[0]}x{shape[1]} table"
            )

    def coefficients(self, shape):
        return self.matrix, self.offset


_CONSTRAINT_NAMES = {
    "marginal-homogeneity": MarginalHomogeneity,
    "marginal-shift": MarginalShift,
    "equal-row-spacing": EqualRowSpacing,
    "equal-column-spacing": EqualColumnSpacing,
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

    def validate_shape(self, shape):
        kmax = min(shape) - 1
        if self.rank > kmax:
            raise ValueError(f"rank {self.rank} exceeds the maximum {kmax} for shape {shape}")
        for c in self.linear_constraints:
            c.validate(shape, self)

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
        theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        shape = tuple(self.shape)
        if theta.shape[0] != shape[0] * shape[1] - 1:
            raise ValueError(
                f"theta length {theta.shape[0]} does not match shape {shape}, "
                f"which needs {shape[0] * shape[1] - 1} contrasts"
            )
        theta.setflags(write=False)
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


def _linear_system(spec, shape):
    """The linear constraints of ``spec`` stacked into one (A, offset), or
    None when there are none."""
    if not spec.linear_constraints:
        return None
    blocks = [c.coefficients(shape) for c in spec.linear_constraints]
    return np.vstack([a for a, _ in blocks]), np.concatenate([off for _, off in blocks])


class _Workspace:
    """All quantities needed at one theta: pi and gamma, plus the invariant
    vector [eta_row; eta_col; vec gamma] and its jacobians in theta, which
    are built on first read.  ``linear`` is the stacked (A, offset) of the
    linear constraints from ``_linear_system``, built once per fit, or None."""

    def __init__(self, theta, spec, shape, linear):
        self.theta = np.asarray(theta, dtype=np.float64)
        self.spec = spec
        self.shape = shape
        self._linear = linear
        self.pi = _softmax(self.theta)
        self.pi2d = self.pi.reshape(shape)
        self._codes = (spec.pair[0].code, spec.pair[1].code)
        self._gamma_args = (*self._codes, spec.family.lam)
        self.gamma = kernels.gamma_values(self.pi2d, *self._gamma_args)

    def _margins(self):
        """(row margin, its logit code) and (column margin, its logit code)."""
        return (self.pi2d.sum(axis=1), self._codes[0]), (self.pi2d.sum(axis=0), self._codes[1])

    @cached_property
    def invariants(self):
        """[eta_row; eta_col; vec gamma]: the vector linear constraints act on."""
        rows, cols = (kernels.marginal_logit_values(*mc) for mc in self._margins())
        return np.concatenate([rows, cols, self.gamma.ravel()])

    def _in_theta(self, jac_pi):
        """jac_pi @ dpi/dtheta: column c of dpi/dtheta is pi_c (e_c - pi)."""
        return (jac_pi[:, :-1] - (jac_pi @ self.pi)[:, None]) * self.pi[:-1]

    @cached_property
    def gamma_jac(self):
        """d vec(gamma) / dtheta."""
        return self._in_theta(kernels.gamma_jacobian_values(self.pi2d, *self._gamma_args))

    @cached_property
    def _eta_jac(self):
        """d [eta_row; eta_col] / dtheta."""
        jr, jc = (kernels.marginal_logit_jacobian(*mc) for mc in self._margins())
        i1, i2 = self.shape
        return self._in_theta(np.vstack([np.repeat(jr, i2, axis=1), np.tile(jc, (1, i1))]))

    def constraints(self, plan=None):
        """(h, plan); selects deflation pivots when plan is None."""
        spec, shape = self.spec, self.shape
        parts = []
        if spec.rank_block_active(shape):
            if plan is None:
                resid, plan = rank_residual(self.gamma, spec.rank)
            else:
                resid = apply_plan(self.gamma, plan)
            parts.append(resid)
        if self._linear is not None:
            a, off = self._linear
            parts.append(a @ self.invariants - off)
        return (np.concatenate(parts) if parts else np.zeros(0)), plan

    def constraint_jacobian(self, plan):
        """dh/dtheta (rows are constraint gradients) with the pivots of ``plan``;
        the linear block takes A's columns blockwise, never a d x d invariant jacobian."""
        spec, shape = self.spec, self.shape
        parts = []
        if spec.rank_block_active(shape):
            parts.append(rank_residual_jacobian(self.gamma, plan, self.gamma_jac))
        if self._linear is not None:
            a = self._linear[0]
            e = shape[0] + shape[1] - 2
            parts.append(a[:, :e] @ self._eta_jac + a[:, e:] @ self.gamma_jac)
        return np.vstack(parts) if parts else np.zeros((0, self.theta.shape[0]))

    def score(self, y):
        """Gradient of the log-likelihood y' log pi in theta."""
        return (y - y.sum() * self.pi)[:-1]

    def loglik(self, y):
        return float(y @ np.log(self.pi))


# ---------------------------------------------------------------------------
# public operations on CanonicalParam
# ---------------------------------------------------------------------------


def constraint_eval(p, spec, plan=None):
    """Constraint residual h and gradient matrix H (columns are gradients).

    H is d-by-k with k the number of stacked equations, i.e. the transpose
    of dh/dtheta.  Pass ``plan`` to freeze the deflation pivots.
    """
    spec.validate_shape(p.shape)
    ws = _Workspace(p.theta, spec, p.shape, _linear_system(spec, p.shape))
    h, plan = ws.constraints(plan)
    return h, ws.constraint_jacobian(plan).T


def _info_solve(n, pi, w):
    """F^-1 w for the information F = n (diag(p) - p p') in theta, p being pi
    without its last cell: F^-1 = (diag(p)^-1 + 1 1' / pi_last) / n."""
    return (w / pi[:-1] + w.sum() / pi[-1]) / n


def _multiplier_step(s, h, jac, n, pi, warn):
    """Aitchison-Silvey step in multiplier form: (direction, lambda, residual, rank).

    ``jac`` is H' (rows are constraint gradients).  The rank is the number
    of |diag R| of the R-only pivoted QR of C H above a ``matrix_rank``-style
    tolerance; the leading ``rank`` pivoted rows H1, h1 are independent and
    the rest are dropped, with a warning when ``warn`` is set.  With
    lambda0 = G^-1 H1' F^-1 s and residual = s - H1 lambda0, the multipliers
    are lambda = lambda0 + G^-1 h1 and the direction is F^-1 (s - H1 lambda).
    ``lambda`` is indexed like the rows of ``jac``, zero on dropped rows.
    """
    k, d = jac.shape
    if k == 0:
        return _info_solve(n, pi, s), np.zeros(0), s, 0
    # C H with C = [diag(p)^-1/2; pi_last^-1/2 1'] / sqrt(n), so C'C = F^-1
    ch = (np.hstack([jac, jac.sum(axis=1, keepdims=True)]) / np.sqrt(n * pi)).T
    r, piv = scipy.linalg.qr(ch, overwrite_a=True, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > diag[0] * max(k, d) * np.finfo(np.float64).eps))
    if rank < k and warn:
        warnings.warn(
            f"{k - rank} of {k} constraint equations are redundant; dropping dependent rows",
            RedundantConstraintWarning,
            stacklevel=3,
        )
    kept = jac[piv[:rank]]
    rhs = np.column_stack([kept @ _info_solve(n, pi, s), h[piv[:rank]]])
    lam0, lam_h = scipy.linalg.cho_solve((r[:rank, :rank], False), rhs).T
    resid = s - lam0 @ kept
    lam = np.zeros(k)
    lam[piv[:rank]] = lam0 + lam_h
    return _info_solve(n, pi, resid - lam_h @ kept), lam, resid, rank


def _cubic_local_max(f0, fp0, f14, f12):
    """Interior local maximizer of the cubic through f(0), f'(0), f(1/4), f(1/2).

    Returns None when the fitted cubic has no local maximum at t > 0.
    """
    if not np.all(np.isfinite([f0, fp0, f14, f12])):
        return None
    rhs = np.array([f14 - f0 - fp0 / 4.0, f12 - f0 - fp0 / 2.0])
    m = np.array([[1.0 / 64.0, 1.0 / 16.0], [1.0 / 8.0, 1.0 / 4.0]])
    a, b = np.linalg.solve(m, rhs)
    if abs(a) < 1e-12 * max(1.0, abs(b), abs(fp0)):
        # effectively quadratic
        if b >= 0:
            return None
        t = -fp0 / (2.0 * b)
        return t if t > 0 else None
    disc = b * b - 3.0 * a * fp0
    if disc < 0:
        return None
    root = np.sqrt(disc)
    # local max where the second derivative 6 a t + 2 b is negative
    t = (-b - root) / (3.0 * a) if a > 0 else (-b + root) / (3.0 * a)
    return t if t > 0 else None


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
    spec: ModelSpec
    message: str = ""
    # merit evaluations across all of the fit's line searches
    evaluations: int = 0


def _deviance(y2d, pi2d):
    n = y2d.sum()
    mask = y2d > 0
    return float(2.0 * np.sum(y2d[mask] * np.log(y2d[mask] / (n * pi2d[mask]))))


def _as_counts(y):
    if isinstance(y, ContingencyTable):
        if y.counts is None:
            raise ValueError("fit needs observed counts, not a probability table")
        return np.asarray(y.counts, dtype=np.float64)
    y2d = np.asarray(y, dtype=np.float64)
    if y2d.ndim != 2:
        raise ValueError(f"counts must be a 2-d array, got shape {y2d.shape}")
    if not np.all(np.isfinite(y2d)):
        raise ValueError("counts must be finite")
    if np.any(y2d < 0):
        raise ValueError("counts must be non-negative")
    if y2d.sum() <= 0:
        raise ValueError("counts must have a positive total")
    return y2d


def fit(y, spec, tol_h=1e-7, tol_rel=1e-9, tol_score=1e-6, max_iter=500):
    """Constrained maximum likelihood fit of ``spec`` to counts ``y``.

    Starts from the smoothed empirical table (y + 1/2) / (n + cells / 2)
    and iterates line-searched multiplier-form regression steps until the
    constraint norm falls below ``tol_h``, the relative log-likelihood
    change below ``tol_rel`` and the multiplier residual s - H lambda0 (the
    score left after projecting out the constraint gradients in the F^-1
    metric) below ``tol_score * n`` in every coordinate, or ``max_iter`` is
    reached.

    Every step is line-searched on the merit f = y' log pi / n - mu ||h||_1,
    mu = max(previous mu, 2 ||lambda||_inf / n) with lambda the step's
    multipliers; there is no restoration phase.  The search (``_search``)
    tries the unit step first and falls back to the cubic probes.  Each
    trial point's workspace is kept, and the accepted one becomes the next
    iterate's, so no workspace is built twice at one theta.
    ``FitResult.evaluations`` counts the merit evaluations of all searches.
    When the search finds no step, the fit stops as "converged
    (stationary)" if the constraints hold to ``tol_h`` and as "line search
    stalled away from feasibility" otherwise.  A cell driven so close to 0
    that the step is not finite (a maximum on the boundary) stops the fit
    unconverged at the previous iterate, with a message naming the cell.
    """
    y2d = _as_counts(y)
    shape = y2d.shape
    spec.validate_shape(shape)
    linear = _linear_system(spec, shape)
    yv = y2d.reshape(-1)
    n = yv.sum()
    smoothed = (y2d + 0.5) / (n + y2d.size / 2.0)

    prev_ll = None
    mu = 0.0
    converged = False
    message = "maximum iterations reached"
    iterations = 0
    evaluations = 0
    # (workspace, h, rank) at the latest iterate with a finite step
    last = None
    ws = _Workspace(theta_from_prob(smoothed), spec, shape, linear)
    for iterations in range(1, max_iter + 1):
        try:
            h, plan = ws.constraints()
            with np.errstate(all="ignore"):  # a non-finite jacobian stops the fit below
                jac = ws.constraint_jacobian(plan)
        except PivotError as exc:
            message = f"deflation pivot failure: {exc}"
            last = None
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
        hnorm = float(np.abs(h).max()) if h.size else 0.0
        s0 = ws.score(yv)
        direction, lam, resid, rank = _multiplier_step(
            s0, h, jac, n, ws.pi, warn=(iterations == 1)
        )
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
        fp0 = float(s0 @ direction) / n - mu * float(np.sign(h) @ (jac @ direction))
        # trial workspaces by step length; the accepted one is the next iterate's
        trials = {}

        def feval(t):
            with np.errstate(all="ignore"):
                trials[t] = _Workspace(ws.theta + t * direction, spec, shape, linear)
            return _objective(trials[t], yv, plan, mu)

        t = _search(f0, fp0, feval)
        evaluations += len(trials)
        if t is None:
            if hnorm <= tol_h:
                converged = True
                message = "converged (stationary)"
            else:
                message = "line search stalled away from feasibility"
            break
        ws = trials[t]
        prev_ll = ll
    else:
        last = None

    if last is None:
        # the fit ran out of iterations or the pivots failed at ws
        try:
            h, plan = ws.constraints()
            jac = ws.constraint_jacobian(plan)
        except PivotError:
            h, jac = np.zeros(0), np.zeros((0, ws.theta.shape[0]))
        dof = _multiplier_step(ws.score(yv), h, jac, n, ws.pi, warn=False)[3]
    else:
        ws, h, dof = last
    dev = _deviance(y2d, ws.pi2d)
    pval = float(chdtrc(dof, dev)) if dof > 0 else float("nan")
    return FitResult(
        theta_hat=ws.theta,
        pi_hat=ws.pi2d.copy(),
        deviance=dev,
        dof=dof,
        p_value=pval,
        constraint_norm=float(np.abs(h).max()) if h.size else 0.0,
        iterations=iterations,
        converged=converged,
        loglik=float(yv @ np.log(ws.pi)),
        spec=spec,
        message=message,
        evaluations=evaluations,
    )


# the line search stops halving once its predicted gain is this many ulps of f
_GAIN_ULPS = 4


def _search(f0, fp0, feval):
    """Step length t in (0, 1] with feval(t) > f0, or None when no step can gain.

    Tries the unit step first and takes it when f(1) > f0 and
    f(1) - f0 >= fp0 / 2, that is when the quadratic through f0, fp0 and
    f(1) peaks at or beyond t = 1.  Otherwise tries the cubic probes, then
    halves from t = 1 while the predicted gain t * fp0 stays above
    _GAIN_ULPS ulps of max(1, |f0|): below that a rise of f is rounding
    noise, and with fp0 <= 0 no small step can rise, so the search ends
    after the probes.  No t is evaluated twice.
    """
    f = cache(feval)
    f1 = f(1.0)
    if f1 > f0 and f1 - f0 >= fp0 / 2.0:
        return 1.0
    t_cubic = _cubic_local_max(f0, fp0, f(0.25), f(0.5))
    if t_cubic is not None:
        t_cubic = min(t_cubic, 1.0)
        if f(t_cubic) > f0:
            return t_cubic
    floor = _GAIN_ULPS * np.finfo(np.float64).eps * max(1.0, abs(f0))
    t = 1.0
    while True:
        if f(t) > f0:
            return t
        t *= 0.5
        if not (t > 2.0**-40 and t * fp0 > floor):
            return None
