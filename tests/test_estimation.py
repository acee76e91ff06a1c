"""Canonical parametrization, constraint assembly, and the constrained fitter."""

import importlib
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import rcassoc.kernels
import rcassoc.rank
from rcassoc import (
    CanonicalParam,
    ContingencyTable,
    EqualColumnSpacing,
    EqualRowSpacing,
    MarginalHomogeneity,
    MarginalShift,
    ModelSpec,
    RedundantConstraintWarning,
    canonical_to_prob,
    constraint_eval,
    cressie_read,
    extract_invariants,
    fit,
    gamma_matrix,
    kl,
    rank_residual,
    theta_from_prob,
)
from rcassoc import estimation
from rcassoc.estimation import (
    _GAIN_ULPS,
    _along,
    _curvature,
    _factor,
    _info_product,
    _info_solve,
    _multiplier_gradient,
    _multiplier_step,
    _newton_cg,
    _objective,
    _search,
    _Workspace,
    LinearConstraint,
    constraint_from_name,
    sweep,
)
from rcassoc.rank import DeflationPlan

PAPER_LAMBDA = -0.04
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spec(rank, constraints=(), lam=PAPER_LAMBDA, pair=("G", "G")):
    return ModelSpec(pair=pair, family=cressie_read(lam), rank=rank, linear_constraints=constraints)


def _param(pi):
    pi = np.asarray(pi, dtype=np.float64)
    return CanonicalParam(theta_from_prob(pi), pi.shape)


def _score_and_info(theta, y, shape):
    """Score, and the information as the inverse of ``_info_solve``, at ``theta``."""
    ws = _Workspace(theta, _spec(1), shape, None)
    info_inv = np.column_stack([_info_solve(y.sum(), ws.pi, e) for e in np.eye(theta.size)])
    return ws.score(y), np.linalg.inv(info_inv)


def _dense_info(pi, n):
    """n (diag(pi) - pi pi') on the first d cells, formed densely."""
    return n * (np.diag(pi) - np.outer(pi, pi))[:-1, :-1]


def _iterate(theta, y, spec, shape, mu=0.0):
    """One outer iteration of fit from ``theta`` with penalty ``mu`` so far,
    built from fit's own helpers: (h, score, cell probabilities, direction,
    step length or None, the penalty the step was searched with)."""
    linear = spec.linear_system(shape)
    ws = _Workspace(theta, spec, shape, linear)
    h, plan = ws.constraints()
    s = ws.score(y)
    n = y.sum()
    hc = ws.scaled_jacobian(n)
    direction, lam, _, _ = _multiplier_step(s, h, hc, n, ws.pi, _factor(hc, warn=True))
    mu = max(mu, 2.0 * float(np.abs(lam).max(initial=0.0)) / n)
    f0 = ws.loglik(y) / n - mu * float(np.abs(h).sum())
    fp0 = float(s @ direction) / n - mu * float(np.sign(h) @ _along(hc, n, ws.pi, direction))
    t = _search(
        f0,
        fp0,
        lambda t: _objective(_Workspace(theta + t * direction, spec, shape, linear), y, plan, mu),
    )
    return h, s, ws.pi, direction, t, mu


def _scaled(jac, n, pi):
    """C H for the theta jacobian ``jac`` (rows are constraint gradients),
    with C = [diag(p)^-1/2; pi_last^-1/2 1'] / sqrt(n), so C'C = F^-1,
    formed apart from the workspace."""
    return np.column_stack([jac / np.sqrt(pi[:-1]), jac.sum(axis=1) / np.sqrt(pi[-1])]) / np.sqrt(n)


def _record_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record the keyword arguments of each call;
    returns the record."""
    calls = []
    original = getattr(module, name)

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_canonical_zero_theta_is_uniform():
    p = CanonicalParam(np.zeros(8), (3, 3))
    np.testing.assert_allclose(canonical_to_prob(p), np.full((3, 3), 1.0 / 9.0), atol=1e-15)


def test_canonical_by_hand():
    p = CanonicalParam(np.array([np.log(2.0), 0.0, 0.0]), (2, 2))
    np.testing.assert_allclose(
        canonical_to_prob(p), np.array([[0.4, 0.2], [0.2, 0.2]]), atol=1e-14
    )


def test_canonical_round_trip(random_table):
    rng = np.random.default_rng(60)
    for shape in [(2, 2), (3, 4), (5, 5)]:
        pi = random_table(rng, shape)
        np.testing.assert_allclose(canonical_to_prob(_param(pi)), pi, atol=1e-12)


def test_canonical_param_validates():
    assert CanonicalParam(np.zeros(5), [2, 3]).shape == (2, 3)
    with pytest.raises(ValueError, match="theta length"):
        CanonicalParam(np.zeros(4), (2, 2))
    with pytest.raises(ValueError, match="theta length"):
        CanonicalParam(np.zeros(6), (2, 3))
    with pytest.raises(ValueError):
        theta_from_prob(np.array([[0.5, 0.5], [0.0, 0.0]]))


def test_score_vanishes_at_saturated_mle(random_table):
    rng = np.random.default_rng(62)
    for _ in range(20):
        pi = random_table(rng, (3, 4))
        y = 1000.0 * pi.reshape(-1)
        s, info = _score_and_info(theta_from_prob(pi), y, pi.shape)
        assert np.abs(s).max() <= 1e-9 * y.sum()
        np.testing.assert_allclose(info, info.T, atol=1e-9)
        assert np.linalg.eigvalsh(info).min() > 0
        np.testing.assert_allclose(info, _dense_info(pi.reshape(-1), y.sum()), atol=1e-9)


def test_info_is_minus_loglik_hessian(random_table):
    rng = np.random.default_rng(63)
    pi = random_table(rng, (3, 3))
    y = rng.integers(5, 60, size=9).astype(np.float64)
    theta = theta_from_prob(pi)
    d = theta.size
    _, info = _score_and_info(theta, y, (3, 3))

    def grad(th):
        return _score_and_info(th, y, (3, 3))[0]

    eps = 1e-6
    hess = np.empty((d, d))
    for c in range(d):
        step = np.zeros(d)
        step[c] = eps
        hess[:, c] = (grad(theta + step) - grad(theta - step)) / (2 * eps)
    np.testing.assert_allclose(-hess, info, atol=1e-4 * max(1.0, np.abs(info).max()))


def test_score_info_scale_with_n(random_table):
    rng = np.random.default_rng(64)
    pi = random_table(rng, (3, 3))
    y = rng.integers(5, 60, size=9).astype(np.float64)
    theta = theta_from_prob(random_table(rng, (3, 3)))
    s1, i1 = _score_and_info(theta, y, (3, 3))
    s2, i2 = _score_and_info(theta, 2.0 * y, (3, 3))
    np.testing.assert_allclose(s2, 2.0 * s1, atol=1e-10)
    np.testing.assert_allclose(i2, 2.0 * i1, atol=1e-10)


def test_constraint_sizes(random_table):
    rng = np.random.default_rng(65)
    pi = random_table(rng, (5, 5))
    p = _param(pi)
    h, big_h = constraint_eval(p, _spec(4))
    assert h.size == 0 and big_h.shape == (24, 0)
    h, big_h = constraint_eval(p, _spec(1))
    assert h.size == 9 and big_h.shape == (24, 9)
    h, big_h = constraint_eval(p, _spec(1, (MarginalShift(),)))
    assert h.size == 12 and big_h.shape == (24, 12)
    with pytest.raises(ValueError):
        constraint_eval(_param(random_table(rng, (3, 4))), _spec(1, (MarginalHomogeneity(),)))
    with pytest.raises(ValueError):
        constraint_eval(p, _spec(5))


def test_constraint_jacobian_finite_difference(random_table):
    rng = np.random.default_rng(66)
    cases = [
        ((4, 4), _spec(1)),
        ((5, 5), _spec(1, (MarginalShift(),))),
        ((4, 4), _spec(0, (MarginalHomogeneity(),), lam=0.5)),
    ]
    for shape, spec in cases:
        pi = random_table(rng, shape)
        theta = theta_from_prob(pi)
        d = theta.size
        table = ContingencyTable.from_probabilities(pi, "G", "G")
        _, plan = rank_residual(gamma_matrix(table, fam=spec.family).values, spec.rank)

        def h_of(th):
            p = CanonicalParam(th, shape)
            return constraint_eval(p, spec, plan=plan)[0]

        h0, big_h = constraint_eval(CanonicalParam(theta, shape), spec, plan=plan)
        assert big_h.shape == (d, h0.size)
        eps = 1e-6
        fd = np.empty((d, h0.size))
        for c in range(d):
            step = np.zeros(d)
            step[c] = eps
            fd[c] = (h_of(theta + step) - h_of(theta - step)) / (2 * eps)
        scale = max(1.0, np.abs(fd).max())
        np.testing.assert_allclose(big_h, fd, atol=1e-5 * scale)


class _AllInvariants(LinearConstraint):
    """The identity restriction on every invariant, so that the constraint
    jacobian is d [eta_row; eta_col; vec gamma] / dtheta."""

    def coefficients(self, shape, pair):
        size = shape[0] + shape[1] - 2 + (shape[0] - 1) * (shape[1] - 1)
        return np.eye(size), np.zeros(size)


def test_invariant_jacobians_match_dense_chain_rule(random_table):
    # the closed form against jac_pi @ dpi/dtheta with the covariance formed
    rng = np.random.default_rng(69)
    for shape, pair, lam in [((4, 4), ("G", "G"), -0.04), ((3, 5), ("L", "C"), 1.5)]:
        pi = random_table(rng, shape)
        # the rank bound is vacuous, so the linear block is all of h
        spec = _spec(min(shape) - 1, (_AllInvariants(),), lam=lam, pair=pair)
        p = pi.reshape(-1)
        cov = (np.diag(p) - np.outer(p, p))[:, :-1]
        c1, c2 = spec.pair
        gamma_pi = rcassoc.kernels.gamma_jacobian_values(pi, c1, c2, lam)
        rows_pi = rcassoc.kernels.marginal_logit_jacobian(pi.sum(axis=1), c1)
        cols_pi = rcassoc.kernels.marginal_logit_jacobian(pi.sum(axis=0), c2)
        eta_pi = np.vstack([np.repeat(rows_pi, shape[1], axis=1), np.tile(cols_pi, (1, shape[0]))])
        h, big_h = constraint_eval(_param(pi), spec)
        assert big_h.shape == (pi.size - 1, pi.size - 1)
        e = sum(shape) - 2
        np.testing.assert_allclose(big_h.T[e:], gamma_pi @ cov, rtol=0, atol=1e-12)
        np.testing.assert_allclose(big_h.T[:e], eta_pi @ cov, rtol=0, atol=1e-12)
        ws = _Workspace(theta_from_prob(pi), spec, shape, spec.linear_system(shape))
        rows, cols, g = extract_invariants(ContingencyTable(pi, *pair), fam=spec.family)
        expected = np.concatenate([rows.values, cols.values, g.values.ravel()])
        np.testing.assert_allclose(ws.invariants, expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(h, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "shape, spec",
    [
        ((5, 5), _spec(1)),
        ((5, 5), _spec(1, (MarginalShift(),))),
        ((5, 5), _spec(4, (MarginalShift(),))),
        ((5, 5), _spec(1, (EqualRowSpacing(),))),
        ((16, 16), _spec(2)),
    ],
    ids=["rank", "rank-shift", "shift", "row-spacing", "large-16x16"],
)
def test_scaled_jacobian_is_c_times_the_constraint_jacobian(shape, spec, random_table, monkeypatch):
    # the workspace's C H, built in cell coordinates, against C H formed
    # from constraint_eval's H in theta; the full gamma jacobian (no P' and
    # Q passed) is formed only for a linear constraint on gamma
    full = []
    jacobian = rcassoc.kernels.gamma_jacobian_values

    def recording(pi, l1, l2, lam, rows=None, cols=None):
        full.append(rows is None and cols is None)
        return jacobian(pi, l1, l2, lam, rows, cols)

    monkeypatch.setattr(rcassoc.kernels, "gamma_jacobian_values", recording)
    pi = random_table(np.random.default_rng(81), shape)
    h, big_h = constraint_eval(_param(pi), spec)
    ws = _Workspace(theta_from_prob(pi), spec, shape, spec.linear_system(shape))
    ws.constraints()
    full.clear()
    n = 1234.0
    got = ws.scaled_jacobian(n)
    want = _scaled(big_h.T, n, ws.pi)
    assert got.shape == (h.size, pi.size)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    gamma_rows = any(isinstance(c, EqualRowSpacing) for c in spec.linear_constraints)
    assert any(full) == gamma_rows


def test_merit_evaluation_replays_without_projectors(mobility_counts):
    # a merit evaluation reads only h: its replayed plan carries no P' and
    # Q, so a C H asked of that point fails loudly instead of reading them
    spec = _spec(1)
    y = mobility_counts.reshape(-1)
    theta = theta_from_prob((mobility_counts + 0.5) / (y.sum() + 12.5))
    _, plan = _Workspace(theta, spec, (5, 5), None).constraints()
    trial = _Workspace(theta + 1e-3 * np.arange(theta.size), spec, (5, 5), None)
    assert np.isfinite(_objective(trial, y, plan, 1.0))
    assert trial._plan == plan
    assert trial._plan.p_t is None and trial._plan.q is None
    with pytest.raises(ValueError, match="carries no P' and Q"):
        trial.scaled_jacobian(y.sum())


def test_as_step_unconstrained_is_newton(random_table):
    rng = np.random.default_rng(67)
    pi = random_table(rng, (5, 5))
    y = rng.integers(1, 80, size=25).astype(np.float64)
    h, s, pi_now, direction, _, _ = _iterate(theta_from_prob(pi), y, _spec(4), (5, 5))
    assert h.size == 0
    info = _dense_info(pi_now, y.sum())
    np.testing.assert_allclose(direction, np.linalg.solve(info, s), atol=1e-10)


def test_as_step_near_zero_at_fit(mobility_counts):
    spec = _spec(1, (MarginalShift(),))
    result = fit(mobility_counts, spec)
    assert result.converged
    h, _, _, direction, _, _ = _iterate(
        result.theta_hat, mobility_counts.reshape(-1), spec, mobility_counts.shape
    )
    assert np.abs(h).max() <= 1e-6
    assert np.abs(direction).max() <= 1e-4


def test_line_search_accepts_first_direction(mobility_counts):
    spec = _spec(1)
    y = mobility_counts
    n = y.sum()
    smoothed = (y + 0.5) / (n + y.size / 2.0)
    theta0 = theta_from_prob(smoothed)
    _, _, _, direction, t, mu = _iterate(theta0, y.reshape(-1), spec, y.shape)

    table = ContingencyTable.from_probabilities(smoothed, "G", "G")
    _, plan = rank_residual(gamma_matrix(table, fam=spec.family).values, 1)

    def merit(theta):
        p = CanonicalParam(theta, y.shape)
        ht, _ = constraint_eval(p, spec, plan=plan)
        pi = canonical_to_prob(p).reshape(-1)
        return float(y.reshape(-1) @ np.log(pi)) / n - mu * float(np.abs(ht).sum())

    assert mu > 0.0
    assert t is not None and 0.0 < t <= 1.0
    assert merit(theta0 + t * direction) > merit(theta0)


def test_search_clips_to_unit_step():
    # concave quadratic with maximum at t = 2: the unit step is taken
    def f(t):
        return t - 0.25 * t * t

    assert _search(f(0.0), 1.0, f) == pytest.approx(1.0)


def _counted(f):
    ts = []

    def wrapped(t):
        ts.append(t)
        return f(t)

    return wrapped, ts


def test_search_takes_unit_step_after_one_evaluation():
    # concave, peaking at t = 4/3 and at t = 5/6: f(1) >= f'(0)/4, so the
    # quadratic through f(0), f'(0), f(1) peaks at t >= 2/3 and t = 1 is
    # taken after one evaluation
    for curvature in (0.375, 0.6):
        feval, ts = _counted(lambda t: t - curvature * t * t)
        assert _search(0.0, 1.0, feval) == 1.0
        assert ts == [1.0]


def test_search_rise_at_unit_step_short_of_quarter_slope_tries_the_peak():
    # f(1) = 0.1 rises but falls short of f'(0)/4 = 0.25: the quadratic
    # through f(0), f'(0) and f(1) is f itself, and its peak 5/9 is tried next
    feval, ts = _counted(lambda t: t - 0.9 * t * t)
    assert _search(0.0, 1.0, feval) == pytest.approx(5.0 / 9.0)
    assert ts == [1.0, pytest.approx(5.0 / 9.0)]


@pytest.mark.parametrize(
    "f, fp0",
    [
        (lambda t: -t, -1.0),
        (lambda t: -t * t, 0.0),
        # a cubic whose slope -(3t - 1)^2 touches 0 at t = 1/3 and never rises
        (lambda t: -t + 3.0 * t * t - 3.0 * t**3, -1.0),
    ],
    ids=["descent", "flat-slope", "cubic-proposal"],
)
def test_search_off_ascent_gives_up_after_unit_step(f, fp0):
    # with f'(0) <= 0 no small step can rise: t = 1 only
    feval, ts = _counted(f)
    assert _search(f(0.0), fp0, feval) is None
    assert ts == [1.0]


@pytest.mark.parametrize(
    "f, expected",
    [
        # f falls at t = 1, so the quadratic's peak 1/4 is clipped up to t = 1/2
        (lambda t: t * (1.0 - 0.1 * t) if t <= 0.6 else -1.0, 0.5),
        # t = 1 misses a rise that only halving below 1/1000 finds
        (lambda t: t if t < 1e-3 else -1.0, 2.0**-10),
    ],
    ids=["clipped-proposal", "small-rise"],
)
def test_search_evaluates_each_step_once(f, expected):
    feval, ts = _counted(f)
    assert _search(f(0.0), 1.0, feval) == expected
    assert len(ts) == len(set(ts)), ts


def test_search_finds_small_rise_on_ascent():
    # f rises only for t < 1e-3; the unit step misses it and halving finds it
    def f(t):
        return t if t < 1e-3 else -1.0

    t = _search(f(0.0), 1.0, f)
    assert t == 2.0**-10


def test_search_stops_at_rounding_floor():
    # a slope of 1e-12 on a function flat to rounding: halving stops once the
    # predicted gain t f'(0) is below the floor, not after 40 halvings
    f0, fp0 = -2.5, 1e-12
    floor = _GAIN_ULPS * np.finfo(np.float64).eps * abs(f0)

    def f(t):
        return f0 - 1e-16 * t

    feval, ts = _counted(f)
    assert _search(f0, fp0, feval) is None
    smallest = min(ts)
    assert smallest * fp0 > floor >= 0.5 * smallest * fp0
    assert len(ts) < 15


def test_fit_saturated_reproduces_empirical(mobility_counts, monkeypatch):
    # no constraint rows: the step is F^-1 s in closed form, with no factorization
    factor_calls = _record_calls(monkeypatch, scipy.linalg.lapack, "dpstrf")
    result = fit(mobility_counts, _spec(4))
    assert factor_calls == []
    assert result.converged
    np.testing.assert_allclose(result.pi_hat, mobility_counts / mobility_counts.sum(), atol=1e-10)
    assert result.deviance <= 1e-8
    assert result.dof == 0
    assert np.isnan(result.p_value)


def test_fit_spacing_regressions(mobility_counts):
    by_constraint = {
        EqualRowSpacing(): 55.88,
        EqualColumnSpacing(): 50.15,
    }
    for constraint, expected in by_constraint.items():
        result = fit(mobility_counts, _spec(1, (constraint,)))
        assert result.converged, result.message
        assert result.deviance == pytest.approx(expected, abs=0.05)
        assert result.dof == 12


def test_manual_iteration_merit_is_monotone(mobility_counts):
    # rank 4 disables the deflation block, so the merit needs no pivot plan
    spec = _spec(4, (MarginalHomogeneity(),))
    y = mobility_counts.reshape(-1)
    n = y.sum()
    start = theta = theta_from_prob((mobility_counts + 0.5) / (n + 12.5))

    def merit(th, mu):
        p = CanonicalParam(th, (5, 5))
        h, _ = constraint_eval(p, spec)
        return float(y @ np.log(canonical_to_prob(p).reshape(-1))) / n - mu * float(np.abs(h).sum())

    mu, h0 = 0.0, None
    for _ in range(25):
        h, _, _, direction, t, mu = _iterate(theta, y, spec, (5, 5), mu)
        if h0 is None:
            h0 = np.abs(h).max()
        if t is None:
            # with the exact penalty a step fails to gain only once stationary
            assert np.abs(h).max() <= 1e-7
            break
        nxt = theta + t * direction
        assert merit(nxt, mu) >= merit(theta, mu) - 1e-12
        theta = nxt
    assert merit(theta, mu) > merit(start, mu)
    assert np.abs(h).max() <= 0.1 * h0


def test_projected_score_at_fit(mobility_counts):
    spec = _spec(1, (MarginalShift(),))
    result = fit(mobility_counts, spec)
    p_hat = CanonicalParam(result.theta_hat, (5, 5))
    h, big_h = constraint_eval(p_hat, spec)
    x = scipy.linalg.null_space(big_h.T)
    ws = _Workspace(result.theta_hat, spec, (5, 5), spec.linear_system((5, 5)))
    s = ws.score(mobility_counts.reshape(-1))
    assert np.abs(x.T @ s).max() <= 1e-6 * mobility_counts.sum()


def test_fit_stops_at_max_iter(mobility_counts, monkeypatch):
    # the stop reports iterate max_iter, the last whose step was computed,
    # with that step's constraint norm and rank: one factorization per
    # iteration and none after; at max_iter = 1 that iterate is the start
    factor_calls = _record_calls(monkeypatch, scipy.linalg.lapack, "dpstrf")
    spec = _spec(1, (MarginalShift(),))
    results = {}
    for max_iter in (1, 3):
        factor_calls.clear()
        results[max_iter] = result = fit(mobility_counts, spec, max_iter=max_iter)
        assert not result.converged
        assert result.message == "maximum iterations reached"
        assert result.iterations == max_iter
        assert len(factor_calls) == max_iter
        h, _ = constraint_eval(CanonicalParam(result.theta_hat, (5, 5)), spec)
        assert result.constraint_norm == np.abs(h).max()
        assert result.dof == 12
    n = mobility_counts.sum()
    start = theta_from_prob((mobility_counts + 0.5) / (n + mobility_counts.size / 2.0))
    np.testing.assert_array_equal(results[1].theta_hat, start)


def test_fit_pivot_failure_at_the_start_reports_no_constraint_norm():
    # a uniform table has gamma = 0 at the smoothed start, so deflation finds
    # no pivot before any step is computed: the fit reports the start, whose
    # constraints could not be evaluated
    result = fit(np.full((4, 4), 10.0), _spec(1))
    assert not result.converged
    assert result.message.startswith("deflation pivot failure")
    assert result.iterations == 1
    assert np.isnan(result.constraint_norm)
    assert result.dof == 0 and np.isnan(result.p_value)
    np.testing.assert_allclose(result.pi_hat, np.full((4, 4), 1 / 16), rtol=1e-15)


@pytest.mark.parametrize("pair, lam", [("GG", 0.16), ("CC", 0.16), ("CC", 1.0)])
def test_fit_converges_where_the_quadratic_merit_stalled(mobility_counts, pair, lam):
    # under the merit ll/n - ||h||^2/2 these sweep cells ended "converged
    # (stationary)": the search found no step before the stop tests held
    result = fit(mobility_counts, _spec(1, lam=lam, pair=tuple(pair)))
    assert result.message == "converged"
    assert result.dof == 9


BOUNDARY_COUNTS = np.array([[34.0, 85.0, 193.0], [28.0, 341.0, 306.0], [0.0, 99.0, 914.0]])
# the fit takes one cell of this table to a subnormal probability while its
# jacobian is still finite, but F^-1 divides by it
SUBNORMAL_COUNTS = np.array(
    [[47.0, 0.0, 123.0], [138.0, 53.0, 0.0], [75.0, 98.0, 45.0], [57.0, 15.0, 0.0]]
)


@pytest.mark.parametrize(
    "counts, pair, lam, cell",
    [
        (BOUNDARY_COUNTS, ("L", "L"), 0.0, (2, 0)),
        (BOUNDARY_COUNTS, ("R", "C"), 0.0, (2, 0)),
        (SUBNORMAL_COUNTS, ("R", "C"), 0.7, (3, 2)),
    ],
)
def test_fit_stops_before_a_cell_underflows(counts, pair, lam, cell):
    # a zero count drives its cell toward 0 until the step is no longer
    # finite; the fit stops at the previous iterate, where it still is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = _spec(1, lam=lam, pair=pair)
        result = fit(counts, spec)
    assert not result.converged
    assert result.message.startswith(f"cell {cell} probability ")
    assert result.message.endswith("finite step; stopped at the previous iterate")
    assert result.dof == (counts.shape[0] - 2) * (counts.shape[1] - 2)
    assert np.isfinite(result.deviance) and np.isfinite(result.loglik)
    assert result.pi_hat.min() >= np.finfo(np.float64).tiny
    ws = _Workspace(result.theta_hat, spec, counts.shape, None)
    h, _ = ws.constraints()
    assert np.isfinite(ws.scaled_jacobian(counts.sum())).all()
    assert result.constraint_norm == np.abs(h).max()


# zero-count tables whose likelihood maximum lies on the boundary of the simplex
STALL_COUNTS = np.array(
    [[161.0, 4.0, 36.0, 12.0], [0.0, 67.0, 0.0, 38.0], [121.0, 54.0, 158.0, 74.0]]
)
STALL_COUNTS_GL = np.array(
    [[0.0, 75.0, 53.0], [90.0, 24.0, 23.0], [0.0, 9.0, 24.0], [9.0, 72.0, 6.0], [37.0, 52.0, 0.0]]
)


@pytest.mark.parametrize(
    "counts, pair, lam",
    [(STALL_COUNTS, ("L", "L"), 0.0), (STALL_COUNTS_GL, ("G", "L"), 0.7)],
)
def test_fit_stopped_away_from_feasibility_is_not_converged(counts, pair, lam):
    # near a vanishing cell the computed direction misses H' direction = -h
    # by more than |h|, so the search finds no ascent step while max |h|
    # is still above tol_h.  Iterative refinement of that system (an open
    # item in ROADMAP.md) may turn these fits into converged ones; a fit
    # that stops infeasible must never be reported as converged.
    tol_h = 1e-7
    result = fit(counts, _spec(1, lam=lam, pair=pair), tol_h=tol_h)
    if result.constraint_norm > tol_h:
        assert result.converged is False
        assert result.message == "line search stalled away from feasibility"


@pytest.mark.parametrize("case", ["headline", "large-16x16"])
def test_p_value_is_the_chi2_survival(case, mobility_counts, monkeypatch):
    # scipy.stats.chi2.sf(x, dof) evaluates scipy.special.chdtrc(dof, x),
    # which fit calls so that importing the package skips scipy.stats
    from scipy.stats import chi2

    if case == "headline":
        counts, spec, dof = mobility_counts, _spec(1, (MarginalShift(),)), 12
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))
        large_table = importlib.import_module("workloads").large_table
        counts, spec, dof = large_table(np.random.default_rng([1, 0])), _spec(2), 169
    result = fit(counts, spec)
    assert result.dof == dof
    assert result.p_value == chi2.sf(result.deviance, dof)


def _strong_large_table(rng):
    """16x16 counts from log pi = a_i + b_j + 2 mu1_i nu1_j + q_i q_j.

    Linear scores on [-1, 1] jittered by sd 0.02, a centred quadratic score
    q scaled to the same spread, main effects of sd 0.1 and a multinomial
    draw of 1,000,000; twice the linear association of the benchmark's
    16x16 tables.
    """
    x = np.linspace(-1.0, 1.0, 16)
    quad = x**2 - np.mean(x**2)
    quad *= x.std() / quad.std()
    while True:
        a = rng.normal(0.0, 0.1, 16)
        b = rng.normal(0.0, 0.1, 16)
        mu1 = x + rng.normal(0.0, 0.02, 16)
        nu1 = x + rng.normal(0.0, 0.02, 16)
        logp = a[:, None] + b[None, :] + 2.0 * np.outer(mu1, nu1) + np.outer(quad, quad)
        pi = np.exp(logp - logp.max())
        pi /= pi.sum()
        counts = rng.multinomial(1_000_000, pi.ravel()).reshape(pi.shape).astype(float)
        if counts.min() > 0:
            return counts


@pytest.mark.parametrize("seed", range(3))
def test_fit_converges_on_strong_association_16x16(seed):
    counts = _strong_large_table(np.random.default_rng([6, seed]))
    result = fit(counts, _spec(2))
    assert result.converged, result.message
    assert result.dof == (16 - 1 - 2) ** 2


@pytest.mark.parametrize(
    "case",
    ["GG-0.96", "GG-0.04", "GG+1.00", "CC-0.96", "CC-0.04", "CC+1.00", "large-16x16"],
)
def test_fit_ends_near_polished_optimum(case, mobility_counts, polished):
    if case == "large-16x16":
        counts, spec = _strong_large_table(np.random.default_rng([6, 1])), _spec(2)
    else:
        pair, lam = case[:2], float(case[2:])
        counts, spec = mobility_counts, _spec(1, lam=lam, pair=(pair[0], pair[1]))
    tol_rel = 1e-9
    result = fit(counts, spec, tol_rel=tol_rel)
    assert result.converged, result.message
    gap = abs(result.deviance - polished(counts, spec).deviance)
    assert gap <= 2.0 * tol_rel * (abs(result.loglik) + 1.0), gap


@pytest.mark.parametrize("k", range(8))
def test_large_fit_ends_near_polished_optimum(k, polished, monkeypatch):
    # the benchmark's 16x16 tables (n = 10^6): the curvature-corrected steps
    # converge fast enough that the default stop is within 1e-4 in deviance
    monkeypatch.syspath_prepend(str(PERFBENCH))
    counts = importlib.import_module("workloads").large_table(np.random.default_rng([1, k]))
    result = fit(counts, _spec(2))
    assert result.converged, result.message
    assert result.products > 0
    gap = abs(result.deviance - polished(counts, _spec(2)).deviance)
    assert gap <= 1e-4, gap


@pytest.mark.parametrize("rank", [1, 2])
def test_lambda_one_pairs_reach_one_deviance(mobility_counts, rank):
    # with F(u) = u - 1 every pair's gamma is a linear image of pi - r c',
    # so all 16 pairs define one rank-K model and must end at one maximum
    results = [
        fit(mobility_counts, _spec(rank, lam=1.0, pair=(a, b))) for a in "LGCR" for b in "LGCR"
    ]
    assert all(r.converged for r in results)
    deviances = [r.deviance for r in results]
    assert max(deviances) - min(deviances) <= 1e-5, deviances


def test_duplicate_constraint_warns_and_matches(mobility_counts):
    single = fit(mobility_counts, _spec(1, (MarginalHomogeneity(),)))
    with pytest.warns(RedundantConstraintWarning):
        doubled = fit(
            mobility_counts, _spec(1, (MarginalHomogeneity(), MarginalHomogeneity()))
        )
    assert doubled.dof == single.dof == 13
    assert doubled.deviance == pytest.approx(single.deviance, abs=1e-6)


def _random_point(rng, d):
    """Sample size, strictly positive cell probabilities and a score in theta."""
    pi = rng.dirichlet(np.ones(d + 1)) + 0.05 / (d + 1)
    return 500.0, pi / pi.sum(), rng.normal(size=d)


def test_factor_constraints_full_row_rank():
    rng = np.random.default_rng(3)
    jac = rng.normal(size=(6, 15))
    h = rng.normal(size=6)
    n, pi, s = _random_point(rng, 15)
    hc = _scaled(jac, n, pi)
    direction, lam, resid, rank = _multiplier_step(s, h, hc, n, pi, _factor(hc, warn=True))
    assert rank == 6
    np.testing.assert_allclose(jac @ direction, -h, rtol=0, atol=1e-10)
    # the direction is F^-1 (s - H lambda) in the step's own multipliers
    np.testing.assert_allclose(direction, _info_solve(n, pi, s - lam @ jac), rtol=0, atol=1e-10)
    # the residual score is F^-1-orthogonal to every constraint gradient
    np.testing.assert_allclose(jac @ _info_solve(n, pi, resid), 0.0, rtol=0, atol=1e-10)


def test_factor_constraints_drops_duplicated_row():
    rng = np.random.default_rng(4)
    jac = rng.normal(size=(4, 10))
    h = rng.normal(size=4)
    n, pi, s = _random_point(rng, 10)
    doubled_jac = np.vstack([jac, jac[1]])
    doubled_h = np.append(h, h[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doubled_hc = _scaled(doubled_jac, n, pi)
        factor = _factor(doubled_hc, warn=True)
        direction, lam, resid, rank = _multiplier_step(s, doubled_h, doubled_hc, n, pi, factor)
    redundant = [w for w in caught if issubclass(w.category, RedundantConstraintWarning)]
    assert len(redundant) == 1
    assert "1 of 5" in str(redundant[0].message)
    assert rank == 4
    np.testing.assert_allclose(doubled_jac @ direction, -doubled_h, rtol=0, atol=1e-10)
    # one copy of the duplicated row is dropped: its multiplier is 0
    assert lam[1] == 0.0 or lam[4] == 0.0
    np.testing.assert_allclose(
        direction, _info_solve(n, pi, s - lam @ doubled_jac), rtol=0, atol=1e-10
    )
    hc = _scaled(jac, n, pi)
    single = _multiplier_step(s, h, hc, n, pi, _factor(hc, warn=True))
    for got, want in zip((direction, resid), (single[0], single[2])):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
    merged = lam[:4].copy()
    merged[1] += lam[4]
    np.testing.assert_allclose(merged, single[1], rtol=0, atol=1e-10)


def _dependent_row(rng, jac, rel):
    """A random combination of the rows of ``jac`` plus a random row of
    ``rel`` times its size: a row dependent on them to within about ``rel``."""
    row = rng.normal(size=len(jac)) @ jac
    noise = rng.normal(size=jac.shape[1])
    return row + rel * np.linalg.norm(row) / np.linalg.norm(noise) * noise


@pytest.mark.parametrize(
    "case, rank",
    [
        ("full-rank", 6),
        ("duplicated", 6),
        ("duplicate-scaled-1e6", 6),
        ("dependent-within-1e-4", 7),
        ("dependent-within-1e-10", 6),
    ],
)
def test_factor_matches_pivoted_qr(case, rank):
    # the pivoted Cholesky of G = H' F^-1 H against a pivoted QR of C H, with
    # C'C = F^-1: both take the row of largest remaining F^-1 norm first, so
    # they give the same |diag R|.  A pivot of G is R_jj^2, so a row is kept
    # while R_jj / R_00 > sqrt(max(k, d) eps): a row dependent to within
    # 1e-4 is kept, one dependent to within 1e-10 is dropped
    rng = np.random.default_rng(8)
    jac = rng.normal(size=(6, 15))
    n, pi, _ = _random_point(rng, 15)
    extra = {
        "full-rank": [],
        "duplicated": [jac[2]],
        "duplicate-scaled-1e6": [1e6 * jac[2]],
        "dependent-within-1e-4": [_dependent_row(rng, jac, 1e-4)],
        "dependent-within-1e-10": [_dependent_row(rng, jac, 1e-10)],
    }[case]
    jac = np.vstack([jac, *extra])
    k, d = jac.shape
    p = pi[:-1]
    # C H and G, formed apart from _factor
    ch = _scaled(jac, n, pi)
    gram = jac @ (jac / p).T / n + np.outer(jac.sum(axis=1), jac.sum(axis=1)) / (n * pi[-1])
    r_qr = scipy.linalg.qr(ch.T, mode="r", pivoting=True)[0]
    diag_qr = np.abs(r_qr.diagonal())
    threshold = np.sqrt(max(k, d) * np.finfo(np.float64).eps)
    assert np.count_nonzero(diag_qr > threshold * diag_qr[0]) == rank
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, r = _factor(ch, warn=True)
    assert len(rows) == rank
    dropped = f"{k - rank} of {k} constraint equations are redundant; dropping dependent rows"
    assert [str(w.message) for w in caught] == ([] if rank == k else [dropped])
    r = np.triu(r)
    scale = np.abs(gram).max()
    np.testing.assert_allclose(r.T @ r, gram[np.ix_(rows, rows)], rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(np.abs(r.diagonal()), diag_qr[:rank], rtol=1e-6)


def test_fit_stops_at_an_overflowing_gram(mobility_counts, monkeypatch):
    # entries of C H above about 1e154 are finite but overflow G: a finite
    # jacobian whose G overflows stops the fit at the previous iterate with
    # the cell message, with no warning and no exception, and LAPACK never
    # sees the inf
    jacobian = _Workspace.scaled_jacobian
    built = []

    def scaled(self, n):
        built.append(None)
        return jacobian(self, n) * (1e160 if len(built) == 2 else 1.0)

    monkeypatch.setattr(_Workspace, "scaled_jacobian", scaled)
    factor_calls = _record_calls(monkeypatch, scipy.linalg.lapack, "dpstrf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit(mobility_counts, _spec(1, (MarginalShift(),)))
    assert result.iterations == 2
    assert len(factor_calls) == 1
    assert not result.converged
    assert result.message.startswith("cell ")
    assert result.message.endswith("finite step; stopped at the previous iterate")
    assert result.dof == 12
    assert np.isfinite(result.deviance)


def _null_space_direction(s, h, jac, n, pi):
    """v - u with u = H'^+ h, X = null_space(H') and dense F: the direction
    the fitter took before the multiplier form."""
    info = _dense_info(pi, n)
    u = np.linalg.lstsq(jac, h, rcond=None)[0]
    x = scipy.linalg.null_space(jac)
    v = x @ np.linalg.solve(x.T @ info @ x, x.T @ (info @ u + s))
    return v - u


@pytest.mark.parametrize("case", ["mobility-shift", "large-16x16", "duplicated"])
def test_multiplier_direction_matches_null_space_form(case, mobility_counts):
    if case == "large-16x16":
        counts = _strong_large_table(np.random.default_rng([6, 0]))
        spec = _spec(2)
    else:
        counts = mobility_counts
        cons = (MarginalShift(),) if case == "mobility-shift" else (MarginalHomogeneity(),) * 2
        spec = _spec(1, cons)
    y = counts.reshape(-1)
    n = y.sum()
    # the iterate after the first step of fit
    theta = theta_from_prob((counts + 0.5) / (n + counts.size / 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RedundantConstraintWarning)
        _, _, _, first, t, _ = _iterate(theta, y, spec, counts.shape)
    theta = theta + t * first
    linear = spec.linear_system(counts.shape)
    ws = _Workspace(theta, spec, counts.shape, linear)
    h, _ = ws.constraints()
    hc = ws.scaled_jacobian(n)
    s = ws.score(y)
    direction = _multiplier_step(s, h, hc, n, ws.pi, _factor(hc, warn=False))[0]
    jac = constraint_eval(CanonicalParam(theta, counts.shape), spec)[1].T
    want = _null_space_direction(s, h, jac, n, ws.pi)
    np.testing.assert_allclose(direction, want, rtol=0, atol=1e-9 * np.abs(want).max())


def test_fit_work_per_iteration(mobility_counts, monkeypatch):
    # jacobians are built once per outer iteration, never at line-search
    # trial points, and the converged result reuses the last iterate's; one
    # pivoted Cholesky per outer iteration; the only workspaces are the start
    # and one per merit evaluation, so none is built outside the line search;
    # the linear constraint matrix is built once per fit
    calls = {"jacobian": 0, "workspace": 0, "coefficients": 0}
    factor_calls = _record_calls(monkeypatch, scipy.linalg.lapack, "dpstrf")

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        rcassoc.kernels,
        "gamma_jacobian_values",
        counting("jacobian", rcassoc.kernels.gamma_jacobian_values),
    )
    monkeypatch.setattr(_Workspace, "__init__", counting("workspace", _Workspace.__init__))
    monkeypatch.setattr(
        MarginalShift, "coefficients", counting("coefficients", MarginalShift.coefficients)
    )
    result = fit(mobility_counts, _spec(1, (MarginalShift(),)))
    assert result.converged
    assert calls["jacobian"] == result.iterations
    assert len(factor_calls) == result.iterations
    assert calls["coefficients"] == 1
    assert calls["workspace"] == 1 + result.evaluations, (calls, result.evaluations)


@pytest.mark.parametrize("pair", ["LL", "GG", "CC"])
def test_fit_eliminates_once_per_pivot_search_and_merit(pair, mobility_counts, monkeypatch):
    # gamma goes through the rank elimination once for each iteration's
    # pivot search, whose steps the jacobian and the curvature gradient at
    # that point reuse, and once for the frozen-plan replay of each merit
    # evaluation and of each curvature product point
    calls = []
    eliminate = rcassoc.rank._eliminate

    def counting(m, rank, pivots=None, projectors=True):
        calls.append(pivots is None)
        return eliminate(m, rank, pivots, projectors)

    monkeypatch.setattr(rcassoc.rank, "_eliminate", counting)
    for lam in (-0.5, 0.0, 1.0):
        calls.clear()
        result = fit(mobility_counts, _spec(1, lam=lam, pair=tuple(pair)))
        assert result.converged
        assert calls.count(True) == result.iterations
        assert calls.count(False) == result.evaluations + result.products


def test_multiplier_step_with_no_independent_row_is_the_saturated_step():
    # constraint gradients that all vanish leave rank 0: no multiplier, and
    # the step is the unconstrained F^-1 s
    rng = np.random.default_rng(5)
    n, pi, s = _random_point(rng, 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hc = np.zeros((2, 9))
        direction, lam, resid, rank = _multiplier_step(s, np.ones(2), hc, n, pi, _factor(hc, warn=True))
    assert [str(w.message) for w in caught] == [
        "2 of 2 constraint equations are redundant; dropping dependent rows"
    ]
    assert rank == 0
    np.testing.assert_array_equal(lam, np.zeros(2))
    np.testing.assert_array_equal(resid, s)
    np.testing.assert_array_equal(direction, _info_solve(n, pi, s))


def test_fit_accepts_table_and_array(mobility, mobility_counts):
    a = fit(mobility, _spec(1))
    b = fit(mobility_counts, _spec(1))
    assert a.deviance == pytest.approx(b.deviance, abs=1e-9)


def test_fit_rejects_bad_counts():
    spec = _spec(1)
    with pytest.raises(ValueError):
        fit(np.array([[1.0, -2.0], [3.0, 4.0]]), _spec(1, pair=("L", "L")))
    with pytest.raises(ValueError):
        fit(np.arange(5.0), spec)
    with pytest.raises(ValueError):
        fit(np.zeros((3, 3)), spec)
    # arrays pass the checks of ContingencyTable.from_counts, which, like
    # read_counts, wants at least 2 rows and 2 columns
    with pytest.raises(ValueError, match="at least 2"):
        fit(np.array([[3.0, 5.0, 7.0]]), _spec(0, pair=("L", "L")))
    with pytest.raises(ValueError, match="finite"):
        fit(np.array([[1.0, np.nan], [3.0, 4.0]]), _spec(1, pair=("L", "L")))
    prob_only = ContingencyTable.from_probabilities(np.full((5, 5), 0.04), "G", "G")
    with pytest.raises(ValueError):
        fit(prob_only, spec)


@pytest.mark.parametrize(
    "constraint, shape, pair, message",
    [
        (MarginalHomogeneity(), (3, 3), ("L", "G"), "requires identical row and column logit types"),
        (MarginalShift(), (2, 2), ("G", "G"), "needs at least 3 categories"),
        (EqualRowSpacing(), (2, 4), ("G", "G"), "needs at least 3 row categories"),
        (EqualColumnSpacing(), (4, 2), ("G", "G"), "needs at least 3 column categories"),
    ],
)
def test_constraint_rejects_a_table_it_does_not_fit(constraint, shape, pair, message):
    with pytest.raises(ValueError, match=f"^{constraint.name} {message}$"):
        _spec(1, (constraint,), pair=pair).linear_system(shape)


def test_constraint_from_name():
    assert isinstance(constraint_from_name(" Marginal-Shift "), MarginalShift)
    with pytest.raises(ValueError, match="unknown constraint 'bogus'; expected one of"):
        constraint_from_name("bogus")


def test_objective_is_minus_inf_where_a_plan_has_no_pivot():
    # a uniform table has gamma = 0 exactly, so replaying any pivot fails
    ws = _Workspace(np.zeros(15), _spec(1), (4, 4), None)
    plan = DeflationPlan((3, 3), ((0, 0),))
    assert _objective(ws, np.full(16, 10.0), plan, 1.0) == -np.inf


def test_model_spec_interface():
    spec = _spec(2, (MarginalShift(),))
    assert spec.rank == 2
    assert [c.name for c in spec.linear_constraints] == ["marginal-shift"]
    with pytest.raises(ValueError):
        _spec(-1)
    with pytest.raises(TypeError):
        ModelSpec(pair=("G", "G"), family=kl(), rank=1, linear_constraints=("not-a-constraint",))
    assert not _spec(1, (EqualRowSpacing(),)).rank_block_active((5, 5))
    assert _spec(1).rank_block_active((5, 5))
    assert not _spec(4).rank_block_active((5, 5))


# a rank block alone, a linear block alone (rank 4 is vacuous on 5x5), both
CURVATURE_SPECS = {
    "rank": _spec(1, lam=0.5, pair=("L", "C")),
    "linear": _spec(4, (MarginalHomogeneity(),)),
    "both": _spec(1, (MarginalShift(),)),
}


def _theta_jacobian(theta, spec, plan):
    """dh/dtheta (rows are constraint gradients) at a 5x5 ``theta`` with the pivots of ``plan``."""
    return constraint_eval(CanonicalParam(theta, (5, 5)), spec, plan=plan)[1].T


def _multiplier_point(rng, spec, random_table):
    """A workspace at a random 5x5 table, its plan and jacobian, and random multipliers."""
    linear = spec.linear_system((5, 5))
    ws = _Workspace(theta_from_prob(random_table(rng, (5, 5))), spec, (5, 5), linear)
    h, plan = ws.constraints()
    return ws, linear, plan, _theta_jacobian(ws.theta, spec, plan), rng.standard_normal(h.size)


@pytest.mark.parametrize("case", sorted(CURVATURE_SPECS))
def test_multiplier_gradient_is_the_weighted_constraint_jacobian(case, random_table):
    # d (lam' h) / dtheta without the jacobian, at the plan's own point and
    # at a nearby point the plan is replayed at
    spec = CURVATURE_SPECS[case]
    rng = np.random.default_rng(71)
    ws, linear, plan, jac, lam = _multiplier_point(rng, spec, random_table)
    for theta in (ws.theta, ws.theta + 1e-3 * rng.standard_normal(ws.theta.size)):
        other = _Workspace(theta, spec, (5, 5), linear)
        want = lam @ _theta_jacobian(theta, spec, plan)
        got = _multiplier_gradient(other.pi, (5, 5), spec, linear, plan, lam)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("case", sorted(CURVATURE_SPECS))
def test_curvature_product_is_the_lagrangian_hessian(case, random_table):
    # M v against a central difference of lam' H' along v, and u' M v = v' M u
    spec = CURVATURE_SPECS[case]
    rng = np.random.default_rng(73)
    ws, linear, plan, jac, lam = _multiplier_point(rng, spec, random_table)
    product = _curvature(ws, lam @ jac, linear, plan, lam)
    u, v = rng.standard_normal((2, ws.theta.size))
    delta = 1e-5

    def grad(theta):
        return lam @ _theta_jacobian(theta, spec, plan)

    want = (grad(ws.theta + delta * v) - grad(ws.theta - delta * v)) / (2.0 * delta)
    got = product(v)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())
    assert u @ got == pytest.approx(v @ product(u), rel=1e-6)


def _tangent_problem(seed):
    """A 6-parameter point with 4 independent constraints, so a 2-dimensional
    tangent space: (n, pi, s, h, jac, its C H, the factor, the projection,
    v -> F v)."""
    rng = np.random.default_rng(seed)
    n, pi, s = _random_point(rng, 6)
    jac, h = rng.normal(size=(4, 6)), rng.normal(size=4)
    hc = _scaled(jac, n, pi)
    factor = _factor(hc, warn=False)

    def project(r):
        return _multiplier_step(r, np.zeros(4), hc, n, pi, factor=factor)[0]

    return n, pi, s, h, jac, hc, factor, project, lambda v: _info_product(n, pi, v)


def test_newton_cg_solves_a_two_dimensional_tangent_problem():
    # two CG steps are exact on a 2-dimensional tangent space: the result is
    # the maximum of s'e - e'(F + M)e / 2 subject to H'e = -h
    n, pi, s, h, jac, hc, factor, project, info = _tangent_problem(79)
    a = np.random.default_rng(80).normal(size=(6, 6))
    curv = n * (a @ a.T) / 10.0
    plain = _multiplier_step(s, h, hc, n, pi, factor=factor)[0]
    corrected, made = _newton_cg(plain, project, info, lambda v: curv @ v)
    kkt = np.block([[_dense_info(pi, n) + curv, jac.T], [jac, np.zeros((4, 4))]])
    want = np.linalg.solve(kkt, np.concatenate([s, -h]))[:6]
    assert made == 3
    np.testing.assert_allclose(corrected, want, rtol=0, atol=1e-9 * np.abs(want).max())
    np.testing.assert_allclose(jac @ corrected, -h, rtol=0, atol=1e-9)


def test_newton_cg_stops_at_non_positive_curvature():
    n, pi, s, h, _, hc, factor, project, info = _tangent_problem(83)
    plain = _multiplier_step(s, h, hc, n, pi, factor=factor)[0]
    corrected, made = _newton_cg(plain, project, info, lambda v: -2.0 * info(v))
    assert corrected is None
    assert made == 2


def test_newton_cg_takes_no_step_where_the_frozen_pivot_vanishes():
    # a uniform LL table has gamma = 0 exactly, and along ones gamma[0, 0]
    # stays 0: the product point's replay finds no pivot, the product is
    # NaN, and CG stops before its first step
    ws = _Workspace(np.zeros(15), _spec(1, lam=0.0, pair=("L", "L")), (4, 4), None)
    plan = DeflationPlan((3, 3), ((0, 0),))
    product = _curvature(ws, np.zeros(15), None, plan, np.ones(4))
    v = np.ones(15)
    assert np.isnan(product(v)).all()
    assert _newton_cg(v, lambda r: r, lambda e: e, product) == (None, 1)


def test_fit_corrects_steps_only_when_every_count_is_positive(mobility_counts):
    spec = _spec(1, lam=0.8, pair=("L", "L"))
    assert fit(mobility_counts, spec).products > 0
    counts = mobility_counts.copy()
    counts[0, 4] = 0.0
    assert fit(counts, spec).products == 0


@pytest.mark.parametrize("scale", [-1.0, 1e30], ids=["descent", "rejected"])
def test_fit_falls_back_to_the_plain_step(scale, mobility_counts, monkeypatch):
    # a corrected direction along which the merit falls, or whose line
    # search finds no step, gives way to the plain step: the fit walks the
    # plain steps' path
    spec = _spec(1, lam=0.8, pair=("L", "L"))
    monkeypatch.setattr(estimation, "_LINEAR_RATE", np.inf)
    plain = fit(mobility_counts, spec)
    assert plain.products == 0
    monkeypatch.undo()
    monkeypatch.setattr(estimation, "_newton_cg", lambda d, *args: (scale * d, 1))
    result = fit(mobility_counts, spec)
    assert result.products > 0
    assert result.iterations == plain.iterations
    np.testing.assert_array_equal(result.theta_hat, plain.theta_hat)
    if scale < 0:
        assert result.evaluations == plain.evaluations
    else:
        assert result.evaluations > plain.evaluations


def test_sweep_rows_run_sorted_pairs_over_lambdas_as_given(mobility_counts):
    rows = sweep(mobility_counts, ("LL", "GG", "LL"), (0.5, -0.5, 0.0))
    assert [(r["pair"], r["lambda"]) for r in rows] == [
        (p, lam) for p in ("GG", "LL") for lam in (0.5, -0.5, 0.0)
    ]
    assert list(rows[0]) == [
        "pair", "lambda", "deviance", "dof", "converged", "iterations", "evaluations",
        "products", "message", "error",
    ]
    result = fit(mobility_counts, _spec(1, lam=-0.5, pair=("L", "L")))
    row = rows[4]
    assert row["error"] is None and row["converged"] is True
    assert row["deviance"] == result.deviance and row["dof"] == result.dof
    assert row["iterations"] == result.iterations and row["message"] == result.message
    assert row["evaluations"] == result.evaluations and row["products"] == result.products


@pytest.mark.parametrize(
    "lam, rank, constraints, error",
    [
        (-1.0, 1, (), "ValueError: lam = -1 is outside this family"),
        (0.0, 5, (), "ValueError: rank 5 exceeds the maximum 4"),
        (0.0, 1, (MarginalShift(),), "ValueError: marginal-shift requires identical"),
    ],
    ids=["lambda", "rank", "constraint"],
)
def test_sweep_records_a_cell_that_cannot_be_fitted(mobility_counts, lam, rank, constraints, error):
    pair = "LG" if constraints else "GG"
    (row,) = sweep(mobility_counts, [pair], [lam], rank=rank, constraints=constraints)
    assert row["pair"] == pair and row["lambda"] == lam
    assert row["error"].startswith(error)
    assert row["converged"] is False
    assert all(row[key] is None for key in estimation._SWEEP_FIELDS if key != "converged")


def test_sweep_checks_the_table_once(mobility_counts, monkeypatch):
    calls = []
    monkeypatch.setattr(estimation, "fit", lambda y, spec: calls.append(spec))
    counts = mobility_counts.copy()
    counts[1, 2] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        sweep(counts, ("GG", "LL"), (0.0, 0.5))
    assert calls == []


def test_sweep_propagates_other_errors(mobility_counts, monkeypatch):
    def broken_fit(y, spec):
        raise RuntimeError("fitter bug")

    monkeypatch.setattr(estimation, "fit", broken_fit)
    with pytest.raises(RuntimeError, match="fitter bug"):
        sweep(mobility_counts, ("GG",), (0.0,))
