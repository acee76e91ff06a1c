"""Acceptance gate: one test per shipped guarantee, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines alongside the pytest outcome.
"""

import time

import numpy as np
import pytest
import scipy.optimize

from rcassoc import (
    CanonicalParam,
    ContingencyTable,
    EqualColumnSpacing,
    EqualRowSpacing,
    MarginalHomogeneity,
    MarginalShift,
    ModelSpec,
    canonical_to_prob,
    collect_nonnegative_gamma_tables,
    constraint_eval,
    counterexample_names,
    counterexample_verify,
    cressie_read,
    extract_invariants,
    fit,
    gamma_matrix,
    gamma_matrix_batch,
    kl,
    lor_matrix_batch,
    rank_residual,
    reconstruct,
    score_correlation,
    svd_scores,
    theta_from_prob,
)
from rcassoc.analysis import row_conditional_cumulative
from rcassoc.estimation import sweep

PAPER_LAMBDA = -0.04

RIGHT_PANEL = np.array(
    [
        [0.3932, 0.7188, 0.7859, 0.9457],
        [0.0560, 0.3852, 0.5670, 0.8906],
        [0.0159, 0.1747, 0.3683, 0.8214],
        [0.0106, 0.0970, 0.2311, 0.7128],
        [0.0058, 0.0516, 0.1314, 0.5298],
    ]
)


def _report(criterion, ok, detail):
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def _spec(rank=1, constraints=(), lam=PAPER_LAMBDA):
    return ModelSpec(
        pair=("G", "G"), family=cressie_read(lam), rank=rank, linear_constraints=constraints
    )


def _random_tables(rng, count, shape, floor=0.02):
    size = shape[0] * shape[1]
    pis = rng.dirichlet(np.ones(size), size=count).reshape((count,) + shape)
    pis = pis + floor / size
    return pis / pis.sum(axis=(1, 2), keepdims=True)


def test_criterion_1_rank1_model_family_deviances(mobility_counts):
    cases = [
        ("none", ()),
        ("equal-row-spacing", (EqualRowSpacing(),)),
        ("equal-column-spacing", (EqualColumnSpacing(),)),
        ("marginal-homogeneity", (MarginalHomogeneity(),)),
        ("marginal-shift", (MarginalShift(),)),
    ]
    start = time.perf_counter()
    results = {name: fit(mobility_counts, _spec(1, cons)) for name, cons in cases}
    elapsed = time.perf_counter() - start

    expected_pairing = {
        "none": (7.60, 9),
        "equal-row-spacing": (55.88, 12),
        "equal-column-spacing": (50.15, 12),
        "marginal-homogeneity": (40.47, 13),
        "marginal-shift": (17.19, 12),
    }
    deviances = {n: r.deviance for n, r in results.items()}
    dofs = {n: r.dof for n, r in results.items()}
    ok = all(r.converged for r in results.values())
    ok = ok and sorted(dofs.values()) == sorted(d for _, d in expected_pairing.values())
    set_ok = all(
        min(abs(d - e) for e, _ in expected_pairing.values()) <= 0.05
        for d in deviances.values()
    )
    pairing_ok = all(
        abs(deviances[n] - e) <= 0.05 and dofs[n] == k
        for n, (e, k) in expected_pairing.items()
    )
    ok = ok and set_ok and pairing_ok and elapsed < 5.0
    detail = (
        "deviances "
        + ", ".join(f"{n}={deviances[n]:.2f}/{dofs[n]}" for n in deviances)
        + f" in {elapsed:.2f}s"
    )
    assert _report("criterion 1 (constrained fit deviances)", ok, detail), detail


def test_criterion_2_final_model_headline_numbers(mobility_counts):
    result = fit(mobility_counts, _spec(1, (MarginalShift(),)))
    fitted = ContingencyTable.from_probabilities(result.pi_hat, "G", "G")
    gamma = gamma_matrix(fitted, fam=cressie_read(PAPER_LAMBDA))
    dec = svd_scores(gamma, fitted, 1)
    corr = score_correlation(fitted.probs, dec)
    ok = (
        result.converged
        and abs(result.p_value - 0.143) <= 0.002
        and abs(dec.psi[0] - 1.98) <= 0.01
        and abs(corr - 0.46) <= 0.01
    )
    detail = f"p={result.p_value:.4f} psi={dec.psi[0]:.4f} corr={corr:.4f} (weighted normalization)"
    assert _report("criterion 2 (headline statistics)", ok, detail), detail


def test_criterion_3_cumulative_conditionals(mobility_counts):
    result = fit(mobility_counts, _spec(1, (MarginalShift(),)))
    panel = row_conditional_cumulative(result.pi_hat)
    err = np.abs(panel - RIGHT_PANEL).max()
    ok = bool(result.converged and err <= 0.005)
    detail = f"max |panel error| = {err:.5f} over 20 entries (tolerance 0.005)"
    assert _report("criterion 3 (conditional distribution panel)", ok, detail), detail


def test_criterion_4_lambda_sweep_shape(mobility_counts):
    lams = np.round(-1.0 + 0.04 * np.arange(51), 12)
    pairs = ("LL", "GG", "CC")
    rows = sweep(mobility_counts, pairs, lams)
    # each pair's rows follow lams; lambda = -1 is outside the family, so
    # its cells hold an error, and they and unconverged cells stay empty
    dev = {
        p: np.array([r["deviance"] if r["converged"] else np.nan for r in rows if r["pair"] == p])
        for p in pairs
    }
    gg = dev["GG"]
    argmin = int(np.nanargmin(gg))
    ok = abs(lams[argmin] - PAPER_LAMBDA) <= 0.04 + 1e-12
    window = range(max(0, argmin - 3), min(51, argmin + 4))
    for i in window:
        for other in ("LL", "CC"):
            if np.isfinite(gg[i]) and np.isfinite(dev[other][i]):
                ok = ok and gg[i] <= dev[other][i] + 1e-9
    fitted_cells = int(sum(np.isfinite(dev[p]).sum() for p in pairs))
    detail = (
        f"GG minimum at lambda={lams[argmin]:+.2f} (deviance {gg[argmin]:.3f}), "
        f"GG below LL and CC on a +-3-step window; {fitted_cells}/153 cells fitted"
    )
    assert _report("criterion 4 (lambda sweep shape)", ok, detail), detail


def test_criterion_5_counterexample_tables():
    start = time.perf_counter()
    records = [counterexample_verify(name) for name in counterexample_names()]
    elapsed = time.perf_counter() - start
    ok = all(r.gamma.min() >= 0.0 and r.eta.min() < 0.0 for r in records)
    ok = ok and elapsed < 1.0
    detail = (
        ", ".join(f"{r.name}: min gamma={r.gamma.min():.4f} min eta={r.eta.min():.4f}" for r in records)
        + f" in {elapsed:.3f}s"
    )
    assert _report("criterion 5 (sign counterexamples)", ok, detail), detail


def test_criterion_6_kl_equivalence():
    rng = np.random.default_rng(601)
    pis = _random_tables(rng, 1000, (4, 4))
    worst = 0.0
    for a in "LGCR":
        for b in "LGCR":
            g = gamma_matrix_batch(pis, a, b, kl())
            e = lor_matrix_batch(pis, a, b)
            worst = max(worst, float(np.abs(g - e).max()))
    ok = worst <= 1e-10
    detail = f"max |gamma(KL) - eta| = {worst:.2e} over 1000 tables x 16 pairs"
    assert _report("criterion 6a (KL equivalence)", ok, detail), detail


def test_criterion_6_rank_lemma():
    rng = np.random.default_rng(602)
    shapes = [(4, 4), (5, 5), (4, 6)]
    worst_low, worst_margin = 0.0, np.inf
    for trial in range(1000):
        k = 1 + trial % 2
        shape = shapes[trial % 3]
        m = np.zeros(shape)
        for _ in range(k):
            m += np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
        scale = np.abs(m).max()
        res, _ = rank_residual(m, k)
        worst_low = max(worst_low, float(np.abs(res).max() / scale))
        bump = 0.05 * scale * np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
        res_hi, _ = rank_residual(m + bump, k)
        worst_margin = min(worst_margin, float(np.abs(res_hi).max() / scale))
    ok = worst_low <= 1e-9 and worst_margin > 1e-9
    detail = (
        f"rank-K residual <= {worst_low:.2e} (tolerance 1e-9); "
        f"rank-(K+1) perturbations keep residual >= {worst_margin:.2e}"
    )
    assert _report("criterion 6b (rank deflation lemma)", ok, detail), detail


def test_criterion_6_constraint_jacobians():
    rng = np.random.default_rng(603)
    spec = _spec(1, lam=0.0)
    eps = 1e-6
    worst = 0.0
    for _ in range(100):
        pi = _random_tables(rng, 1, (4, 4), floor=0.05)[0]
        theta = theta_from_prob(pi)
        table = ContingencyTable.from_probabilities(pi, "G", "G")
        _, plan = rank_residual(gamma_matrix(table, fam=spec.family).values, 1)

        def h_of(th):
            return constraint_eval(CanonicalParam(th, (4, 4)), spec, plan=plan)[0]

        h0, big_h = constraint_eval(CanonicalParam(theta, (4, 4)), spec, plan=plan)
        fd = np.empty_like(big_h)
        for c in range(theta.size):
            step = np.zeros(theta.size)
            step[c] = eps
            fd[c] = (h_of(theta + step) - h_of(theta - step)) / (2 * eps)
        scale = max(1.0, float(np.abs(fd).max()))
        worst = max(worst, float(np.abs(big_h - fd).max() / scale))
    ok = worst <= 1e-5
    detail = f"max relative |analytic - FD| = {worst:.2e} at 100 interior points"
    assert _report("criterion 6c (constraint jacobians)", ok, detail), detail


def test_criterion_6_reconstruction_uniqueness():
    rng = np.random.default_rng(604)
    pairs = [("L", "L"), ("G", "G"), ("C", "C"), ("L", "G"), ("L", "C"), ("C", "G")]
    lams = [-0.5, 0.0, 1.0]
    worst = 0.0
    tables = _random_tables(rng, 200, (4, 4))
    for pi in tables:
        for pair in pairs:
            table = ContingencyTable.from_probabilities(pi, *pair)
            for lam in lams:
                fam = cressie_read(lam)
                rows, cols, g = extract_invariants(table, fam=fam)
                back = reconstruct(rows, cols, g, fam=fam)
                worst = max(worst, float(np.abs(back - pi).max()))
    ok = worst <= 1e-7
    detail = f"max round-trip error {worst:.2e} over 200 tables x 6 pairs x 3 lambdas"
    assert _report("criterion 6d (reconstruction uniqueness)", ok, detail), detail


def test_criterion_6_implication_audit():
    rng = np.random.default_rng(605)
    lams = [-0.5, 0.0, 0.5, 2.0]
    shapes = [(3, 3), (4, 4), (5, 5)]
    per_combo = 850
    g_pairs = tuple((a, b) for a in "LGCR" for b in "LGCR" if "G" in (a, b))
    conclusions = {p: (p,) for p in g_pairs}
    conclusions[("L", "L")] = (("L", "G"), ("G", "L"))
    conclusions[("L", "C")] = (("L", "G"), ("G", "G"))
    conclusions[("C", "C")] = (("G", "G"),)

    checked = {premise: 0 for premise in conclusions}
    violations = 0
    pooled_checked = 0
    pooled_violations = 0
    for lam in lams:
        fam = cressie_read(lam)
        for shape in shapes:
            for premise, concls in conclusions.items():
                draws = collect_nonnegative_gamma_tables(rng, shape, premise, fam, per_combo)
                checked[premise] += draws.shape[0]
                for concl in concls:
                    etas = lor_matrix_batch(draws, concl[0], concl[1])
                    violations += int(np.sum(etas.min(axis=(1, 2)) < -1e-10))
                if premise == ("C", "C"):
                    # Nonnegative CC interactions bound each row's conditional
                    # survival by the survival of all rows above it pooled,
                    # not by the next row alone; the per-row version fails on
                    # a few percent of such draws.
                    cum = np.cumsum(draws / draws.sum(axis=2, keepdims=True), axis=2)
                    surv = 1.0 - cum[:, :, :-1]
                    bad = np.zeros(draws.shape[0], dtype=bool)
                    for i in range(draws.shape[1] - 1):
                        upper = draws[:, i + 1 :, :].sum(axis=1)
                        upper_cum = np.cumsum(
                            upper / upper.sum(axis=1, keepdims=True), axis=1
                        )
                        s_up = 1.0 - upper_cum[:, :-1]
                        bad |= np.any(surv[:, i, :] - s_up > 1e-10, axis=1)
                    pooled_checked += draws.shape[0]
                    pooled_violations += int(bad.sum())
    ok = (
        violations == 0
        and pooled_violations == 0
        and min(checked.values()) >= 10_000
        and pooled_checked >= 10_000
    )
    detail = (
        f"0 expected-sign violations wanted: saw {violations} over "
        f">= {min(checked.values())} tables per implication; "
        f"pooled-survival violations {pooled_violations}/{pooled_checked}"
    )
    assert _report("criterion 6e (nonnegativity implications)", ok, detail), detail


def test_criterion_6_optimizer_cross_check():
    counts = np.array([[40.0, 25.0, 12.0], [22.0, 30.0, 21.0], [10.0, 24.0, 33.0]])
    spec = ModelSpec(pair=("L", "L"), family=kl(), rank=1)
    ours = fit(counts, spec)
    y = counts.reshape(-1)
    n = y.sum()

    def penalized(theta, weight):
        z = np.append(theta, 0.0)
        z -= z.max()
        pi = np.exp(z)
        pi /= pi.sum()
        logp = np.log(pi).reshape(3, 3)
        # local-local KL interactions are adjacent log odds ratios, and the
        # rank-1 requirement for a 3x3 table is one determinant equation
        g = logp[:-1, :-1] - logp[1:, :-1] - logp[:-1, 1:] + logp[1:, 1:]
        c = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        return -float(y @ np.log(pi)) / n + weight * c * c

    theta = theta_from_prob((counts + 0.5) / (n + 4.5))
    for weight in (1e2, 1e4, 1e6, 1e8, 1e10):
        res = scipy.optimize.minimize(
            penalized,
            theta,
            args=(weight,),
            method="BFGS",
            options={"maxiter": 4000, "gtol": 1e-10},
        )
        theta = res.x
    pi_star = canonical_to_prob(CanonicalParam(theta, (3, 3)))
    dev_oracle = float(2.0 * np.sum(y * np.log(y / (n * pi_star.reshape(-1)))))
    gap = abs(ours.deviance - dev_oracle)
    ok = ours.converged and gap <= 1e-4
    detail = f"fit deviance {ours.deviance:.6f} vs penalized oracle {dev_oracle:.6f} (gap {gap:.2e})"
    assert _report("criterion 6f (optimizer cross-check)", ok, detail), detail
