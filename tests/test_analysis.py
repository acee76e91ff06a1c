"""Scores, reconstruction, dependence reports, and built-in counterexamples."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcassoc import (
    ContingencyTable,
    MarginalShift,
    ModelSpec,
    RankDeficiencyWarning,
    ReconstructionError,
    collect_nonnegative_gamma_tables,
    counterexample_names,
    counterexample_verify,
    cressie_read,
    dependence_report,
    extract_invariants,
    fit,
    gamma_matrix,
    gamma_matrix_batch,
    kl,
    reconstruct,
    score_correlation,
    svd_scores,
)
from rcassoc import analysis
from rcassoc.analysis import margin_from_logits, row_conditional_cumulative
from rcassoc.interactions import lor_matrix, marginal_logits
from rcassoc.table import LogitType


def test_svd_scores_recover_known_decomposition():
    # gamma = psi * diff(mu) diff(nu)' with mu = nu = (-1, 0, 1), psi = 2;
    # under uniform weights the standardized scores are +-sqrt(3/2) and the
    # association parameter rescales to 2 * (1/sqrt(3))^2 * ... = 4/3
    gamma = 2.0 * np.outer([1.0, 1.0], [1.0, 1.0])
    table = ContingencyTable.from_probabilities(np.full((3, 3), 1.0 / 9.0))
    dec = svd_scores(gamma, table, 1)
    assert dec.rank == 1
    assert dec.psi[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    root = np.sqrt(1.5)
    np.testing.assert_allclose(dec.mu[0], [-root, 0.0, root], atol=1e-12)
    np.testing.assert_allclose(dec.nu[0], [-root, 0.0, root], atol=1e-12)
    np.testing.assert_allclose(dec.gamma_values(), gamma, atol=1e-12)


def test_svd_scores_standardization_and_signs(random_table):
    rng = np.random.default_rng(70)
    for _ in range(25):
        pi = random_table(rng, (4, 5))
        table = ContingencyTable.from_probabilities(pi, "G", "G")
        g = gamma_matrix(table).values
        dec = svd_scores(g, table, 2)
        rowm, colm = pi.sum(axis=1), pi.sum(axis=0)
        for k in range(dec.rank):
            assert rowm @ dec.mu[k] == pytest.approx(0.0, abs=1e-10)
            assert colm @ dec.nu[k] == pytest.approx(0.0, abs=1e-10)
            assert rowm @ dec.mu[k] ** 2 == pytest.approx(1.0, abs=1e-10)
            assert colm @ dec.nu[k] ** 2 == pytest.approx(1.0, abs=1e-10)
            assert dec.mu[k][-1] >= dec.mu[k][0]
        assert np.all(dec.psi >= 0)
        assert np.all(np.diff(dec.psi) <= 1e-12)
        left, sing, right_t = np.linalg.svd(g, full_matrices=False)
        truncated = left[:, : dec.rank] @ np.diag(sing[: dec.rank]) @ right_t[: dec.rank]
        np.testing.assert_allclose(dec.gamma_values(), truncated, atol=1e-10)


def test_svd_scores_zero_matrix_warns():
    table = ContingencyTable.from_probabilities(np.full((3, 3), 1.0 / 9.0))
    with pytest.warns(RankDeficiencyWarning):
        dec = svd_scores(np.zeros((2, 2)), table, 1)
    assert dec.rank == 0
    with pytest.raises(ValueError):
        score_correlation(table, dec)
    with pytest.raises(ValueError):
        svd_scores(np.zeros((2, 2)), table, 3)


def test_score_correlation_independence_and_affine_invariance(random_table):
    rng = np.random.default_rng(71)
    r = np.array([0.2, 0.3, 0.5])
    c = np.array([0.25, 0.4, 0.35])
    indep = np.outer(r, c)
    dec = dataclasses.replace(
        svd_scores(np.ones((2, 2)), indep, 1),
        mu=np.array([[-1.0, 0.0, 2.0]]),
        nu=np.array([[0.0, 1.0, 3.0]]),
    )
    assert abs(score_correlation(indep, dec)) <= 1e-12

    pi = random_table(rng, (3, 3))
    base = score_correlation(pi, dec)
    shifted = dataclasses.replace(dec, mu=3.0 - 2.0 * dec.mu, nu=0.5 * dec.nu + 1.0)
    assert score_correlation(pi, shifted) == pytest.approx(-base, abs=1e-12)


def test_score_correlation_concentrated_diagonal():
    pi = np.full((3, 3), 0.01 / 6.0)
    np.fill_diagonal(pi, 0.33)
    dec = dataclasses.replace(
        svd_scores(np.ones((2, 2)), pi, 1),
        mu=np.array([[1.0, 2.0, 3.0]]),
        nu=np.array([[1.0, 2.0, 3.0]]),
    )
    assert score_correlation(pi, dec) > 0.9


def test_margin_from_logits_round_trips(random_table):
    rng = np.random.default_rng(72)
    for code in "LGCR":
        for size in (2, 3, 6):
            m = rng.dirichlet(np.ones(size)) + 0.02
            m = m / m.sum()
            logits = marginal_logits(m, code)
            np.testing.assert_allclose(
                margin_from_logits(logits.values, code), m, atol=1e-12
            )
        # an overflowing or a non-finite logit defines no proper margin
        for bad in ([800.0, 0.0], [0.0, np.nan], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="proper positive margin"):
                margin_from_logits(bad, code)
    # global logits must fall, or some cell is <= 0
    with pytest.raises(ValueError, match="proper positive margin"):
        margin_from_logits([0.0, 1.0], "G")


def test_margin_from_logits_global_example():
    m = margin_from_logits([1.3862943611198906, 0.0], "G")
    np.testing.assert_allclose(m, [0.2, 0.3, 0.5], atol=1e-12)


def test_reconstruct_zero_gamma_gives_independence(mobility):
    rows, cols, _ = extract_invariants(mobility)
    pi = reconstruct(rows, cols, np.zeros((4, 4)))
    expected = np.outer(mobility.row_margin(), mobility.col_margin())
    np.testing.assert_allclose(pi, expected, atol=1e-9)


def test_reconstruct_matches_plackett_closed_form():
    # for a 2x2 table the KL interaction is the log odds ratio, so the
    # reconstruction must agree with the classical quadratic solution
    rng = np.random.default_rng(73)
    for _ in range(25):
        r1 = rng.uniform(0.15, 0.85)
        c1 = rng.uniform(0.15, 0.85)
        psi = np.exp(rng.uniform(-2.0, 2.0))
        if abs(psi - 1.0) < 1e-6:
            continue
        a = psi - 1.0
        b = (psi - 1.0) * (r1 + c1) + 1.0
        disc = np.sqrt(b * b - 4.0 * a * psi * r1 * c1)
        roots = [(b - disc) / (2 * a), (b + disc) / (2 * a)]
        lo, hi = max(0.0, r1 + c1 - 1.0), min(r1, c1)
        feasible = [x for x in roots if lo < x < hi]
        assert len(feasible) == 1
        rows = marginal_logits(np.array([r1, 1 - r1]), "L")
        cols = marginal_logits(np.array([c1, 1 - c1]), "L")
        pi = reconstruct(rows, cols, np.array([[np.log(psi)]]))
        assert pi[0, 0] == pytest.approx(feasible[0], abs=1e-9)
        np.testing.assert_allclose(pi.sum(axis=1), [r1, 1 - r1], atol=1e-9)


def test_reconstruct_round_trip(random_table):
    rng = np.random.default_rng(74)
    for pair, fam in [(("L", "L"), kl()), (("G", "G"), cressie_read(0.5)), (("C", "R"), cressie_read(-0.5))]:
        pi = random_table(rng, (4, 4))
        table = ContingencyTable.from_probabilities(pi, *pair)
        rows, cols, g = extract_invariants(table, fam=fam)
        back = reconstruct(rows, cols, g, fam=fam)
        np.testing.assert_allclose(back, pi, atol=1e-9)


ALL_PAIRS = [(a, b) for a in "LGCR" for b in "LGCR"]


def _round_trip(pi, pair, lam):
    """reconstruct(extract_invariants(pi)) and the max |invariant residual| of it."""
    fam = cressie_read(lam)
    target = extract_invariants(ContingencyTable(pi, *pair), fam=fam)
    back = reconstruct(*target, fam=fam)
    got = extract_invariants(ContingencyTable(back, *pair), fam=fam)
    return back, max(np.abs(x.values - t.values).max() for x, t in zip(got, target))


def _lifted_draw(seed, discarded):
    """A 4x4 Dirichlet(1) table lifted by 0.02 / cells, drawn after draws of
    the ``discarded`` sizes."""
    rng = np.random.default_rng(seed)
    for size in discarded:
        rng.dirichlet(np.ones(size))
    pi = rng.dirichlet(np.ones(16)) + 0.02 / 16
    return (pi / pi.sum()).reshape(4, 4)


def test_reconstruct_cg_attainable_target_stall():
    # a Newton solve on all cells stalled on this table at residual 9.3e-3
    pi = _lifted_draw([112, 6], (16,))
    np.testing.assert_allclose(_round_trip(pi, "CG", -0.5)[0], pi, atol=1e-9)


def test_reconstruct_gr_attainable_target_stall():
    # a Newton solve on all cells stalled on this table at residual 3.717e-3
    pi = _lifted_draw([1, 3], (16, 16, 16, 36))
    np.testing.assert_allclose(_round_trip(pi, "GR", -0.5)[0], pi, atol=1e-9)


@pytest.mark.parametrize("lam", [-0.5, 0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids="".join)
@settings(max_examples=8, deadline=None)
@given(i1=st.integers(2, 6), i2=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_reconstruct_inverts_extract_invariants(pair, lam, i1, i2, seed):
    # plain Dirichlet(1) cells, with no floor, so some cells are small
    pi = np.random.default_rng(seed).dirichlet(np.ones(i1 * i2)).reshape(i1, i2)
    np.testing.assert_allclose(_round_trip(pi, pair, lam)[0], pi, atol=1e-9)


@pytest.mark.parametrize("tiny", [1e-6, 1e-9])
def test_reconstruct_tiny_cell(tiny):
    # a corner or interior cell far below the S values it is a second
    # difference of must still reproduce every invariant
    rng = np.random.default_rng(76)
    for pos in [(0, 0), (0, 3), (3, 0), (3, 3), (1, 2), (2, 1)]:
        for pair in ALL_PAIRS:
            for lam in (-0.5, 0.0, 1.0):
                pi = rng.dirichlet(np.ones(16)).reshape(4, 4) + 0.02 / 16
                pi[pos] = 0.0
                pi *= (1.0 - tiny) / pi.sum()
                pi[pos] = tiny
                assert _round_trip(pi, pair, lam)[1] <= 1e-9, (pos, pair, lam)


def test_reconstruct_names_the_unattainable_cut_or_cell(mobility):
    # under lam = 1, F(0+) = -1 is finite, so gamma + 1 leaves some cut
    # with no sign change in its bracket
    fam = cressie_read(1.0)
    rows, cols, g = extract_invariants(mobility, fam=fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReconstructionError, match=r"gamma\[0, 2\]") as exc:
            reconstruct(rows, cols, g.values + 1.0, fam=fam)
    assert exc.value.residual_norm > 0

    # every cut has a root, but a cell comes out negative
    rows, cols, g = extract_invariants(mobility)
    bumped = g.values.copy()
    bumped[1, 1] += 3.0
    with pytest.raises(ReconstructionError, match=r"cell pi\[1, 2\]") as exc:
        reconstruct(rows, cols, bumped)
    assert exc.value.residual_norm > 0


def test_reconstruct_failure_carries_residual(mobility):
    # under lam = 1 the LL margin equations for gamma + 0.3 have no solution
    # with every cell positive; the error names the cell driven to 0
    fam = cressie_read(1.0)
    rows, cols, g = extract_invariants(ContingencyTable(mobility.probs, "L", "L"), fam=fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReconstructionError, match=r"cell pi\[4, 0\]") as exc:
            reconstruct(rows, cols, g.values + 0.3, fam=fam)
    assert exc.value.residual_norm > 0

    with pytest.raises(ValueError):
        reconstruct(rows, cols, np.zeros((2, 2)))
    with pytest.raises(TypeError):
        reconstruct(np.zeros(4), cols, np.zeros((4, 4)))


@pytest.mark.parametrize(
    "pair, column", [("LG", r"gamma\[:, 0\]"), ("GL", r"gamma\[0, :\]"), ("LR", r"gamma\[:, 3\]")]
)
def test_reconstruct_names_the_unattainable_column(mobility, pair, column):
    # under lam = 1, F(0+) = -1 is finite, so the column's one scalar root
    # has no sign change in its bracket
    fam = cressie_read(1.0)
    rows, cols, g = extract_invariants(ContingencyTable(mobility.probs, *pair), fam=fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReconstructionError, match=column) as exc:
            reconstruct(rows, cols, g.values + 0.3, fam=fam)
    assert exc.value.residual_norm > 0


def test_reconstruct_rejects_non_finite_targets(mobility):
    rows, cols, g = extract_invariants(mobility)
    bad_gamma = g.values.copy()
    bad_gamma[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        reconstruct(rows, cols, bad_gamma)
    bad_rows = marginal_logits(mobility.row_margin(), "L")
    bad_rows = dataclasses.replace(bad_rows, values=np.append(bad_rows.values[:-1], np.nan))
    with pytest.raises(ValueError, match="finite"):
        reconstruct(bad_rows, cols, g)


def test_row_conditional_cumulative_by_hand():
    pi = np.array([[0.1, 0.2, 0.1], [0.05, 0.05, 0.5]])
    out = row_conditional_cumulative(pi)
    np.testing.assert_allclose(out, [[0.25, 0.75], [1.0 / 12.0, 1.0 / 6.0]], atol=1e-14)


def test_dependence_report_independence():
    pi = np.outer([0.2, 0.3, 0.5], [0.25, 0.4, 0.35])
    report = dependence_report(pi, pairs=(("G", "G"), ("L", "L"), ("C", "R")))
    assert report.simple_stochastic_order
    assert report.quadrant_dependence
    assert report.collapsed_survival_order
    assert report.violations == ()
    for entry in report.pairs:
        assert entry.gamma_nonneg and entry.eta_nonneg
        assert entry.min_gamma == pytest.approx(0.0, abs=1e-12)
        assert entry.min_eta == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(
        report.conditional_cumulative, np.tile([0.25, 0.65], (3, 1)), atol=1e-12
    )


def test_dependence_report_counterexample_table():
    rec = counterexample_verify("cc")
    report = dependence_report(rec.pi, fam=cressie_read(16.0), pairs=(("C", "C"),))
    entry = report.pairs[0]
    assert entry.gamma_nonneg
    assert not entry.eta_nonneg
    # the audited implications hold even though the CC pair itself flips sign
    assert report.violations == ()
    assert report.simple_stochastic_order
    assert report.collapsed_survival_order


def test_dependence_report_fitted_mobility(mobility_counts):
    spec = ModelSpec(
        pair=("G", "G"),
        family=cressie_read(-0.04),
        rank=1,
        linear_constraints=(MarginalShift(),),
    )
    result = fit(mobility_counts, spec)
    report = dependence_report(result.pi_hat, fam=spec.family)
    assert report.pairs[0].pair[0].value == "G"
    assert report.pairs[0].min_gamma > 0
    assert report.simple_stochastic_order
    assert report.quadrant_dependence
    assert report.collapsed_survival_order
    assert report.violations == ()


@pytest.mark.parametrize("pairs", [(("G", "G"),), (("C", "C"), ("G", "G"))])
def test_dependence_report_computes_each_measure_once(monkeypatch, mobility, pairs):
    calls = []

    def counted(measure, real):
        def wrapper(table, l1, l2, *args):
            calls.append((measure, LogitType.parse(l1), LogitType.parse(l2)))
            return real(table, l1, l2, *args)

        return wrapper

    fam = cressie_read(-0.04)
    monkeypatch.setattr(analysis, "gamma_matrix", counted("gamma", gamma_matrix))
    monkeypatch.setattr(analysis, "lor_matrix", counted("eta", lor_matrix))
    report = dependence_report(mobility.probs, fam=fam, pairs=pairs)
    assert len(calls) == len(set(calls))
    # every pair with a global logit is audited on gamma
    assert sum(measure == "gamma" for measure, *_ in calls) >= 7
    for entry in report.pairs:
        assert entry.min_gamma == gamma_matrix(mobility, *entry.pair, fam).values.min()
        assert entry.min_eta == lor_matrix(mobility, *entry.pair).values.min()


def test_positive_cc_does_not_force_row_survival_order():
    # Every CC interaction is strictly positive, yet row 1's conditional
    # survival drops below row 0's, so the per-row survival order is not a
    # consequence of nonnegative CC interactions.  What does follow, and
    # what the report audits, is the pooled comparison: each row's survival
    # stays below the survival of all rows above it taken together.
    pi = np.array(
        [
            [0.015153, 0.017630, 0.000735],
            [0.087520, 0.093619, 0.005896],
            [0.337296, 0.413950, 0.028200],
        ]
    )
    table = ContingencyTable.from_probabilities(pi, normalize=True)
    gamma = gamma_matrix(table, "C", "C").values
    assert gamma.min() > 0.05
    surv = 1.0 - row_conditional_cumulative(table.probs)
    assert surv[1, 0] < surv[0, 0]
    report = dependence_report(table, pairs=(("C", "C"),))
    assert report.pairs[0].gamma_nonneg
    assert not report.simple_stochastic_order
    assert report.collapsed_survival_order
    assert report.violations == ()


def test_counterexamples_verify():
    assert counterexample_names() == ("ll", "lc", "cc")
    for name in counterexample_names():
        rec = counterexample_verify(name)
        assert rec.passed, name
        assert rec.gamma.min() >= 0.0
        assert rec.eta.min() < 0.0
        np.testing.assert_allclose(rec.gamma, rec.reference_gamma, atol=5e-3)
        if rec.reference_eta is not None:
            np.testing.assert_allclose(rec.eta, rec.reference_eta, atol=2e-3)
    assert counterexample_verify("ll").reference_eta is None
    with pytest.raises(ValueError):
        counterexample_verify("zz")


def test_collect_nonnegative_gamma_tables():
    rng = np.random.default_rng(75)
    for shape, pair, fam, count in [
        ((3, 3), ("L", "L"), kl(), 50),
        ((4, 4), ("C", "C"), cressie_read(0.5), 25),
    ]:
        draws = collect_nonnegative_gamma_tables(rng, shape, pair, fam, count)
        assert draws.shape == (count,) + shape
        np.testing.assert_allclose(draws.sum(axis=(1, 2)), 1.0, atol=1e-12)
        gammas = gamma_matrix_batch(draws, pair[0], pair[1], fam)
        assert gammas.min() >= 0.0
