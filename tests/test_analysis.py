"""Scores, reconstruction, dependence reports, and built-in counterexamples."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcassoc import (
    ContingencyTable,
    DegenerateScoreError,
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


def _implied_gamma(dec):
    # gamma[i, j] = sum_k psi_k (mu[k, i+1] - mu[k, i]) (nu[k, j+1] - nu[k, j])
    return np.einsum("k,ki,kj->ij", dec.psi, np.diff(dec.mu, axis=1), np.diff(dec.nu, axis=1))


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
    np.testing.assert_allclose(_implied_gamma(dec), gamma, atol=1e-12)


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
        np.testing.assert_allclose(_implied_gamma(dec), truncated, atol=1e-10)


def test_svd_scores_zero_matrix_warns():
    table = ContingencyTable.from_probabilities(np.full((3, 3), 1.0 / 9.0))
    with pytest.warns(RankDeficiencyWarning):
        dec = svd_scores(np.zeros((2, 2)), table, 1)
    assert dec.rank == 0
    with pytest.raises(ValueError):
        score_correlation(table, dec)
    with pytest.raises(ValueError):
        svd_scores(np.zeros((2, 2)), table, 3)


def test_constant_scores_are_degenerate():
    # all of the row mass on the first category leaves the row scores
    # without variance under it
    with pytest.raises(DegenerateScoreError, match="constant under the weighting marginals"):
        svd_scores(np.ones((1, 1)), np.array([[0.5, 0.5], [0.0, 0.0]]), 1)
    dec = analysis.ScoreDecomposition(psi=np.ones(1), mu=np.ones((1, 2)), nu=np.array([[0.0, 1.0]]))
    with pytest.raises(DegenerateScoreError, match="zero-variance scores"):
        score_correlation(np.full((2, 2), 0.25), dec)


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
        for size in (1, 2, 3, 6):
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


@pytest.mark.parametrize(
    "pair, lam, rows, cols, shift, name, gap",
    [
        # lam > 0 bounds F below, so these brackets end before the target
        ("LG", 0.5, None, None, 3.0, r"gamma\[:, 0\]", 5.386),
        ("GC", 1.0, None, None, 1.0, r"gamma\[0, 2\]", 0.2084),
        # gamma[0, 1], solved first on the reversed column axis, ends at its
        # bracket's edge, which leaves the next cut no room
        ("CR", 0.0, [0.2, 0.8], [0.2, 0.5, 0.3], [[0.0, -1000.0]], r"gamma\[0, 0\]", np.inf),
    ],
)
def test_reconstruct_names_a_target_past_its_bracket(mobility, pair, lam, rows, cols, shift, name, gap):
    fam = cressie_read(lam)
    if rows is None:
        rows, cols, g = extract_invariants(ContingencyTable(mobility.probs, *pair), fam=fam)
        target = g.values + shift
    else:
        rows, cols = marginal_logits(rows, pair[0]), marginal_logits(cols, pair[1])
        target = np.array(shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReconstructionError, match=rf"target {name} is out of reach") as exc:
            reconstruct(rows, cols, target, fam=fam)
    assert exc.value.residual_norm == pytest.approx(gap, rel=1e-3)


def test_reconstruct_rejects_a_table_that_misses_its_target():
    # an odds ratio of e^10000 needs a cell far below the least double, so
    # the table the scan returns has another gamma
    even = marginal_logits([0.5, 0.5], "G")
    with pytest.raises(ReconstructionError, match="misses the target invariants") as exc:
        reconstruct(even, even, [[1e4]])
    assert exc.value.residual_norm > 1e3


def test_reconstruct_rejects_gamma_of_another_pair(mobility):
    # LL interactions are not GG ones: they must not be read as GG values
    rows, cols, gg = extract_invariants(mobility)
    _, _, ll = extract_invariants(ContingencyTable(mobility.probs, "L", "L"))
    with pytest.raises(ValueError, match="is for pair LL but the logits are of pair GG"):
        reconstruct(rows, cols, ll)
    # plain arrays carry no pair and are taken as the logits' pair
    np.testing.assert_allclose(reconstruct(rows, cols, gg.values), reconstruct(rows, cols, gg))


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


GLOBAL_PAIR_RULES = tuple(
    f"gamma({p}) >= 0 but eta({p}) has a negative entry"
    for p in ("LG", "GL", "GG", "GC", "GR", "CG", "RG")
)
LL_RULE = "gamma(LL) >= 0 implies eta(LG) >= 0 and eta(GL) >= 0"
LC_RULE = "gamma(LC) >= 0 implies eta(LG) >= 0 and eta(GG) >= 0"
CC_RULE = "gamma(CC) >= 0 implies eta(GG) >= 0"
ORDER_RULE = "eta(LG) >= 0 but row-conditional survival order fails"
POOLED_RULE = "gamma(CC) >= 0 but pooled-upper-row survival comparison fails"


@pytest.mark.parametrize(
    "gamma_sign, eta_sign, expected",
    [
        (
            1.0,
            -1.0,
            GLOBAL_PAIR_RULES
            + (f"{LL_RULE}: eta(LG) violates", f"{LL_RULE}: eta(GL) violates")
            + (f"{LC_RULE}: eta(LG) violates", f"{LC_RULE}: eta(GG) violates")
            + (f"{CC_RULE}: eta(GG) violates", POOLED_RULE),
        ),
        (1.0, 1.0, (ORDER_RULE, POOLED_RULE)),
        (-1.0, 1.0, (ORDER_RULE,)),
        (-1.0, -1.0, ()),
    ],
)
def test_every_audit_rule_fires_with_its_message(monkeypatch, gamma_sign, eta_sign, expected):
    # each row's conditional survival falls below the next one's, and below
    # the rows above it pooled, so both ordering rules fail whenever their
    # premises hold; the premises and conclusions on gamma and eta get their
    # signs from the patched measures, which keep every entry away from 0
    pi = np.array([[0.05, 0.1, 0.2], [0.1, 0.1, 0.1], [0.2, 0.1, 0.05]])

    def signed(real, sign):
        def wrapper(table, l1, l2, *args):
            m = real(table, l1, l2, *args)
            return type(m)(sign * (np.abs(m.values) + 1.0), m.pair)

        return wrapper

    monkeypatch.setattr(analysis, "gamma_matrix", signed(gamma_matrix, gamma_sign))
    monkeypatch.setattr(analysis, "lor_matrix", signed(lor_matrix, eta_sign))
    report = dependence_report(pi / pi.sum(), pairs=(("C", "C"),))
    assert not report.simple_stochastic_order
    assert not report.collapsed_survival_order
    assert report.violations == expected


def _quadrant_dependent(pi):
    # P(Y > j | X > i) >= P(Y > j | X <= i) at every cut (i, j)
    def survival(rows):
        return 1.0 - np.cumsum(rows / rows.sum(axis=1, keepdims=True), axis=1)[:, :-1]

    above = np.cumsum(pi[::-1], axis=0)[::-1][1:]
    below = np.cumsum(pi, axis=0)[:-1]
    return bool(np.all(survival(above) - survival(below) >= -1e-10))


def _pooled_survival_order(pi):
    # row by row: no row's conditional survival above that of the rows
    # after it pooled
    surv = 1.0 - row_conditional_cumulative(pi)
    for i in range(pi.shape[0] - 1):
        pooled = pi[i + 1 :].sum(axis=0)
        if np.any(surv[i] - (1.0 - np.cumsum(pooled / pooled.sum())[:-1]) > 1e-10):
            return False
    return True


def _audit_tables(random_table):
    # random tables, draws near the positive-dependence boundary, and an
    # exact independence table last
    rng = np.random.default_rng(83)
    tables = [random_table(rng, (int(a), int(b))) for a, b in rng.integers(2, 6, size=(100, 2))]
    for shape in [(3, 3), (4, 5), (5, 3)]:
        tables.extend(analysis._proposals(rng, shape, 100))
    tables.append(np.outer([0.2, 0.3, 0.5], [0.25, 0.4, 0.35]))
    return tables


@pytest.mark.parametrize(
    "flag, direct",
    [
        ("quadrant_dependence", _quadrant_dependent),
        ("collapsed_survival_order", _pooled_survival_order),
    ],
)
def test_dependence_flags_match_their_direct_definitions(random_table, flag, direct):
    tables = _audit_tables(random_table)
    expected = [direct(pi) for pi in tables]
    assert any(expected) and not all(expected)
    assert expected[-1]
    for pi, want in zip(tables, expected):
        assert getattr(dependence_report(pi), flag) == want


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


def _whole_stack_collect(rng, shape, pair, fam, count):
    # the collector's stream, restated: draw a stack of proposals, build
    # all of them, keep the gamma-nonnegative ones in order, and draw the
    # next stack until ``count`` are held
    i1, i2 = shape
    batch = analysis._BATCH
    keep, have = [], 0
    while have < count:
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
        pis /= pis.sum(axis=(1, 2), keepdims=True)
        ok = np.all(gamma_matrix_batch(pis, pair[0], pair[1], fam) >= 0.0, axis=(1, 2))
        keep.append(pis[ok])
        have += int(ok.sum())
    return np.concatenate(keep)[:count]


def test_collect_keeps_the_whole_stack_stream():
    calls = [
        ((5, 5), ("L", "L"), cressie_read(2.0), 256),  # about 90 stacks
        ((4, 4), ("L", "L"), cressie_read(0.5), 850),  # several stacks
        ((3, 3), ("G", "C"), kl(), 300),
        ((5, 5), ("R", "G"), cressie_read(-0.5), 40),
    ]
    rng, ref = np.random.default_rng(605), np.random.default_rng(605)
    for shape, pair, fam, count in calls:
        got = collect_nonnegative_gamma_tables(rng, shape, pair, fam, count)
        assert np.array_equal(got, _whole_stack_collect(ref, shape, pair, fam, count))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_collect_draws_only_the_stack_it_needs(monkeypatch):
    scored = []

    def counting(draws, *args):
        scored.append(draws.shape[0])
        return gamma_matrix_batch(draws, *args)

    monkeypatch.setattr(analysis, "gamma_matrix_batch", counting)
    # GG on 4x4 accepts about 94% of proposals, so one stack holds 256 tables
    rng, twin = np.random.default_rng(1), np.random.default_rng(1)
    draws = collect_nonnegative_gamma_tables(rng, (4, 4), ("G", "G"), kl(), 256)
    assert draws.shape == (256, 4, 4)
    assert sum(scored) == analysis._BATCH
    analysis._proposals(twin, (4, 4), analysis._BATCH)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize(
    "shape, pair, fam",
    [
        ((4, 4), ("G", "G"), kl()),  # one stack
        ((5, 5), ("L", "L"), cressie_read(2.0)),  # many stacks
    ],
)
def test_collect_prefix_does_not_depend_on_count(shape, pair, fam):
    few = collect_nonnegative_gamma_tables(np.random.default_rng(29), shape, pair, fam, 100)
    many = collect_nonnegative_gamma_tables(np.random.default_rng(29), shape, pair, fam, 300)
    assert np.array_equal(few, many[:100])


def test_collect_gives_up_after_max_batches(monkeypatch):
    monkeypatch.setattr(analysis, "_MAX_BATCHES", 1)
    batch = analysis._BATCH
    with pytest.raises(
        RuntimeError,
        match=rf"could not collect {batch + 1} gamma-nonnegative 3x3 tables for pair "
        rf".*: kept \d+ of {batch} proposals drawn$",
    ):
        collect_nonnegative_gamma_tables(
            np.random.default_rng(1), (3, 3), ("G", "G"), kl(), batch + 1
        )


@pytest.mark.parametrize(
    "shape, count", [((3, 3), -5), ((3, 3), 0), ((3, 3), 2.0), ((1, 3), 10), ((4, 1), 10)]
)
def test_collect_rejects_bad_input_before_drawing(shape, count):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="integer count >= 1 and both dimensions >= 2"):
        collect_nonnegative_gamma_tables(rng, shape, ("G", "G"), kl(), count)
    assert rng.bit_generator.state == state


# targets that raised something other than ReconstructionError, or carried a
# residual of -0.0: (pair, margin sizes, gamma, what the error names)
UNATTAINABLE_EDGES = [
    # two neighbouring G columns' roots more than 709 apart in the wrong
    # order: the cell between them would overflow far below 0
    ("LG", (3, 3), [[800.0, 0.0], [0.0, 0.0]], r"target gamma\[:, 1\] is out of reach"),
    # the Plackett start of cut (1, 1) is a double root whose discriminant
    # rounds below 0; the cut has its root, and the target fails at a cell
    ("GG", (3, 3), [[50.0, 0.0], [0.0, 0.0]], r"cell pi\[0, 1\] = -1.111e-01"),
    # a cell that comes out exactly 0
    ("LG", (2, 3), [[-800.0, 0.0]], r"cell pi\[0, 0\] = 0.000e\+00"),
]


@pytest.mark.parametrize(
    "pair, sizes, gamma, named", UNATTAINABLE_EDGES,
    ids=["g-column-overflow", "plackett-double-root", "zero-cell"],
)
def test_reconstruct_edge_targets_raise_a_positive_residual(pair, sizes, gamma, named):
    rows = marginal_logits(np.full(sizes[0], 1.0 / sizes[0]), pair[0])
    cols = marginal_logits(np.full(sizes[1], 1.0 / sizes[1]), pair[1])
    with pytest.raises(ReconstructionError, match=named) as exc:
        reconstruct(rows, cols, np.array(gamma))
    assert exc.value.residual_norm > 0


def test_reconstruct_perturbed_targets_give_a_table_or_a_positive_residual():
    # a target is attainable or raises ReconstructionError with a positive
    # residual; gamma is perturbed on scales from 0.1 to 1000
    rng = np.random.default_rng(2601)
    pairs = [a + b for a in "LGCR" for b in "LGCR"]
    outcomes = {"table": 0, "error": 0}
    for k in range(400):
        pair = pairs[k % 16]
        shape = tuple(int(v) for v in rng.integers(2, 6, size=2))
        fam = cressie_read(float(rng.choice([-0.5, 0.0, 0.5, 1.0])))
        pi = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        rows, cols, g = extract_invariants(ContingencyTable.from_probabilities(pi, *pair), fam=fam)
        target = g.values + rng.normal(size=g.values.shape) * 10 ** rng.uniform(-1, 3)
        try:
            with np.errstate(all="ignore"):
                reconstruct(rows, cols, target, fam=fam)
        except ReconstructionError as exc:
            assert exc.residual_norm > 0, (k, pair, shape, fam.lam, str(exc))
            outcomes["error"] += 1
        else:
            outcomes["table"] += 1
    assert min(outcomes.values()) > 100, outcomes
