"""Scaled interactions, log-odds ratios, marginal logits, and their jacobians."""

import numpy as np
import pytest

from rcassoc import (
    ContingencyTable,
    cressie_read,
    gamma_matrix,
    gamma_matrix_batch,
    kl,
    lor_matrix_batch,
)
from rcassoc.interactions import (
    InteractionMatrix,
    MarginalLogits,
    lor_matrix,
    marginal_logits,
    table_logits,
)
from rcassoc.kernels import LOGIT_L, gamma_jacobian_values, quadrant_values
from rcassoc.table import LogitType

PAIRS = [(a, b) for a in "LGCR" for b in "LGCR"]

APPENDIX_LL = [[0.1444, 0.1018, 0.0939], [0.0979, 0.1117, 0.1175], [0.0914, 0.1178, 0.1236]]
APPENDIX_CC = [[0.1695, 0.0847, 0.0847], [0.1525, 0.0678, 0.0847], [0.1695, 0.0847, 0.1017]]


def _rho(table, l1=None, l2=None):
    """Dependence ratios p / (p1 p2), indexed [u, i-1, v, j-1] like the quadrants."""
    c1 = LogitType.parse(l1 or table.row_logit).code
    c2 = LogitType.parse(l2 or table.col_logit).code
    p, p1, p2 = quadrant_values(table.probs, c1, c2)
    return p / (p1[:, :, None, None] * p2[None, None, :, :])


def _independent(rng, shape):
    r = rng.dirichlet(np.ones(shape[0])) + 0.05
    c = rng.dirichlet(np.ones(shape[1])) + 0.05
    r, c = r / r.sum(), c / c.sum()
    return np.outer(r, c)


def test_marginal_logits_examples():
    np.testing.assert_allclose(marginal_logits([0.5, 0.5], "G").values, [0.0], atol=1e-14)
    got = marginal_logits([0.2, 0.3, 0.5], "G")
    np.testing.assert_allclose(got.values, [1.3862943611198906, 0.0], atol=1e-12)
    got_c = marginal_logits([0.2, 0.3, 0.5], "C")
    np.testing.assert_allclose(got_c.values, [np.log(4.0), np.log(5.0 / 3.0)], atol=1e-12)
    assert got_c.logit_type is LogitType.CONTINUATION
    assert len(got_c) == 2
    with pytest.raises(ValueError):
        marginal_logits([0.5, 0.0, 0.5], "G")


def test_table_logits(mobility):
    rows, cols = table_logits(mobility)
    assert isinstance(rows, MarginalLogits) and isinstance(cols, MarginalLogits)
    rm = mobility.row_margin()
    want0 = np.log((1 - rm[0]) / rm[0])
    assert rows.values[0] == pytest.approx(want0, abs=1e-12)


def test_rho_independence():
    rng = np.random.default_rng(31)
    pi = _independent(rng, (4, 4))
    t = ContingencyTable.from_probabilities(pi, "G", "G")
    for l1, l2 in PAIRS:
        r = _rho(t, l1, l2)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for u in (0, 1):
                    for v in (0, 1):
                        assert r[u, i - 1, v, j - 1] == pytest.approx(1.0, abs=1e-12)


def test_rho_printed_values():
    t = ContingencyTable.from_probabilities(APPENDIX_LL, "L", "L")
    assert _rho(t)[0, 0, 0, 0] == pytest.approx(1.2723, abs=5e-4)
    t2 = ContingencyTable.from_probabilities([[0.4, 0.1], [0.1, 0.4]], "G", "G")
    assert _rho(t2)[1, 0, 1, 0] == pytest.approx(1.6, abs=1e-14)


def test_gamma_zero_under_independence():
    rng = np.random.default_rng(32)
    fams = [kl(), cressie_read(-0.5), cressie_read(1.0), cressie_read(5.0)]
    for shape in [(3, 3), (4, 5)]:
        pi = _independent(rng, shape)
        t = ContingencyTable.from_probabilities(pi, "L", "L")
        for l1, l2 in PAIRS:
            for fam in fams:
                g = gamma_matrix(t, l1, l2, fam)
                assert isinstance(g, InteractionMatrix)
                np.testing.assert_allclose(g.values, 0.0, atol=1e-12)
                np.testing.assert_allclose(lor_matrix(t, l1, l2).values, 0.0, atol=1e-12)


def test_gamma_equals_lor_under_kl(random_table):
    rng = np.random.default_rng(33)
    for _ in range(25):
        pi = random_table(rng, (4, 4))
        t = ContingencyTable.from_probabilities(pi)
        for l1, l2 in PAIRS:
            g = gamma_matrix(t, l1, l2, kl()).values
            e = lor_matrix(t, l1, l2).values
            np.testing.assert_allclose(g, e, atol=1e-13)


def test_gamma_printed_appendix_tables():
    t = ContingencyTable.from_probabilities(APPENDIX_LL, "L", "L")
    g = gamma_matrix(t, fam=cressie_read(7.0)).values
    assert g.min() >= 0
    np.testing.assert_allclose(
        g, [[0.8100, 0.0900], [0.0810, 0.0090]], atol=5e-3
    )
    tcc = ContingencyTable.from_probabilities(APPENDIX_CC, "C", "C", normalize=True)
    gcc = gamma_matrix(tcc, fam=cressie_read(16.0)).values
    assert gcc.min() >= 0


def test_lor_printed_values():
    t = ContingencyTable.from_probabilities([[0.4, 0.1], [0.1, 0.4]], "L", "L")
    assert lor_matrix(t).values[0, 0] == pytest.approx(np.log(16.0), abs=1e-12)
    tcc = ContingencyTable.from_probabilities(APPENDIX_CC, "C", "C", normalize=True)
    e = lor_matrix(tcc).values
    assert e[1, 1] < 0
    assert min(e[0, 0], e[0, 1], e[1, 0]) > 0
    np.testing.assert_allclose(
        e, [[0.0513, 0.2007], [0.0953, -0.0408]], atol=2e-3
    )


def test_interaction_matrix_interface(mobility):
    g = gamma_matrix(mobility)
    assert g.values.shape == (4, 4)
    assert not g.values.flags.writeable
    assert g.pair == (mobility.row_logit, mobility.col_logit)


def test_zero_cell_rejected():
    pi = np.full((3, 3), 1 / 8.0)
    pi[0, 0] = 0.0
    t = ContingencyTable.from_probabilities(pi, normalize=True)
    with pytest.raises(ValueError):
        gamma_matrix(t)
    with pytest.raises(ValueError):
        lor_matrix(t)


def test_row_reversal_duality(random_table):
    # reversing row categories swaps the two sides of a reverse-continuation
    # event pair, so gamma picks up a sign and runs through the cuts backwards
    rng = np.random.default_rng(34)
    for fam in (kl(), cressie_read(0.5)):
        for l2 in "LGCR":
            pi = random_table(rng, (5, 4))
            t = ContingencyTable.from_probabilities(pi, "R", l2)
            direct = gamma_matrix(t, "R", l2, fam).values
            flipped = ContingencyTable(t.probs[::-1], t.row_logit, t.col_logit)
            dual = gamma_matrix(flipped, "C", l2, fam).values
            np.testing.assert_allclose(direct, -dual[::-1, :], atol=1e-12)


def test_column_reversal_duality(random_table):
    rng = np.random.default_rng(35)
    pi = random_table(rng, (4, 5))
    t = ContingencyTable.from_probabilities(pi, "G", "C")
    direct = gamma_matrix(t, "G", "C", cressie_read(1.5)).values
    flipped = ContingencyTable(t.probs[:, ::-1], t.row_logit, t.col_logit)
    dual = gamma_matrix(flipped, "G", "R", cressie_read(1.5)).values
    np.testing.assert_allclose(direct, -dual[:, ::-1], atol=1e-12)


def test_scaling_shift_invariance(random_table):
    # gamma is a second-order contrast, so replacing F = (u**lam - 1)/lam by
    # u**lam/lam (a constant shift) must not change it
    rng = np.random.default_rng(36)
    lam = 0.75
    fam = cressie_read(lam)
    for _ in range(10):
        pi = random_table(rng, (4, 4))
        t = ContingencyTable.from_probabilities(pi, "G", "L")
        g = gamma_matrix(t, fam=fam).values
        r = _rho(t)
        manual = np.empty_like(g)
        for i in range(1, 4):
            for j in range(1, 4):
                vals = {
                    (u, v): r[u, i - 1, v, j - 1] ** lam / lam for u in (0, 1) for v in (0, 1)
                }
                manual[i - 1, j - 1] = vals[1, 1] - vals[1, 0] - vals[0, 1] + vals[0, 0]
        np.testing.assert_allclose(g, manual, atol=1e-12)


def test_batch_matches_single(random_table):
    rng = np.random.default_rng(37)
    pis = np.stack([random_table(rng, (3, 4)) for _ in range(20)])
    fam = cressie_read(-0.25)
    for l1, l2 in [("L", "L"), ("G", "G"), ("C", "R")]:
        gb = gamma_matrix_batch(pis, l1, l2, fam)
        eb = lor_matrix_batch(pis, l1, l2)
        for k in (0, 7, 19):
            t = ContingencyTable.from_probabilities(pis[k], l1, l2)
            np.testing.assert_allclose(gb[k], gamma_matrix(t, fam=fam).values, atol=1e-13)
            np.testing.assert_allclose(eb[k], lor_matrix(t).values, atol=1e-13)


def test_gamma_jacobian_fd(random_table):
    rng = np.random.default_rng(38)
    eps = 1e-6
    for fam in (kl(), cressie_read(0.5)):
        for l1, l2 in [("L", "L"), ("G", "G"), ("C", "C"), ("L", "G"), ("R", "C")]:
            pi = random_table(rng, (3, 3))
            codes = LogitType.parse(l1).code, LogitType.parse(l2).code
            jac = gamma_jacobian_values(pi, *codes, fam.lam)
            assert jac.shape == (4, 9)
            fd = np.empty_like(jac)
            for c in range(9):
                d = np.zeros(9)
                d[c] = eps
                hi = gamma_matrix_batch((pi.ravel() + d).reshape(1, 3, 3), l1, l2, fam)
                lo = gamma_matrix_batch((pi.ravel() - d).reshape(1, 3, 3), l1, l2, fam)
                fd[:, c] = (hi - lo).ravel() / (2 * eps)
            scale = np.abs(fd).max()
            np.testing.assert_allclose(jac, fd, atol=1e-5 * max(scale, 1.0))


def test_gamma_jacobian_local_kl_diagonal(random_table):
    # for the local pair under KL the marginal-event terms cancel in the
    # four-way contrast, leaving d gamma_11 / d pi_11 = 1 / pi_11
    rng = np.random.default_rng(39)
    pi = random_table(rng, (3, 3))
    jac = gamma_jacobian_values(pi, LOGIT_L, LOGIT_L, 0.0)
    assert jac[0, 0] == pytest.approx(1.0 / pi[0, 0], rel=1e-12)


def test_gamma_jacobian_locality(random_table):
    # cells sharing neither a row nor a column with the local cut events
    # cannot move gamma at that cut
    rng = np.random.default_rng(40)
    pi = random_table(rng, (4, 4))
    jac = gamma_jacobian_values(pi, LOGIT_L, LOGIT_L, cressie_read(2.0).lam)
    # gamma at cut (1, 1) involves rows {1, 2} and columns {1, 2} only
    row_of_cut = jac[0].reshape(4, 4)
    assert np.all(row_of_cut[2:, 2:] == 0.0)


def test_gamma_batch_rejects_nonpositive():
    pis = np.full((2, 3, 3), 1 / 9.0)
    pis[1, 0, 0] = 0.0
    pis[1] /= pis[1].sum()
    with pytest.raises(ValueError):
        gamma_matrix_batch(pis, "G", "G", kl())
