"""Kernels against plain-loop references built from the event definitions and slice sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcassoc import kernels
from rcassoc.rank import DeflationPlan, apply_plan, rank_residual, rank_residual_jacobian

CODES = "LGCR"
PAIRS = [(a, b) for a in CODES for b in CODES]
FAMS = [(0.0, True), (-0.5, False), (0.7, False), (2.0, False)]
SHAPES = [(3, 3), (4, 5), (5, 4)]

# 1-based inclusive categories of E(x, 0) and E(x, 1) for L, G, C, R
DEFINITIONS = {
    "L": lambda x, size: ((x, x), (x + 1, x + 1)),
    "G": lambda x, size: ((1, x), (x + 1, size)),
    "C": lambda x, size: ((x, x), (x + 1, size)),
    "R": lambda x, size: ((1, x), (x + 1, x + 1)),
}


def _tables(rng, shape, n):
    pis = rng.dirichlet(np.ones(shape[0] * shape[1]), size=n).reshape(n, *shape)
    pis = pis + 0.02 / (shape[0] * shape[1])
    return pis / pis.sum(axis=(1, 2), keepdims=True)


def _event_slice(x, b, code, size):
    """0-based slice of the categories of E(x, b) under the definitions above."""
    start, stop = DEFINITIONS[code](x, size)[b]
    return slice(start - 1, stop)


def _reference_quadrant(pi, i, j, u, v, c1, c2):
    """(p, p1, p2) of the (u, v) event pair at cut (i, j), by slice sums."""
    rows = _event_slice(i, u, c1, pi.shape[0])
    cols = _event_slice(j, v, c2, pi.shape[1])
    return pi[rows, cols].sum(), pi[rows, :].sum(), pi[:, cols].sum()


def _reference_interaction(pi, c1, c2, term):
    """Signed sum over (u, v) of term(p, p1, p2), for every cut pair."""
    i1, i2 = pi.shape
    out = np.empty((i1 - 1, i2 - 1))
    for i in range(1, i1):
        for j in range(1, i2):
            acc = 0.0
            for u in (0, 1):
                for v in (0, 1):
                    value = term(*_reference_quadrant(pi, i, j, u, v, c1, c2))
                    acc += value if u == v else -value
            out[i - 1, j - 1] = acc
    return out


def reference_gamma(pi, c1, c2, lam, is_kl):
    def term(p, p1, p2):
        rho = p / (p1 * p2)
        return np.log(rho) if is_kl else (rho**lam - 1.0) / lam

    return _reference_interaction(pi, c1, c2, term)


def reference_lor(pi, c1, c2):
    return _reference_interaction(pi, c1, c2, lambda p, p1, p2: np.log(p))


def _central_difference(fn, pi, eps=1e-7):
    """d vec(fn(pi)) / d vec(pi), one cell at a time; pi is not renormalised."""
    flat = pi.ravel()
    cols = []
    for k in range(flat.size):
        step = np.zeros_like(flat)
        step[k] = eps
        up = fn((flat + step).reshape(pi.shape))
        down = fn((flat - step).reshape(pi.shape))
        cols.append((up - down).ravel() / (2 * eps))
    return np.stack(cols, axis=1)


def test_gamma_twins_agree():
    # the twin of each kernel is the plain-loop reference above
    rng = np.random.default_rng(21)
    for shape in SHAPES:
        pis = _tables(rng, shape, 4)
        for c1, c2 in PAIRS:
            for lam, is_kl in FAMS:
                batch = kernels.gamma_values_batch(pis, c1, c2, lam)
                for k, pi in enumerate(pis):
                    want = reference_gamma(pi, c1, c2, lam, is_kl)
                    single = kernels.gamma_values(pi, c1, c2, lam)
                    np.testing.assert_allclose(single, want, rtol=1e-12, atol=1e-12)
                    np.testing.assert_allclose(batch[k], single, rtol=1e-13, atol=1e-13)


def test_lor_twins_agree():
    rng = np.random.default_rng(22)
    for shape in SHAPES:
        pis = _tables(rng, shape, 4)
        for c1, c2 in PAIRS:
            batch = kernels.lor_values_batch(pis, c1, c2)
            for k, pi in enumerate(pis):
                want = reference_lor(pi, c1, c2)
                single = kernels.lor_values(pi, c1, c2)
                np.testing.assert_allclose(single, want, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(batch[k], single, rtol=1e-13, atol=1e-13)


def test_jacobian_twins_agree():
    rng = np.random.default_rng(23)
    for shape in SHAPES:
        pi = _tables(rng, shape, 1)[0]
        for c1, c2 in PAIRS:
            for lam, is_kl in FAMS:
                jac = kernels.gamma_jacobian_values(pi, c1, c2, lam)
                fd = _central_difference(lambda t: reference_gamma(t, c1, c2, lam, is_kl), pi)
                scale = np.abs(fd).max()
                np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-7 * scale)


def test_gamma_gradient_is_the_weighted_jacobian():
    # d <W, gamma> / d pi is W' (d vec(gamma) / d vec(pi)), reshaped like pi
    rng = np.random.default_rng(29)
    for shape in SHAPES:
        pi = _tables(rng, shape, 1)[0]
        weights = rng.standard_normal((shape[0] - 1, shape[1] - 1))
        for c1, c2 in PAIRS:
            for lam, _ in FAMS:
                want = weights.ravel() @ kernels.gamma_jacobian_values(pi, c1, c2, lam)
                got = kernels.gamma_gradient_values(pi, c1, c2, lam, weights)
                assert got.shape == shape
                np.testing.assert_allclose(
                    got.ravel(), want, rtol=0, atol=1e-13 * np.abs(want).max()
                )


def _pivot_sets(shape, rank):
    """Hand-made pivots in other rows and columns than a search would take:
    down the diagonal, from the last row of the first column, and through
    the middle of the last column."""
    m1, m2 = shape[0] - 1, shape[1] - 1
    sets = [
        [(k, k) for k in range(rank)],
        [(m1 - 1, 0), (0, m2 - 1)],
        [(m1 // 2, m2 - 1), (m1 - 1, m2 // 2)],
    ]
    return [tuple(pivots[:rank]) for pivots in sets]


@pytest.mark.parametrize("shape, rank", [((5, 5), 1), ((5, 6), 2), ((16, 16), 2)])
def test_projected_jacobian_is_the_dense_projection(shape, rank):
    # d vec(P' gamma Q) / d vec(pi) from the kernel's factors, through the
    # plan, against P' (d vec(gamma) / d vec(pi)) Q formed from the full
    # jacobian, at the searched plan and at hand-made ones replayed at gamma
    pi = _tables(np.random.default_rng(37), shape, 1)[0]
    m1, m2 = shape[0] - 1, shape[1] - 1
    for c1, c2 in PAIRS:
        for lam in (-0.5, 0.0, 0.7, 2.0):
            gamma = kernels.gamma_values(pi, c1, c2, lam)
            plans = [rank_residual(gamma, rank)[1]]
            plans += [apply_plan(gamma, DeflationPlan(gamma.shape, pivots))[1]
                      for pivots in _pivot_sets(shape, rank)]
            full = kernels.gamma_jacobian_values(pi, c1, c2, lam).reshape(m1, m2, pi.size)
            for plan in plans:
                want = np.einsum("ai,ijc,jb->abc", plan.p_t, full, plan.q).reshape(-1, pi.size)

                def projected(rows, cols):
                    return kernels.gamma_jacobian_values(pi, c1, c2, lam, rows, cols)

                got = rank_residual_jacobian(plan, projected)
                assert got.shape == ((m1 - rank) * (m2 - rank), pi.size)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_lor_precision_near_zero_cell():
    # a 1e-11 cell under large event sums: the LG event {row 4} x {col 1}
    # must keep its own relative precision in both entry points
    rng = np.random.default_rng(27)
    pi = rng.dirichlet(np.ones(25)).reshape(5, 5) + 0.01
    pi[3, 0] = 1e-11
    pi /= pi.sum()
    want = reference_lor(pi, "L", "G")
    single = kernels.lor_values(pi, "L", "G")
    batch = kernels.lor_values_batch(np.stack([pi, pi[::-1]]), "L", "G")[0]
    np.testing.assert_allclose(single, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(batch, want, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(
    i1=st.integers(2, 6),
    i2=st.integers(2, 6),
    c1=st.sampled_from(CODES),
    c2=st.sampled_from(CODES),
    lam=st.floats(-2.0, 3.0).filter(lambda x: abs(x) > 1e-3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_properties(i1, i2, c1, c2, lam, seed):
    pis = _tables(np.random.default_rng(seed), (i1, i2), 3)
    # under KL, gamma is the log-odds ratio: the margins cancel
    np.testing.assert_allclose(
        kernels.gamma_values_batch(pis, c1, c2, 0.0),
        kernels.lor_values_batch(pis, c1, c2),
        rtol=1e-10,
        atol=1e-10,
    )
    batch = kernels.gamma_values_batch(pis, c1, c2, lam)
    stacked = np.stack([kernels.gamma_values(pi, c1, c2, lam) for pi in pis])
    np.testing.assert_allclose(batch, stacked, rtol=1e-13, atol=1e-13)
    lor_stacked = np.stack([kernels.lor_values(pi, c1, c2) for pi in pis])
    np.testing.assert_allclose(kernels.lor_values_batch(pis, c1, c2), lor_stacked, rtol=1e-13, atol=1e-13)


def test_event_bounds_match_event_sets():
    # operator row b * (size-1) + x - 1 marks E(x, b); the last row is all ones
    for size in (2, 3, 5, 8):
        for code in CODES:
            ops = kernels._operator(size, code)
            assert ops.shape == (2 * size - 1, size)
            np.testing.assert_array_equal(ops[-1], np.ones(size))
            for x in range(1, size):
                for b in (0, 1):
                    want = np.zeros(size)
                    want[_event_slice(x, b, code, size)] = 1.0
                    np.testing.assert_array_equal(ops[b * (size - 1) + x - 1], want)


def test_marginal_logit_values_by_hand():
    m = np.array([0.2, 0.3, 0.5])
    np.testing.assert_allclose(
        kernels.marginal_logit_values(m, "G"),
        [np.log(0.8 / 0.2), np.log(0.5 / 0.5)],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        kernels.marginal_logit_values(m, "C"),
        [np.log(0.8 / 0.2), np.log(0.5 / 0.3)],
        atol=1e-14,
    )
    np.testing.assert_allclose(
        kernels.marginal_logit_values(m, "L"),
        [np.log(0.3 / 0.2), np.log(0.5 / 0.3)],
        atol=1e-14,
    )


def test_marginal_logit_jacobian_fd():
    rng = np.random.default_rng(25)
    for code in CODES:
        m = rng.dirichlet(np.ones(5)) + 0.02
        m = m / m.sum()
        jac = kernels.marginal_logit_jacobian(m, code)
        fd = _central_difference(lambda t: kernels.marginal_logit_values(t, code), m)
        np.testing.assert_allclose(jac, fd, atol=1e-5)


def test_quadrant_prob_value_matches_sum():
    rng = np.random.default_rng(26)
    pi = _tables(rng, (4, 5), 1)[0]
    for c1, c2 in PAIRS:
        p, p1, p2 = kernels._quadrants(pi, c1, c2)
        for i in range(1, 4):
            for j in range(1, 5):
                for u in (0, 1):
                    for v in (0, 1):
                        want = _reference_quadrant(pi, i, j, u, v, c1, c2)
                        assert p[u, i - 1, v, j - 1] == pytest.approx(want[0], abs=1e-15)
                        assert p1[u, i - 1] == pytest.approx(want[1], abs=1e-15)
                        assert p2[v, j - 1] == pytest.approx(want[2], abs=1e-15)


def test_kernels_reject_the_wrong_number_of_axes():
    with pytest.raises(ValueError, match="expected a 2-d probability table"):
        kernels.gamma_values(np.full((1, 2, 2), 0.25), "G", "G", 0.0)
    with pytest.raises(ValueError, match="expected a stack of tables"):
        kernels.gamma_values_batch(np.full((2, 2), 0.25), "G", "G", 0.0)


def test_slabs_are_cached_read_only():
    # the gamma jacobian reads the event slabs of each margin once per call;
    # they are built once per (size, logit), like the event operator
    for size, code in [(5, "G"), (4, "L"), (3, "R")]:
        slabs = kernels._slabs(size, code)
        assert kernels._slabs(size, code) is slabs
        assert not slabs.flags.writeable
        ops = kernels._operator(size, code)
        np.testing.assert_array_equal(slabs[:2].reshape(-1, size), ops[:-1])
        np.testing.assert_array_equal(slabs[2], np.ones((size - 1, size)))
