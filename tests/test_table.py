"""Tables, cut-point events, quadrant probabilities, and counts parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcassoc import CanonicalParam, ContingencyTable, ModelSpec, TableParseError, fit, kernels, kl
from rcassoc.datasets import dataset_names, dataset_path
from rcassoc.interactions import InteractionMatrix, MarginalLogits
from rcassoc.table import LogitType, read_counts

# probability table used in several worked examples below
APPENDIX_LL = np.array(
    [
        [0.1444, 0.1018, 0.0939],
        [0.0979, 0.1117, 0.1175],
        [0.0914, 0.1178, 0.1236],
    ]
)


def _event(size, logit, x, b):
    """1-based categories of E(x, b) on a margin, read off the kernel operator."""
    ops = kernels._operator(size, logit)
    return tuple(int(k) + 1 for k in np.flatnonzero(ops[b * (size - 1) + x - 1]))


def _quadrants(pi, row_logit, col_logit):
    """Event probabilities (p, p1, p2) of every cut, indexed [u, i-1, v, j-1]."""
    return kernels._quadrants(pi, row_logit, col_logit)


def test_logit_type_parse():
    assert LogitType.parse("g") is LogitType.GLOBAL
    assert LogitType.parse(LogitType.LOCAL) is LogitType.LOCAL
    assert LogitType.parse(" c ") is LogitType.CONTINUATION
    with pytest.raises(ValueError):
        LogitType.parse("Q")


def test_event_set_examples():
    assert _event(5, "G", 2, 0) == (1, 2)
    assert _event(5, "C", 2, 1) == (3, 4, 5)
    assert _event(3, "L", 1, 1) == (2,)
    # cuts run 1..size-1 and sides are 0 or 1: there is no row for cut 3 or side 2
    for logit in "LGCR":
        assert kernels._operator(3, logit).shape == (2 * 2 + 1, 3)


def test_event_set_disjoint_every_type_and_cut():
    for lt in LogitType:
        for x in range(1, 6):
            e0 = set(_event(6, lt, x, 0))
            e1 = set(_event(6, lt, x, 1))
            assert not e0 & e1
            assert e0 and e1


def test_quadrant_prob_uniform_global():
    p, _, _ = _quadrants(np.full((3, 3), 1 / 9), "G", "G")
    assert p[1, 0, 1, 0] == pytest.approx(4 / 9, abs=1e-14)


def test_quadrant_prob_printed_table():
    pi = np.asarray(APPENDIX_LL)
    p, _, _ = _quadrants(pi, "L", "L")
    assert p[0, 0, 0, 0] == pytest.approx(0.1444, abs=1e-12)
    pcc, _, _ = _quadrants(pi, "C", "C")
    assert pcc[1, 0, 1, 0] == pytest.approx(0.4706, abs=1e-12)


def test_quadrant_prob_global_cells_partition(random_table):
    rng = np.random.default_rng(7)
    for _ in range(20):
        pi = random_table(rng, (4, 5))
        p, _, _ = _quadrants(pi, "G", "G")
        for i in range(1, 4):
            for j in range(1, 5):
                total = sum(p[u, i - 1, v, j - 1] for u in (0, 1) for v in (0, 1))
                assert total == pytest.approx(1.0, abs=1e-12)


def test_quadrant_prob_local_cells_cover_subtable(random_table):
    rng = np.random.default_rng(8)
    pi = random_table(rng, (4, 4))
    p, _, _ = _quadrants(pi, "L", "L")
    for i in range(1, 4):
        for j in range(1, 4):
            total = sum(p[u, i - 1, v, j - 1] for u in (0, 1) for v in (0, 1))
            block = pi[i - 1 : i + 1, j - 1 : j + 1].sum()
            assert total == pytest.approx(block, abs=1e-13)


def test_quadrant_prob_monotone_in_event_size(random_table):
    # global events contain the local ones on the same side of the cut
    rng = np.random.default_rng(9)
    for _ in range(25):
        pi = random_table(rng, (5, 4))
        pl, _, _ = _quadrants(pi, "L", "L")
        pg, _, _ = _quadrants(pi, "G", "G")
        for i in range(1, 5):
            for j in range(1, 4):
                for u in (0, 1):
                    for v in (0, 1):
                        assert pg[u, i - 1, v, j - 1] >= pl[u, i - 1, v, j - 1] - 1e-15


def test_marginal_event_prob():
    m = np.array([[0.2 * 0.2, 0.2 * 0.8], [0.3 * 0.2, 0.3 * 0.8], [0.5 * 0.2, 0.5 * 0.8]])
    _, p1, _ = _quadrants(m, "G", "G")
    assert p1[1, 0] == pytest.approx(0.8, abs=1e-14)
    _, p1r, _ = _quadrants(m, "R", "R")
    assert p1r[0, 1] == pytest.approx(0.5, abs=1e-14)


def test_mobility_margin_event(mobility):
    _, p1, _ = _quadrants(mobility.probs, mobility.row_logit, mobility.col_logit)
    assert p1[0, 0] == pytest.approx(129 / 3500, abs=1e-12)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ContingencyTable(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        ContingencyTable(np.array([[1.2, -0.2], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        ContingencyTable(np.full((2, 2), 0.3))
    with pytest.raises(ValueError):
        ContingencyTable.from_counts([[1, 2], [3, -4]])
    with pytest.raises(ValueError, match="finite"):
        ContingencyTable(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="finite"):
        ContingencyTable.from_counts([[1, 2], [3, np.inf]])
    with pytest.raises(ValueError):
        ContingencyTable.from_probabilities(np.full((1, 4), 0.25))
    t = ContingencyTable.from_probabilities([[2.0, 2.0], [4.0, 2.0]], normalize=True)
    assert t.probs.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError, match="positive total"):
        ContingencyTable.from_probabilities(np.zeros((2, 2)), normalize=True)


def test_probs_are_frozen(mobility):
    with pytest.raises(ValueError):
        mobility.probs[0, 0] = 0.5


def test_margins_and_n(mobility, mobility_counts):
    assert mobility.counts.sum() == 3500
    np.testing.assert_allclose(mobility.row_margin().sum(), 1.0, atol=1e-14)
    np.testing.assert_allclose(
        mobility.probs, mobility_counts / mobility_counts.sum(), atol=1e-15
    )


def test_read_counts_formats(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("# a comment\n1, 2, 3\n\n4 5 6 # trailing\n")
    t = read_counts(p, "G", "L")
    np.testing.assert_array_equal(t.counts, [[1, 2, 3], [4, 5, 6]])
    assert t.row_logit is LogitType.GLOBAL and t.col_logit is LogitType.LOCAL


def test_read_counts_errors(tmp_path):
    bad_tok = tmp_path / "a.csv"
    bad_tok.write_text("1 2\n3 x\n")
    with pytest.raises(TableParseError) as err:
        read_counts(bad_tok)
    assert err.value.line == 2 and err.value.column == 2

    ragged = tmp_path / "b.csv"
    ragged.write_text("1 2 3\n4 5\n")
    with pytest.raises(TableParseError):
        read_counts(ragged)

    for token in ("nan", "inf", "-Infinity"):
        non_finite = tmp_path / "f.csv"
        non_finite.write_text(f"1 2 3\n4 5 {token}\n")
        with pytest.raises(TableParseError, match="non-finite") as err:
            read_counts(non_finite)
        assert err.value.line == 2 and err.value.column == 3

    neg = tmp_path / "c.csv"
    neg.write_text("1 2\n-3 4\n")
    with pytest.raises(TableParseError) as err:
        read_counts(neg)
    assert err.value.line == 2 and err.value.column == 1

    empty = tmp_path / "d.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(TableParseError):
        read_counts(empty)

    single = tmp_path / "e.csv"
    single.write_text("5\n")
    with pytest.raises(TableParseError):
        read_counts(single)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
    cell=st.integers(0, 24),
    token=st.sampled_from(["nan", "NaN", "inf", "Infinity", "-inf", "-Infinity"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_finite_cell_rejected(tmp_path_factory, shape, cell, token, seed):
    counts = np.random.default_rng(seed).integers(0, 50, size=shape).astype(np.float64)
    i, j = divmod(cell % counts.size, shape[1])
    counts[i, j] = float(token)
    finite_total = counts[np.isfinite(counts)].sum() + 1.0
    with pytest.raises(ValueError, match="finite"):
        ContingencyTable(counts / finite_total)
    with pytest.raises(ValueError, match="finite"):
        ContingencyTable.from_counts(counts)
    with pytest.raises(ValueError, match="finite"):
        fit(counts, ModelSpec(pair=("L", "L"), family=kl(), rank=1))

    lines = [" ".join(f"{v:g}" for v in row) for row in counts]
    fields = lines[i].split()
    fields[j] = token
    lines[i] = " ".join(fields)
    path = tmp_path_factory.getbasetemp() / "non_finite.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TableParseError, match="non-finite") as err:
        read_counts(path)
    assert (err.value.line, err.value.column) == (i + 1, j + 1)
    assert f"line {i + 1}, column {j + 1}" in str(err.value)


def test_bundled_dataset(mobility_counts):
    assert "mobility" in dataset_names()
    assert dataset_path("mobility").exists()
    with pytest.raises(ValueError):
        dataset_path("nope")
    assert mobility_counts.sum() == 3500
    assert mobility_counts.shape == (5, 5)
    np.testing.assert_array_equal(mobility_counts[0], [50, 45, 8, 18, 8])
    np.testing.assert_array_equal(mobility_counts[4], [3, 42, 72, 320, 411])


def test_table_copies_its_input():
    # a table is frozen, and the arrays it was built from stay writable
    counts = np.array([[3.0, 5.0], [7.0, 2.0]])
    table = ContingencyTable.from_counts(counts)
    assert counts.flags.writeable
    assert not table.counts.flags.writeable and not table.probs.flags.writeable
    counts[0, 0] = 4.0
    assert table.counts[0, 0] == 3.0


@pytest.mark.parametrize(
    "build, shape, field",
    [
        (lambda a: MarginalLogits(a, "G"), (3,), "values"),
        (lambda a: InteractionMatrix(a, ("G", "G")), (2, 2), "values"),
        (lambda a: CanonicalParam(a, (2, 2)), (3,), "theta"),
        (ContingencyTable, (2, 2), "probs"),
    ],
    ids=["MarginalLogits", "InteractionMatrix", "CanonicalParam", "ContingencyTable"],
)
def test_records_hold_a_frozen_copy(build, shape, field):
    # each record freezes its own copy and leaves the caller's array writable
    given = np.full(shape, 0.25)
    held = getattr(build(given), field)
    assert given.flags.writeable
    assert not held.flags.writeable
    given[...] = 0.5
    assert np.all(held == 0.25)
