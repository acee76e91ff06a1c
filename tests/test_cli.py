"""End-to-end command line checks driven through main() in-process."""

import csv
import io
import json
import warnings

import numpy as np
import pytest

import rcassoc.cli as cli
from rcassoc import (
    ContingencyTable,
    MarginalShift,
    ModelSpec,
    RankDeficiencyWarning,
    RedundantConstraintWarning,
    cressie_read,
    extract_invariants,
    fit,
    load_mobility,
)
from rcassoc.analysis import DegenerateScoreError, DependenceReport, VerificationRecord
from rcassoc.cli import main
from rcassoc.interactions import marginal_logits
from rcassoc.table import LogitType


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_fit_mobility_marginal_shift(capsys):
    code, payload, _ = run_json(
        capsys, "fit", "mobility", "--lambda=-0.04", "--constraint", "marginal-shift"
    )
    assert code == 0
    assert payload["spec"]["command"] == "fit"
    assert payload["spec"]["lambda"] == pytest.approx(-0.04)
    assert payload["spec"]["constraints"] == ["marginal-shift"]
    fit = payload["fit"]
    assert fit["converged"] is True
    assert fit["deviance"] == pytest.approx(17.1868, abs=1e-3)
    assert fit["dof"] == 12
    assert fit["p_value"] == pytest.approx(0.1427, abs=1e-3)
    # the line searches' merit evaluations, as the library fit counts them
    spec = ModelSpec(("G", "G"), cressie_read(-0.04), 1, (MarginalShift(),))
    assert fit["evaluations"] == cli.fit(load_mobility(), spec).evaluations > 0
    assert payload["scores"]["psi"][0] == pytest.approx(1.9796, abs=1e-3)
    assert payload["correlation"] == pytest.approx(0.4587, abs=1e-3)
    dep = payload["dependence"]
    assert dep["simple_stochastic_order"] is True
    assert dep["quadrant_dependence"] is True
    assert dep["violations"] == []
    assert payload["warnings"] == []
    assert np.asarray(payload["pi_hat"]).shape == (5, 5)
    assert np.asarray(payload["gamma"]).shape == (4, 4)
    assert len(payload["eta"]["rows"]) == 4


def test_fit_saturated(capsys):
    code, payload, _ = run_json(capsys, "fit", "mobility", "--rank", "4")
    assert code == 0
    assert payload["fit"]["deviance"] <= 1e-8
    assert payload["fit"]["dof"] == 0
    assert payload["fit"]["p_value"] is None


def test_fit_csv_carries_the_same_numbers(capsys):
    code, payload, _ = run_json(capsys, "fit", "mobility", "--lambda=-0.04")
    assert code == 0
    code, out, _ = run_cli(capsys, "fit", "mobility", "--lambda=-0.04", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "value"]
    got = {name: json.loads(value) for name, value in rows[1:]}
    want = dict(cli._flatten(cli._jsonable(payload)))
    # the recorded emission format necessarily differs between the two runs
    got.pop("spec.format")
    want.pop("spec.format")
    assert got == want
    assert got["fit.deviance"] == pytest.approx(7.5998, abs=1e-3)


def test_fit_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "fit", "mobility", "--lambda=-0.04")
    _, second, _ = run_cli(capsys, "fit", "mobility", "--lambda=-0.04")
    assert first == second


def test_fit_file_input_matches_dataset_token(capsys, tmp_path):
    counts = np.asarray(load_mobility().counts)
    path = tmp_path / "counts.txt"
    path.write_text("\n".join(" ".join(str(v) for v in row) for row in counts) + "\n")
    _, from_file, _ = run_json(capsys, "fit", str(path), "--lambda=-0.04")
    _, from_token, _ = run_json(capsys, "fit", "mobility", "--lambda=-0.04")
    assert from_file["fit"] == from_token["fit"]
    assert from_file["pi_hat"] == from_token["pi_hat"]


def test_fit_non_convergence_exits_3(capsys, monkeypatch):
    real_fit = cli.fit
    monkeypatch.setattr(cli, "fit", lambda table, spec: real_fit(table, spec, max_iter=1))
    code, payload, _ = run_json(capsys, "fit", "mobility", "--constraint", "marginal-shift")
    assert code == 3
    assert payload["fit"]["converged"] is False


def test_fit_boundary_maximum_exits_3(capsys, tmp_path):
    # a zero count drives its cell toward 0 under LL: the fit stops
    # unconverged with a message naming the cell, never with a traceback
    path = tmp_path / "boundary.txt"
    path.write_text("34 85 193\n28 341 306\n0 99 914\n")
    code, payload, _ = run_json(
        capsys, "fit", str(path), "--rows-logit", "L", "--cols-logit", "L", "--lambda=0"
    )
    assert code == 3
    assert payload["fit"]["converged"] is False
    assert payload["fit"]["message"].startswith("cell (2, 0) probability ")
    code, sweep, _ = run_json(
        capsys, "sweep", str(path), "--pair", "LL", "--lambda=0", "--format", "json"
    )
    assert code == 0
    (cell,) = sweep["cells"]
    assert cell["error"] is None
    assert cell["converged"] is False
    assert cell["message"] == payload["fit"]["message"]


def test_fit_stalled_away_from_feasibility_exits_3(capsys, tmp_path):
    # a zero-count table whose LL maximum lies on the boundary of the
    # simplex; see test_fit_stopped_away_from_feasibility_is_not_converged
    path = tmp_path / "stall.txt"
    path.write_text("161 4 36 12\n0 67 0 38\n121 54 158 74\n")
    code, payload, _ = run_json(
        capsys, "fit", str(path), "--rows-logit", "L", "--cols-logit", "L", "--lambda=0"
    )
    assert code == 3
    assert payload["fit"]["converged"] is False
    assert payload["fit"]["message"] == "line search stalled away from feasibility"
    assert payload["fit"]["constraint_norm"] > 1e-7


def test_fit_pivot_failure_at_the_start_exits_3(capsys, tmp_path):
    # gamma = 0 at the start of a uniform table: no step is computed, so the
    # start's constraint norm is unknown; the scores of gamma = 0 have rank 0,
    # which the payload records and stderr does not show
    path = tmp_path / "uniform.txt"
    path.write_text("10 10 10 10\n" * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload, err = run_json(capsys, "fit", str(path))
    assert code == 3
    assert err == ""
    assert payload["fit"]["message"].startswith("deflation pivot failure")
    assert payload["fit"]["constraint_norm"] is None
    assert payload["fit"]["dof"] == 0
    assert payload["warnings"] == [
        {
            "category": RankDeficiencyWarning.__name__,
            "message": "requested 1 components but the interaction matrix has numerical rank 0",
        }
    ]


def test_fit_passes_other_warnings_through(capsys, monkeypatch):
    report = cli.dependence_report

    def noisy(*args, **kwargs):
        warnings.warn("an unrelated warning", UserWarning)
        return report(*args, **kwargs)

    monkeypatch.setattr(cli, "dependence_report", noisy)
    with pytest.warns(UserWarning, match="an unrelated warning"):
        code, payload, _ = run_json(capsys, "fit", "mobility")
    assert code == 0
    assert payload["warnings"] == []


def test_fit_reports_null_scores_when_they_are_degenerate(capsys, monkeypatch):
    # a fitted table is strictly positive, so its scores are never constant;
    # a stand-in raises the error the payload turns into null scores
    def degenerate(*args):
        raise DegenerateScoreError("score vector is constant under the weighting marginals")

    monkeypatch.setattr(cli, "svd_scores", degenerate)
    code, payload, _ = run_json(capsys, "fit", "mobility")
    assert code == 0
    assert payload["scores"] is None
    assert payload["correlation"] is None


def test_fit_records_redundant_constraints(capsys):
    # a repeated constraint adds 4 equations that depend on the first 4
    args = ("fit", "mobility", "--constraint", "marginal-homogeneity")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload, err = run_json(capsys, *args, "--constraint", "marginal-homogeneity")
    assert code == 0
    assert err == ""
    assert payload["warnings"] == [
        {
            "category": RedundantConstraintWarning.__name__,
            "message": "4 of 17 constraint equations are redundant; dropping dependent rows",
        }
    ]
    _, once, _ = run_json(capsys, *args)
    assert once["warnings"] == []
    assert payload["fit"]["dof"] == once["fit"]["dof"]
    assert payload["fit"]["deviance"] == pytest.approx(once["fit"]["deviance"], abs=1e-6)


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "mobility", "--lambda-grid=-0.12:0.04:0.04", "--pair", "GG"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["pair", "lambda", "deviance", "dof", "converged"]
    body = rows[1:]
    assert [r[0] for r in body] == ["GG"] * 5
    assert [json.loads(r[1]) for r in body] == pytest.approx([-0.12, -0.08, -0.04, 0.0, 0.04])
    deviances = [json.loads(r[2]) for r in body]
    assert all(json.loads(r[4]) is True for r in body)
    assert all(json.loads(r[3]) == 9 for r in body)
    assert max(abs(a - b) for a, b in zip(deviances, deviances[1:])) < 5.0

    code, fit_payload, _ = run_json(capsys, "fit", "mobility", "--lambda=-0.04")
    assert deviances[2] == pytest.approx(fit_payload["fit"]["deviance"], abs=1e-9)


def test_sweep_grid_never_exceeds_its_max(capsys, monkeypatch):
    # the grid alone is under test: every cell fails fast and keeps its lambda
    def no_fit(table, spec):
        raise ValueError("not fitted")

    monkeypatch.setattr(cli, "fit", no_fit)
    lambdas = {}
    for grid in ("0:1:0.6", "-1:1:0.04"):
        code, out, _ = run_cli(capsys, "sweep", "mobility", f"--lambda-grid={grid}", "--pair", "GG")
        assert code == 0
        lambdas[grid] = [json.loads(r[1]) for r in list(csv.reader(io.StringIO(out)))[1:]]
    assert lambdas["0:1:0.6"] == [0.0, 0.6]
    assert len(lambdas["-1:1:0.04"]) == 51
    assert lambdas["-1:1:0.04"][0] == -1.0 and lambdas["-1:1:0.04"][-1] == 1.0


def test_sweep_takes_one_lambda_or_a_grid(capsys, monkeypatch):
    # given both, the sweep exits 2 naming both flags and fits nothing;
    # --lambda alone is a one-point grid
    def no_fit(table, spec):
        raise ValueError("not fitted")

    monkeypatch.setattr(cli, "fit", no_fit)
    argv = ("sweep", "mobility", "--pair", "GG", "--lambda", "0.5", "--format", "json")
    code, out, err = run_cli(capsys, *argv, "--lambda-grid=0:0:1")
    assert code == 2 and out == ""
    assert "argument --lambda-grid: not allowed with argument --lambda" in err

    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert [c["lambda"] for c in payload["cells"]] == [0.5]
    assert payload["spec"]["lambda"] == 0.5 and payload["spec"]["lambda_grid"] is None


def test_sweep_spec_records_lambda_only_without_a_grid(capsys, monkeypatch):
    # the grid replaces --lambda, so a sweep given one records no lambda
    def no_fit(table, spec):
        raise ValueError("not fitted")

    monkeypatch.setattr(cli, "fit", no_fit)
    argv = ("sweep", "mobility", "--pair", "GG", "--format", "json")
    code, payload, _ = run_json(capsys, *argv, "--lambda-grid=0:0:1")
    assert code == 0
    assert "lambda" not in payload["spec"]
    assert payload["spec"]["lambda_grid"] == [0.0, 0.0, 1.0]

    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert payload["spec"]["lambda"] == 0.0 and payload["spec"]["lambda_grid"] is None


def test_sweep_parallel_matches_serial(capsys):
    argv = ["sweep", "mobility", "--lambda-grid=-0.08:0.0:0.04", "--pair", "GG", "--pair", "LL"]
    _, serial, _ = run_cli(capsys, *argv)
    code, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert parallel == serial


def test_sweep_json_format(capsys):
    code, payload, _ = run_json(
        capsys, "sweep", "mobility", "--pair", "GG", "--format", "json"
    )
    assert code == 0
    assert payload["spec"]["command"] == "sweep"
    cells = payload["cells"]
    assert len(cells) == 1
    assert cells[0]["pair"] == "GG" and cells[0]["lambda"] == 0.0
    assert cells[0]["converged"] is True
    # a fitted row carries the fit's iteration count and stop message
    result = fit(load_mobility(), ModelSpec(("G", "G"), cressie_read(0.0), 1))
    assert cells[0]["iterations"] == result.iterations > 0
    assert cells[0]["evaluations"] == result.evaluations > 0
    assert cells[0]["message"] == result.message
    assert cells[0]["error"] is None


def test_sweep_json_failed_row_names_its_error(capsys):
    code, payload, _ = run_json(
        capsys, "sweep", "mobility", "--pair", "GG", "--rank", "5", "--format", "json"
    )
    assert code == 0
    (cell,) = payload["cells"]
    assert cell["deviance"] is None and cell["dof"] is None
    assert cell["converged"] is False
    assert cell["iterations"] is None and cell["message"] is None
    assert cell["evaluations"] is None
    assert cell["error"].startswith("ValueError: rank 5 exceeds the maximum 4")


def test_sweep_records_failed_cells(capsys):
    # rank 5 exceeds the 4x4 interaction matrix of the 5x5 mobility table:
    # the cell is kept with empty deviance/dof and converged false, and the
    # exit code stays 0
    code, out, _ = run_cli(
        capsys, "sweep", "mobility", "--pair", "GG", "--rank", "5"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][2] == "" and rows[1][3] == ""
    assert json.loads(rows[1][4]) is False


def test_sweep_propagates_unexpected_errors(monkeypatch):
    # only the documented fit failures become null cells; a bug surfaces
    def broken_fit(table, spec):
        raise RuntimeError("fitter bug")

    monkeypatch.setattr(cli, "fit", broken_fit)
    with pytest.raises(RuntimeError, match="fitter bug"):
        main(["sweep", "mobility", "--pair", "GG"])


def test_reconstruct_round_trip(capsys, tmp_path):
    table = load_mobility()
    rows, cols, gamma = extract_invariants(table)
    rfile, cfile, gfile = tmp_path / "r.txt", tmp_path / "c.txt", tmp_path / "g.txt"
    rfile.write_text("\n".join(f"{v:.17g}" for v in rows.values) + "\n")
    cfile.write_text("# column logits\n" + ", ".join(f"{v:.17g}" for v in cols.values) + "\n")
    gfile.write_text(
        "\n".join(" ".join(f"{v:.17g}" for v in row) for row in gamma.values) + "\n"
    )
    code, payload, _ = run_json(
        capsys,
        "reconstruct",
        "--row-logits", str(rfile),
        "--col-logits", str(cfile),
        "--gamma", str(gfile),
    )
    assert code == 0
    np.testing.assert_allclose(np.asarray(payload["pi"]), table.probs, atol=1e-7)
    res = payload["residual"]
    assert max(res["row_logits"], res["col_logits"], res["gamma"]) <= 1e-8


def test_reconstruct_unattainable_names_the_cut_exits_3(capsys, tmp_path):
    # under lambda = 1, gamma + 1 on the mobility table leaves cut (0, 2)
    # with no root in its bracket
    fam = cressie_read(1.0)
    rows, cols, gamma = extract_invariants(load_mobility(), fam=fam)
    rfile, cfile, gfile = tmp_path / "r.txt", tmp_path / "c.txt", tmp_path / "g.txt"
    rfile.write_text("\n".join(f"{v:.17g}" for v in rows.values) + "\n")
    cfile.write_text("\n".join(f"{v:.17g}" for v in cols.values) + "\n")
    gfile.write_text(
        "\n".join(" ".join(f"{v + 1.0:.17g}" for v in row) for row in gamma.values) + "\n"
    )
    code, payload, _ = run_json(
        capsys,
        "reconstruct",
        "--lambda", "1",
        "--row-logits", str(rfile),
        "--col-logits", str(cfile),
        "--gamma", str(gfile),
    )
    assert code == 3
    assert "gamma[0, 2]" in payload["error"]
    assert payload["residual_norm"] > 0


@pytest.mark.parametrize("pair, named", [("LL", "cell pi[4, 0]"), ("LG", "gamma[:, 0]")])
def test_reconstruct_unattainable_l_target_exits_3(capsys, tmp_path, pair, named):
    # under lambda = 1, gamma + 0.3 on the mobility table drives an LL cell
    # to 0 and leaves the first LG column with no root in its bracket
    fam = cressie_read(1.0)
    rows, cols, gamma = extract_invariants(ContingencyTable(load_mobility().probs, *pair), fam=fam)
    rfile, cfile, gfile = tmp_path / "r.txt", tmp_path / "c.txt", tmp_path / "g.txt"
    rfile.write_text("\n".join(f"{v:.17g}" for v in rows.values) + "\n")
    cfile.write_text("\n".join(f"{v:.17g}" for v in cols.values) + "\n")
    gfile.write_text(
        "\n".join(" ".join(f"{v + 0.3:.17g}" for v in row) for row in gamma.values) + "\n"
    )
    code, payload, _ = run_json(
        capsys,
        "reconstruct",
        "--rows-logit", pair[0],
        "--cols-logit", pair[1],
        "--lambda", "1",
        "--row-logits", str(rfile),
        "--col-logits", str(cfile),
        "--gamma", str(gfile),
    )
    assert code == 3
    assert named in payload["error"]
    assert payload["residual_norm"] > 0


@pytest.mark.parametrize(
    "pair, sizes, gamma, named",
    [
        ("LG", (3, 3), "800 0\n0 0\n", "gamma[:, 1]"),
        ("GG", (3, 3), "50 0\n0 0\n", "cell pi[0, 1]"),
        ("LG", (2, 3), "-800 0\n", "cell pi[0, 0]"),
    ],
    ids=["g-column-overflow", "plackett-double-root", "zero-cell"],
)
def test_reconstruct_edge_targets_exit_3(capsys, tmp_path, pair, sizes, gamma, named):
    # an overflowing G-column cell, a Plackett start whose discriminant
    # rounds below 0, and a cell that comes out exactly 0: each target is
    # unattainable, exits 3 and names what rules it out
    rfile, cfile, gfile = tmp_path / "r.txt", tmp_path / "c.txt", tmp_path / "g.txt"
    for f, size, logit in ((rfile, sizes[0], pair[0]), (cfile, sizes[1], pair[1])):
        values = marginal_logits(np.full(size, 1.0 / size), logit).values
        f.write_text("\n".join(f"{v:.17g}" for v in values) + "\n")
    gfile.write_text(gamma)
    code, payload, err = run_json(
        capsys,
        "reconstruct",
        "--rows-logit", pair[0],
        "--cols-logit", pair[1],
        "--lambda", "0",
        "--row-logits", str(rfile),
        "--col-logits", str(cfile),
        "--gamma", str(gfile),
    )
    assert code == 3
    assert named in payload["error"]
    assert payload["residual_norm"] > 0
    assert err == ""


def test_reconstruct_zero_gamma_gives_independence(capsys, tmp_path):
    table = load_mobility()
    rows, cols, _ = extract_invariants(table)
    rfile, cfile, gfile = tmp_path / "r.txt", tmp_path / "c.txt", tmp_path / "g.txt"
    rfile.write_text("\n".join(f"{v:.17g}" for v in rows.values) + "\n")
    cfile.write_text("\n".join(f"{v:.17g}" for v in cols.values) + "\n")
    gfile.write_text("\n".join(["0 0 0 0"] * 4) + "\n")
    code, payload, _ = run_json(
        capsys,
        "reconstruct",
        "--row-logits", str(rfile),
        "--col-logits", str(cfile),
        "--gamma", str(gfile),
    )
    assert code == 0
    expected = np.outer(table.row_margin(), table.col_margin())
    np.testing.assert_allclose(np.asarray(payload["pi"]), expected, atol=1e-9)


def test_reconstruct_dimension_mismatch_exits_2(capsys, tmp_path):
    rfile, cfile, gfile = tmp_path / "r.txt", tmp_path / "c.txt", tmp_path / "g.txt"
    rfile.write_text("0.1\n0.2\n")
    cfile.write_text("0.1\n0.2\n0.3\n")
    gfile.write_text("0 0\n0 0\n")
    code, out, err = run_cli(
        capsys,
        "reconstruct",
        "--row-logits", str(rfile),
        "--col-logits", str(cfile),
        "--gamma", str(gfile),
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "which, token, line, column",
    [("gamma", "inf", 3, 2), ("gamma", "nan", 1, 4), ("rows", "-inf", 2, 1), ("cols", "x", 4, 1)],
)
def test_reconstruct_rejects_bad_entries_exits_2(capsys, tmp_path, which, token, line, column):
    table = load_mobility()
    rows, cols, gamma = extract_invariants(table)
    entries = {
        "rows": [[f"{v:.17g}"] for v in rows.values],
        "cols": [[f"{v:.17g}"] for v in cols.values],
        "gamma": [[f"{v:.17g}" for v in row] for row in gamma.values],
    }
    entries[which][line - 1][column - 1] = token
    paths = {}
    for name, rows_of_text in entries.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text("\n".join(" ".join(r) for r in rows_of_text) + "\n")
    code, out, err = run_cli(
        capsys,
        "reconstruct",
        "--rows-logit", "L",
        "--cols-logit", "L",
        "--row-logits", str(paths["rows"]),
        "--col-logits", str(paths["cols"]),
        "--gamma", str(paths["gamma"]),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"line {line}, column {column}" in err
    assert paths[which].name in err


def test_check_mobility(capsys):
    code, payload, _ = run_json(capsys, "check", "mobility")
    assert code == 0
    dep = payload["dependence"]
    assert dep["pairs"][0]["pair"] == "GG"
    assert dep["pairs"][0]["gamma_nonneg"] is True
    assert dep["simple_stochastic_order"] is True
    assert dep["quadrant_dependence"] is True
    assert dep["collapsed_survival_order"] is True
    assert dep["violations"] == []


def test_check_pair_flag_csv(capsys):
    code, out, _ = run_cli(
        capsys, "check", "mobility", "--pair", "CC", "--pair", "GG", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "value"]
    pair_cells = {name: json.loads(v) for name, v in rows[1:] if name.endswith(".pair")}
    assert set(pair_cells.values()) == {"CC", "GG"}


def test_check_violations_exit_4(capsys, monkeypatch):
    fake = DependenceReport(
        pairs=(),
        simple_stochastic_order=False,
        quadrant_dependence=False,
        collapsed_survival_order=False,
        violations=("synthetic violation",),
        conditional_cumulative=np.zeros((1, 1)),
    )
    monkeypatch.setattr(cli, "dependence_report", lambda *a, **k: fake)
    code, payload, _ = run_json(capsys, "check", "mobility")
    assert code == 4
    assert payload["dependence"]["violations"] == ["synthetic violation"]


def test_check_non_finite_cell_exits_2(capsys, tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("10 20 30\n40 nan 60\n70 80 90\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert "line 2, column 2" in err


def test_counterexamples_text(capsys):
    code, out, _ = run_cli(capsys, "counterexamples")
    assert code == 0
    lines = out.splitlines()
    starts = [l for l in lines if l.startswith("PASS ") or l.startswith("FAIL ")]
    assert [s.split(":")[0] for s in starts] == ["PASS ll", "PASS lc", "PASS cc"]
    assert any("(recomputed | reported)" in l for l in lines)
    assert any("(none reported)" in l for l in lines)


def test_counterexamples_only_json(capsys):
    code, payload, _ = run_json(capsys, "counterexamples", "--only", "cc", "--format", "json")
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["records"]) == 1
    rec = payload["records"][0]
    assert rec["name"] == "cc" and rec["pair"] == "CC" and rec["lambda"] == 16.0
    assert min(min(row) for row in rec["gamma"]) >= 0.0
    assert min(min(row) for row in rec["eta"]) < 0.0


def test_counterexamples_failure_exits_4(capsys, monkeypatch):
    fake = VerificationRecord(
        name="ll",
        pair=(LogitType.LOCAL, LogitType.LOCAL),
        lam=7.0,
        pi=np.full((3, 3), 1.0 / 9.0),
        gamma=np.zeros((2, 2)),
        eta=np.zeros((2, 2)),
        reference_gamma=np.zeros((2, 2)),
        reference_eta=None,
        gamma_claim_ok=False,
        eta_claim_ok=True,
    )
    monkeypatch.setattr(cli, "counterexample_verify", lambda name: fake)
    code, out, _ = run_cli(capsys, "counterexamples", "--only", "ll")
    assert code == 4
    assert out.startswith("FAIL ll:")


def test_spec_records_each_subcommands_own_options(capsys, tmp_path):
    _, payload, _ = run_json(capsys, "fit", "mobility", "--lambda=-0.04", "--rank", "2")
    assert payload["spec"] == {
        "command": "fit", "row_logit": "G", "col_logit": "G", "lambda": -0.04, "rank": 2,
        "constraints": [], "format": None, "input": "mobility",
    }
    _, payload, _ = run_json(capsys, "sweep", "mobility", "--pair", "GG", "--format", "json")
    assert payload["spec"] == {
        "command": "sweep", "lambda": 0.0, "rank": 1, "constraints": [], "format": "json",
        "input": "mobility", "lambda_grid": None, "pairs": ["GG"],
    }
    _, payload, _ = run_json(capsys, "check", "mobility")
    assert payload["spec"] == {
        "command": "check", "lambda": 0.0, "format": None, "input": "mobility", "pairs": None,
    }
    rfile = tmp_path / "r.txt"
    rfile.write_text("0.0\n")
    _, payload, _ = run_json(
        capsys, "reconstruct", "--row-logits", str(rfile), "--col-logits", str(rfile),
        "--gamma", str(rfile),
    )
    assert payload["spec"] == {
        "command": "reconstruct", "row_logit": "G", "col_logit": "G", "lambda": 0.0,
        "format": None,
    }


@pytest.mark.parametrize("argv", [
    ("fit", "mobility", "--seed", "7"),
    ("sweep", "mobility", "--rows-logit", "L"),
    ("check", "mobility", "--cols-logit", "C"),
    ("counterexamples", "--json"),
])
def test_options_that_change_nothing_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and "unrecognized arguments" in err


def test_logit_letters_take_any_case(capsys):
    upper = run_cli(capsys, "fit", "mobility", "--rows-logit", "G", "--cols-logit", "C")
    lower = run_cli(capsys, "fit", "mobility", "--rows-logit", "g", "--cols-logit", "c")
    assert upper[0] == lower[0] == 0
    assert lower[1] == upper[1]


def test_lambda_grid_point_bound():
    parser = cli.build_parser()
    ns = parser.parse_args(["sweep", "mobility", "--lambda-grid=0:0.9999:1e-4"])
    assert cli._grid_values(ns.lambda_grid).size == cli.GRID_MAX_POINTS
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "mobility", "--lambda-grid=0:1:1e-4"])


def test_usage_errors_exit_2(capsys, tmp_path):
    cases = [
        ("fit", "no-such-file.txt"),
        ("fit", "mobility", "--rank", "9"),
        ("sweep", "mobility", "--lambda-grid=1:0:0.1"),
        ("sweep", "mobility", "--lambda-grid=abc"),
        ("check", "mobility", "--pair", "XZ"),
        ("fit", "mobility", "--constraint", "bogus"),
        (),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv

    # checks made while parsing name the offending flag
    flagged = [
        ("--jobs", ("sweep", "mobility", "--jobs", "0")),
        ("--rank", ("fit", "mobility", "--rank", "-1")),
        ("--rank", ("fit", "mobility", "--rank", "x")),
        ("--lambda-grid", ("sweep", "mobility", "--lambda-grid=0:1:0")),
        ("--lambda-grid", ("sweep", "mobility", "--lambda-grid=0:1")),
        ("--lambda-grid", ("sweep", "mobility", "--lambda-grid=0:inf:1")),
        ("--lambda-grid", ("sweep", "mobility", "--lambda-grid=0:1e300:1e-300")),
        ("--lambda-grid", ("sweep", "mobility", "--lambda-grid=0:1:1e-9")),
        ("--rows-logit", ("fit", "mobility", "--rows-logit", "q")),
        ("--pair", ("sweep", "mobility", "--pair", "Q")),
    ]
    for flag, argv in flagged:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert f"argument {flag}:" in err, argv

    bad = tmp_path / "ragged.txt"
    bad.write_text("1 2 3\n4 5\n")
    code, _, err = run_cli(
        capsys, "reconstruct", "--row-logits", str(bad), "--col-logits", str(bad), "--gamma", str(bad)
    )
    assert code == 2
    assert "unequal" in err
