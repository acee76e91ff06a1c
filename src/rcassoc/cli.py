"""Batch command line interface.

Subcommands: ``fit`` one model to a counts file, ``sweep`` a lambda grid
across logit pairs, ``reconstruct`` a table from marginal logits and an
interaction matrix, ``check`` dependence properties of a table, and
``counterexamples`` for the built-in sign-claim verifications.

Flag defaults and input checks live in ``build_parser``, on the flags and
in their ``type=`` callables, and each subcommand dispatches through
``set_defaults(run=...)``.  Each subcommand takes only the options it
reads: ``sweep`` and ``check`` take their logit pairs from ``--pair``, not
from ``--rows-logit``/``--cols-logit``, and ``sweep`` takes one of
``--lambda`` and ``--lambda-grid``.  Every payload but the
counterexamples' records a ``spec`` of the subcommand and the options it
read: a sweep given ``--lambda-grid`` records no ``lambda``.
``--format``, ``--pair`` and ``--lambda-grid`` default to None, so the spec
shows whether they were given; each handler then picks its own output
format, logit pairs and grid.  ``estimation.sweep`` states a sweep's rows.

Exit codes: 0 success, 2 usage or parse error, 3 non-convergence or an
unattainable reconstruction, 4 claim-verification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import (
    DegenerateScoreError,
    RankDeficiencyWarning,
    ReconstructionError,
    counterexample_names,
    counterexample_verify,
    dependence_report,
    extract_invariants,
    reconstruct,
    score_correlation,
    svd_scores,
)
from .datasets import dataset_names, dataset_path
from .divergence import cressie_read
from .estimation import (
    ModelSpec,
    RedundantConstraintWarning,
    constraint_from_name,
    constraint_names,
    fit,
    sweep,
)
from .interactions import MarginalLogits
from .table import ContingencyTable, LogitType, TableParseError, read_counts, read_numbers

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CLAIM_FAILED = 4

# the sweep builds every lambda, and a cell per pair and lambda, up front
GRID_MAX_POINTS = 10_000

# ---------------------------------------------------------------------------
# argument types: each raises argparse.ArgumentTypeError, which exits 2
# ---------------------------------------------------------------------------


def _pair(text):
    s = text.strip().upper()
    if len(s) != 2 or any(c not in "LGCR" for c in s):
        raise argparse.ArgumentTypeError(f"logit pair must be two of L/G/C/R, got {text!r}")
    return s


def _logit(text):
    try:
        return LogitType.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid(text):
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be three numbers min:max:step, got {text!r}"
        ) from None
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if hi < lo:
        raise argparse.ArgumentTypeError("grid max must not be below min")
    if not all(map(math.isfinite, (lo, hi, step, (hi - lo) / step))):
        raise argparse.ArgumentTypeError(f"grid and its point count must be finite, got {text!r}")
    if _grid_count(lo, hi, step) > GRID_MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid has more than {GRID_MAX_POINTS} points, got {text!r}"
        )
    if not np.all(np.diff(_grid_values((lo, hi, step))) > 0):
        raise argparse.ArgumentTypeError(f"grid points repeat at 12 decimals, got {text!r}")
    return lo, hi, step


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _grid_count(lo, hi, step):
    # a relative tolerance absorbs the rounding of (hi - lo) / step, so that
    # MAX itself is kept when it lies on the grid and no point exceeds it
    return math.floor((hi - lo) / step * (1.0 + 1e-9)) + 1


def _grid_values(grid):
    lo, hi, step = grid
    return np.round(lo + step * np.arange(_grid_count(lo, hi, step)), 12)


# (namespace attribute, spec key) of each option a spec records; --jobs
# and the input files of reconstruct are not recorded
_SPEC_KEYS = (
    ("rows_logit", "row_logit"),
    ("cols_logit", "col_logit"),
    ("lam", "lambda"),
    ("rank", "rank"),
    ("constraint", "constraints"),
    ("fmt", "format"),
    ("input", "input"),
    ("lambda_grid", "lambda_grid"),
    ("pair", "pairs"),
)


def _spec_payload(ns):
    """The subcommand and every option of it that a spec records."""
    out = {"command": ns.command}
    for attr, key in _SPEC_KEYS:
        if hasattr(ns, attr):
            value = getattr(ns, attr)
            out[key] = value.value if isinstance(value, LogitType) else value
    return out


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _resolve_input(token):
    path = Path(token)
    if path.exists():
        return path
    if token in dataset_names():
        return Path(str(dataset_path(token)))
    raise ValueError(
        f"{token!r} is neither a readable file nor a bundled dataset "
        f"(available: {', '.join(dataset_names())})"
    )


def _load_table(ns):
    return read_counts(_resolve_input(ns.input))


def _read_vector(path):
    return read_numbers(path)[0].ravel()


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if np.isfinite(f) else None
    return obj


def _record_fields(items):
    return {
        ("lambda" if key == "lam" else key): ("".join(value) if key == "pair" else value)
        for key, value in items
    }


def _record(obj):
    """A report record's fields as printed: a logit pair as its two letters,
    ``lam`` as ``lambda``, and nested records as dicts."""
    return dataclasses.asdict(obj, dict_factory=_record_fields)


def _flatten(obj, prefix="", out=None):
    if out is None:
        out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}.{i}" if prefix else str(i), out)
    else:
        out.append((prefix, obj))
    return out


def _emit(payload, fmt, stream=None):
    stream = stream or sys.stdout
    payload = _jsonable(payload)
    if fmt == "json":
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["name", "value"])
        for name, value in _flatten(payload):
            writer.writerow([name, json.dumps(value)])


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


# the FitResult fields of the fit payload, in payload order
_FIT_FIELDS = (
    "deviance", "dof", "p_value", "iterations", "evaluations", "products", "converged",
    "constraint_norm", "loglik", "message",
)


def _fit_payload(ns, spec, result):
    fitted = ContingencyTable.from_probabilities(result.pi_hat, ns.rows_logit, ns.cols_logit)
    rows, cols, gamma = extract_invariants(fitted, fam=spec.family)
    scores = None
    correlation = None
    if spec.rank > 0:
        try:
            dec = svd_scores(gamma, fitted, min(spec.rank, min(gamma.values.shape)))
            scores = _record(dec)
            if dec.rank >= 1:
                correlation = float(score_correlation(fitted.probs, dec))
        except DegenerateScoreError:
            scores = None
    pair = (ns.rows_logit.value, ns.cols_logit.value)
    pairs = (("G", "G"),) if pair == ("G", "G") else (pair, ("G", "G"))
    report = dependence_report(fitted.probs, fam=spec.family, pairs=pairs)
    return {
        "spec": _spec_payload(ns),
        "fit": {key: getattr(result, key) for key in _FIT_FIELDS},
        "pi_hat": result.pi_hat,
        "gamma": gamma.values,
        "eta": {"rows": rows.values, "cols": cols.values},
        "scores": scores,
        "correlation": correlation,
        "dependence": _record(report),
    }


# warnings that the fit payload records under "warnings"; any other passes through
_FIT_WARNINGS = (RankDeficiencyWarning, RedundantConstraintWarning)


def cmd_fit(ns):
    """Fit one model and emit the full report, which lists each rank-deficiency
    and redundant-constraint warning under ``warnings``; exit 3 if not converged."""
    table = _load_table(ns)
    constraints = tuple(constraint_from_name(n) for n in ns.constraint)
    spec = ModelSpec((ns.rows_logit, ns.cols_logit), cressie_read(ns.lam), ns.rank, constraints)
    with warnings.catch_warnings(record=True) as caught:
        for category in _FIT_WARNINGS:
            warnings.simplefilter("always", category)
        result = fit(table, spec)
        payload = _fit_payload(ns, spec, result)
    payload["warnings"] = []
    for w in caught:
        if issubclass(w.category, _FIT_WARNINGS):
            payload["warnings"].append({"category": w.category.__name__, "message": str(w.message)})
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    _emit(payload, ns.fmt or "json")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(ns):
    """Fit every (pair, lambda) cell; failures are recorded, exit stays 0.

    The lambdas are the ``--lambda-grid`` points, or else the one
    ``--lambda``.  JSON rows are those of ``estimation.sweep``; CSV rows
    hold their pair, lambda, deviance, dof and converged.
    """
    table = _load_table(ns)
    lams = _grid_values(ns.lambda_grid or (ns.lam, ns.lam, 1.0)).tolist()
    pairs = sorted(set(ns.pair or ("LL", "GG", "CC")))
    constraints = tuple(constraint_from_name(n) for n in ns.constraint)
    run = functools.partial(sweep, table, rank=ns.rank, constraints=constraints)
    cells = [((pair,), (lam,)) for pair in pairs for lam in lams]
    if ns.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(ns.jobs, len(cells))) as pool:
            rows = [row for part in pool.map(run, *zip(*cells), chunksize=4) for row in part]
    else:
        rows = run(pairs, lams)
    if ns.fmt == "json":
        spec = _spec_payload(ns)
        if ns.lambda_grid is not None:
            del spec["lambda"]
        _emit({"spec": spec, "cells": rows}, "json")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        columns = ("lambda", "deviance", "dof", "converged")
        writer.writerow(["pair", *columns])
        for r in rows:
            writer.writerow(
                [r["pair"], *("" if r[k] is None else json.dumps(_jsonable(r[k])) for k in columns)]
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def cmd_reconstruct(ns):
    """Rebuild the unique table matching marginal logits and interactions."""
    eta_rows = _read_vector(ns.row_logits_file)
    eta_cols = _read_vector(ns.col_logits_file)
    gamma = read_numbers(ns.gamma_file)[0]
    fam = cressie_read(ns.lam)
    rows = MarginalLogits(eta_rows, ns.rows_logit)
    cols = MarginalLogits(eta_cols, ns.cols_logit)
    try:
        pi = reconstruct(rows, cols, gamma, fam=fam)
    except ReconstructionError as exc:
        _emit(
            {
                "spec": _spec_payload(ns),
                "error": str(exc),
                # JSON has no infinity: an infinite residual is written "inf"
                "residual_norm": exc.residual_norm if math.isfinite(exc.residual_norm) else "inf",
            },
            ns.fmt or "json",
        )
        return EXIT_NO_CONVERGENCE
    table = ContingencyTable.from_probabilities(pi, ns.rows_logit, ns.cols_logit)
    got_rows, got_cols, got_gamma = extract_invariants(table, fam=fam)
    payload = {
        "spec": _spec_payload(ns),
        "pi": pi,
        "residual": {
            "row_logits": float(np.abs(got_rows.values - eta_rows).max()),
            "col_logits": float(np.abs(got_cols.values - eta_cols).max()),
            "gamma": float(np.abs(got_gamma.values - gamma).max()),
        },
    }
    _emit(payload, ns.fmt or "json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(ns):
    """Dependence report for the observed table; violations exit 4."""
    table = _load_table(ns)
    pairs = tuple((p[0], p[1]) for p in ns.pair or ("GG",))
    report = dependence_report(table.probs, fam=cressie_read(ns.lam), pairs=pairs)
    _emit(
        {"spec": _spec_payload(ns), "dependence": _record(report)},
        ns.fmt or "json",
    )
    return EXIT_CLAIM_FAILED if report.violations else EXIT_OK


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------


def _matrix_lines(m):
    return [" ".join(f"{v: 9.6f}" for v in row) for row in np.atleast_2d(m)]


def _print_side_by_side(label, left, right, stream):
    left_lines = _matrix_lines(left)
    right_lines = _matrix_lines(right) if right is not None else ["(none reported)"]
    width = max(len(s) for s in left_lines)
    stream.write(f"  {label} (recomputed | reported)\n")
    for i in range(max(len(left_lines), len(right_lines))):
        l = left_lines[i] if i < len(left_lines) else ""
        r = right_lines[i] if i < len(right_lines) else ""
        stream.write(f"    {l:<{width}}   | {r}\n")


def cmd_counterexamples(ns):
    """Verify the built-in sign-claim tables; any failure exits 4."""
    names = (ns.only,) if ns.only else counterexample_names()
    records = [counterexample_verify(name) for name in names]
    if ns.fmt:
        payload = {
            "records": [{**_record(r), "passed": r.passed} for r in records],
            "passed": all(r.passed for r in records),
        }
        _emit(payload, ns.fmt)
    else:
        stream = sys.stdout
        for r in records:
            verdict = "PASS" if r.passed else "FAIL"
            stream.write(
                f"{verdict} {r.name}: pair={r.pair[0].value}{r.pair[1].value} "
                f"lambda={r.lam:g} min(gamma)={r.gamma.min():.6f} "
                f"min(eta)={r.eta.min():.6f}\n"
            )
            _print_side_by_side("gamma", r.gamma, r.reference_gamma, stream)
            _print_side_by_side("eta", r.eta, r.reference_eta, stream)
    return EXIT_OK if all(r.passed for r in records) else EXIT_CLAIM_FAILED


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rcassoc",
        description="Fit and check scaled-association models for two-way contingency tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, with_table=True, with_logits=True, lam_flags=None):
        if with_table:
            p.add_argument(
                "input",
                metavar="TABLE",
                help="counts file, or a bundled dataset name: " + ", ".join(dataset_names()),
            )
        if with_logits:
            for flag, margin in (("--rows-logit", "row"), ("--cols-logit", "column")):
                p.add_argument(
                    flag,
                    type=_logit,
                    choices=list("LGCR"),
                    default="G",
                    help=f"{margin} logit type (any case)",
                )
        (lam_flags or p).add_argument(
            "--lambda",
            dest="lam",
            type=float,
            default=0.0,
            help="Cressie-Read power; 0 selects the Kullback-Leibler link",
        )
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)

    def model(p):
        p.add_argument("--rank", type=_int_at_least(0), default=1, help="interaction rank bound K")
        p.add_argument(
            "--constraint",
            action="append",
            choices=list(constraint_names()),
            default=[],
            help="named linear constraint (repeatable)",
        )

    p_fit = sub.add_parser("fit", help="fit one model and report the full summary")
    common(p_fit)
    model(p_fit)
    p_fit.set_defaults(run=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="fit a lambda grid across logit pairs")
    # one lambda or a grid of them: given both, argparse exits 2 naming both
    lam_flags = p_sweep.add_mutually_exclusive_group()
    common(p_sweep, with_logits=False, lam_flags=lam_flags)
    model(p_sweep)
    lam_flags.add_argument(
        "--lambda-grid",
        type=_grid,
        default=None,
        metavar="MIN:MAX:STEP",
        help="inclusive grid; write --lambda-grid=-1:1:0.04 when MIN is negative",
    )
    p_sweep.add_argument(
        "--pair",
        type=_pair,
        action="append",
        metavar="XY",
        help="logit pair such as GG or LL (repeatable; default LL GG CC)",
    )
    p_sweep.add_argument("--jobs", type=_int_at_least(1), default=1, help="parallel fit processes")
    p_sweep.set_defaults(run=cmd_sweep)

    p_rec = sub.add_parser("reconstruct", help="rebuild a table from logits and interactions")
    common(p_rec, with_table=False)
    p_rec.add_argument("--row-logits", dest="row_logits_file", required=True, metavar="FILE")
    p_rec.add_argument("--col-logits", dest="col_logits_file", required=True, metavar="FILE")
    p_rec.add_argument("--gamma", dest="gamma_file", required=True, metavar="FILE")
    p_rec.set_defaults(run=cmd_reconstruct)

    p_check = sub.add_parser("check", help="dependence report for an observed table")
    common(p_check, with_logits=False)
    p_check.add_argument(
        "--pair",
        type=_pair,
        action="append",
        metavar="XY",
        help="logit pair (repeatable; default GG)",
    )
    p_check.set_defaults(run=cmd_check)

    p_ce = sub.add_parser("counterexamples", help="verify the built-in sign-claim tables")
    p_ce.add_argument("--only", choices=list(counterexample_names()), default=None)
    p_ce.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)
    p_ce.set_defaults(run=cmd_counterexamples)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.run(ns)
    except (TableParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
