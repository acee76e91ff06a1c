"""Batch command line interface.

Subcommands: ``fit`` one model to a counts file, ``sweep`` a lambda grid
across logit pairs, ``reconstruct`` a table from marginal logits and an
interaction matrix, ``check`` dependence properties of a table, and
``counterexamples`` for the built-in sign-claim verifications.

Exit codes: 0 success, 2 usage or parse error, 3 non-convergence,
4 claim-verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    DegenerateScoreError,
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
from .estimation import ModelSpec, constraint_from_name, constraint_names, fit
from .interactions import MarginalLogits
from .rank import PivotError
from .table import ContingencyTable, LogitType, TableParseError, read_counts, read_numbers

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CLAIM_FAILED = 4

_COMMANDS = ("fit", "sweep", "reconstruct", "check", "counterexamples")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _parse_pair(text):
    s = str(text).strip().upper()
    if len(s) != 2 or any(c not in "LGCR" for c in s):
        raise ValueError(f"logit pair must be two of L/G/C/R, got {text!r}")
    return s


def _parse_grid(text):
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be min:max:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"grid must be three numbers min:max:step, got {text!r}") from None
    return lo, hi, step


def _grid_values(grid):
    lo, hi, step = grid
    count = int(round((hi - lo) / step)) + 1
    return np.round(lo + step * np.arange(count), 12)


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, validated."""

    command: str
    input: str | None = None
    row_logit: LogitType = LogitType.GLOBAL
    col_logit: LogitType = LogitType.GLOBAL
    lam: float = 0.0
    grid: tuple[float, float, float] | None = None
    rank: int = 1
    constraints: tuple[str, ...] = ()
    fmt: str | None = None
    seed: int = 0
    only: str | None = None
    pairs: tuple[str, ...] = ()
    jobs: int = 1
    row_logits_file: str | None = None
    col_logits_file: str | None = None
    gamma_file: str | None = None

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        object.__setattr__(self, "row_logit", LogitType.parse(self.row_logit))
        object.__setattr__(self, "col_logit", LogitType.parse(self.col_logit))
        if self.fmt not in (None, "json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.fmt!r}")
        if self.grid is not None:
            lo, hi, step = self.grid
            if step <= 0:
                raise ValueError("grid step must be positive")
            if hi < lo:
                raise ValueError("grid max must not be below min")
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        for name in self.constraints:
            constraint_from_name(name)
        object.__setattr__(self, "pairs", tuple(_parse_pair(p) for p in self.pairs))

    @classmethod
    def from_args(cls, ns):
        kwargs = {"command": ns.command}
        for name in (
            "input",
            "lam",
            "rank",
            "seed",
            "only",
            "jobs",
            "row_logits_file",
            "col_logits_file",
            "gamma_file",
        ):
            if getattr(ns, name, None) is not None:
                kwargs[name] = getattr(ns, name)
        if getattr(ns, "rows_logit", None) is not None:
            kwargs["row_logit"] = ns.rows_logit
        if getattr(ns, "cols_logit", None) is not None:
            kwargs["col_logit"] = ns.cols_logit
        if getattr(ns, "fmt", None) is not None:
            kwargs["fmt"] = ns.fmt
        if getattr(ns, "constraint", None):
            kwargs["constraints"] = tuple(ns.constraint)
        if getattr(ns, "pair", None):
            kwargs["pairs"] = tuple(ns.pair)
        if getattr(ns, "lambda_grid", None) is not None:
            kwargs["grid"] = _parse_grid(ns.lambda_grid)
        return cls(**kwargs)

    def family(self):
        return cressie_read(self.lam)

    def spec_payload(self):
        out = {
            "command": self.command,
            "row_logit": self.row_logit.value,
            "col_logit": self.col_logit.value,
            "lambda": self.lam,
            "rank": self.rank,
            "constraints": list(self.constraints),
            "format": self.fmt,
            "seed": self.seed,
        }
        if self.input is not None:
            out["input"] = str(self.input)
        if self.grid is not None:
            out["lambda_grid"] = list(self.grid)
        if self.pairs:
            out["pairs"] = list(self.pairs)
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


def _load_table(cfg):
    return read_counts(_resolve_input(cfg.input), cfg.row_logit, cfg.col_logit)


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


def _build_spec(cfg, shape=None):
    spec = ModelSpec(
        pair=(cfg.row_logit, cfg.col_logit),
        family=cfg.family(),
        rank=cfg.rank,
        linear_constraints=tuple(constraint_from_name(n) for n in cfg.constraints),
    )
    if shape is not None:
        spec.validate_shape(shape)
    return spec


def _dependence_payload(report):
    return {
        "simple_stochastic_order": report.simple_stochastic_order,
        "quadrant_dependence": report.quadrant_dependence,
        "collapsed_survival_order": report.collapsed_survival_order,
        "violations": list(report.violations),
        "pairs": [
            {
                "pair": p.pair[0].value + p.pair[1].value,
                "min_gamma": p.min_gamma,
                "min_eta": p.min_eta,
                "gamma_nonneg": p.gamma_nonneg,
                "eta_nonneg": p.eta_nonneg,
            }
            for p in report.pairs
        ],
        "conditional_cumulative": report.conditional_cumulative,
    }


def _fit_payload(cfg, spec, result):
    fitted = ContingencyTable.from_probabilities(result.pi_hat, cfg.row_logit, cfg.col_logit)
    rows, cols, gamma = extract_invariants(fitted, fam=spec.family)
    scores = None
    correlation = None
    if spec.rank > 0:
        try:
            dec = svd_scores(gamma, fitted, min(spec.rank, min(gamma.values.shape)))
            scores = {"psi": dec.psi, "mu": dec.mu, "nu": dec.nu}
            if dec.rank >= 1:
                correlation = float(score_correlation(fitted.probs, dec))
        except DegenerateScoreError:
            scores = None
    pair_letters = cfg.row_logit.value + cfg.col_logit.value
    pairs = (("G", "G"),) if pair_letters == "GG" else ((cfg.row_logit.value, cfg.col_logit.value), ("G", "G"))
    report = dependence_report(fitted.probs, fam=spec.family, pairs=pairs)
    return {
        "spec": cfg.spec_payload(),
        "fit": {
            "deviance": result.deviance,
            "dof": result.dof,
            "p_value": result.p_value,
            "iterations": result.iterations,
            "converged": result.converged,
            "constraint_norm": result.constraint_norm,
            "loglik": result.loglik,
            "message": result.message,
        },
        "pi_hat": result.pi_hat,
        "gamma": gamma.values,
        "eta": {"rows": rows.values, "cols": cols.values},
        "scores": scores,
        "correlation": correlation,
        "dependence": _dependence_payload(report),
    }


def cmd_fit(cfg):
    """Fit one model and emit the full report; exit 3 if not converged."""
    table = _load_table(cfg)
    spec = _build_spec(cfg, table.shape)
    result = fit(table, spec)
    _emit(_fit_payload(cfg, spec, result), cfg.fmt or "json")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_cell(args):
    counts, pair, lam, rank, names = args
    row = {
        "pair": pair,
        "lambda": float(lam),
        "deviance": None,
        "dof": None,
        "converged": False,
        "iterations": None,
        "message": None,
        "error": None,
    }
    try:
        spec = ModelSpec(
            pair=(pair[0], pair[1]),
            family=cressie_read(lam),
            rank=rank,
            linear_constraints=tuple(constraint_from_name(n) for n in names),
        )
        result = fit(counts, spec)
    except (ValueError, PivotError) as exc:  # ValueError covers LinkDomainError
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    row["deviance"] = result.deviance
    row["dof"] = result.dof
    row["converged"] = bool(result.converged)
    row["iterations"] = result.iterations
    row["message"] = result.message
    return row


def cmd_sweep(cfg):
    """Fit every (pair, lambda) cell; failures are recorded, exit stays 0.

    CSV rows hold pair, lambda, deviance, dof and converged; JSON rows add
    the fit's iterations and stop message, and ``error`` (exception type
    and text) for a cell whose fit raised, which is null otherwise.
    """
    table = _load_table(cfg)
    counts = np.asarray(table.counts, dtype=np.float64)
    grid = cfg.grid if cfg.grid is not None else (cfg.lam, cfg.lam, 1.0)
    lams = _grid_values(grid)
    pairs = cfg.pairs or ("LL", "GG", "CC")
    cells = [
        (counts, pair, float(lam), cfg.rank, cfg.constraints)
        for pair in sorted(set(pairs))
        for lam in lams
    ]
    if cfg.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, len(cells))) as pool:
            rows = list(pool.map(_sweep_cell, cells, chunksize=4))
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    rows.sort(key=lambda r: (r["pair"], r["lambda"]))
    if (cfg.fmt or "csv") == "json":
        _emit({"spec": cfg.spec_payload(), "cells": rows}, "json")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["pair", "lambda", "deviance", "dof", "converged"])
        for r in rows:
            writer.writerow(
                [
                    r["pair"],
                    json.dumps(_jsonable(r["lambda"])),
                    "" if r["deviance"] is None else json.dumps(_jsonable(r["deviance"])),
                    "" if r["dof"] is None else json.dumps(r["dof"]),
                    json.dumps(r["converged"]),
                ]
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------


def cmd_reconstruct(cfg):
    """Rebuild the unique table matching marginal logits and interactions."""
    if not (cfg.row_logits_file and cfg.col_logits_file and cfg.gamma_file):
        raise ValueError("reconstruct needs --row-logits, --col-logits and --gamma files")
    eta_rows = _read_vector(cfg.row_logits_file)
    eta_cols = _read_vector(cfg.col_logits_file)
    gamma = read_numbers(cfg.gamma_file)[0]
    if gamma.shape != (eta_rows.shape[0], eta_cols.shape[0]):
        raise ValueError(
            f"gamma is {gamma.shape} but the logit files imply "
            f"({eta_rows.shape[0]}, {eta_cols.shape[0]})"
        )
    fam = cfg.family()
    rows = MarginalLogits(eta_rows, cfg.row_logit, "row")
    cols = MarginalLogits(eta_cols, cfg.col_logit, "column")
    try:
        pi = reconstruct(rows, cols, gamma, fam=fam)
    except ReconstructionError as exc:
        _emit(
            {
                "spec": cfg.spec_payload(),
                "error": str(exc),
                "residual_norm": exc.residual_norm,
            },
            cfg.fmt or "json",
        )
        return EXIT_NO_CONVERGENCE
    table = ContingencyTable.from_probabilities(pi, cfg.row_logit, cfg.col_logit)
    got_rows, got_cols, got_gamma = extract_invariants(table, fam=fam)
    payload = {
        "spec": cfg.spec_payload(),
        "pi": pi,
        "residual": {
            "row_logits": float(np.abs(got_rows.values - eta_rows).max()),
            "col_logits": float(np.abs(got_cols.values - eta_cols).max()),
            "gamma": float(np.abs(got_gamma.values - gamma).max()),
        },
    }
    _emit(payload, cfg.fmt or "json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(cfg):
    """Dependence report for the observed table; violations exit 4."""
    table = _load_table(cfg)
    pairs = tuple((p[0], p[1]) for p in cfg.pairs) or (("G", "G"),)
    report = dependence_report(table.probs, fam=cfg.family(), pairs=pairs)
    _emit(
        {"spec": cfg.spec_payload(), "dependence": _dependence_payload(report)},
        cfg.fmt or "json",
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


def cmd_counterexamples(cfg=None):
    """Verify the built-in sign-claim tables; any failure exits 4."""
    names = counterexample_names()
    if cfg is not None and cfg.only:
        only = str(cfg.only).strip().lower()
        if only not in names:
            raise ValueError(f"unknown counterexample {cfg.only!r}; choose from {sorted(names)}")
        names = (only,)
    records = [counterexample_verify(name) for name in names]
    fmt = cfg.fmt if cfg is not None else None
    if fmt in ("json", "csv"):
        payload = {
            "records": [
                {
                    "name": r.name,
                    "pair": r.pair[0].value + r.pair[1].value,
                    "lambda": r.lam,
                    "pi": r.pi,
                    "gamma": r.gamma,
                    "eta": r.eta,
                    "reference_gamma": r.reference_gamma,
                    "reference_eta": r.reference_eta,
                    "gamma_claim_ok": r.gamma_claim_ok,
                    "eta_claim_ok": r.eta_claim_ok,
                    "passed": r.passed,
                }
                for r in records
            ],
            "passed": all(r.passed for r in records),
        }
        _emit(payload, fmt)
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

    def common(p, with_table=True):
        if with_table:
            p.add_argument(
                "input",
                metavar="TABLE",
                help="counts file, or a bundled dataset name: " + ", ".join(dataset_names()),
            )
        p.add_argument("--rows-logit", choices=list("LGCR"), default=None, help="row logit type")
        p.add_argument("--cols-logit", choices=list("LGCR"), default=None, help="column logit type")
        p.add_argument(
            "--lambda",
            dest="lam",
            type=float,
            default=None,
            help="Cressie-Read power; 0 selects the Kullback-Leibler link",
        )
        p.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)
        p.add_argument("--seed", type=int, default=None, help="seed recorded with the run")

    p_fit = sub.add_parser("fit", help="fit one model and report the full summary")
    common(p_fit)
    p_fit.add_argument("--rank", type=int, default=None, help="interaction rank bound K")
    p_fit.add_argument(
        "--constraint",
        action="append",
        choices=list(constraint_names()),
        help="named linear constraint (repeatable)",
    )

    p_sweep = sub.add_parser("sweep", help="fit a lambda grid across logit pairs")
    common(p_sweep)
    p_sweep.add_argument("--rank", type=int, default=None)
    p_sweep.add_argument("--constraint", action="append", choices=list(constraint_names()))
    p_sweep.add_argument(
        "--lambda-grid",
        default=None,
        metavar="MIN:MAX:STEP",
        help="inclusive grid; write --lambda-grid=-1:1:0.04 when MIN is negative",
    )
    p_sweep.add_argument(
        "--pair",
        action="append",
        metavar="XY",
        help="logit pair such as GG or LL (repeatable; default LL GG CC)",
    )
    p_sweep.add_argument("--jobs", type=int, default=None, help="parallel fit processes")

    p_rec = sub.add_parser("reconstruct", help="rebuild a table from logits and interactions")
    common(p_rec, with_table=False)
    p_rec.add_argument("--row-logits", dest="row_logits_file", required=True, metavar="FILE")
    p_rec.add_argument("--col-logits", dest="col_logits_file", required=True, metavar="FILE")
    p_rec.add_argument("--gamma", dest="gamma_file", required=True, metavar="FILE")

    p_check = sub.add_parser("check", help="dependence report for an observed table")
    common(p_check)
    p_check.add_argument("--pair", action="append", metavar="XY", help="logit pair (repeatable)")

    p_ce = sub.add_parser("counterexamples", help="verify the built-in sign-claim tables")
    p_ce.add_argument("--only", choices=list(counterexample_names()), default=None)
    p_ce.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None)
    p_ce.add_argument(
        "--json",
        dest="fmt",
        action="store_const",
        const="json",
        help="shorthand for --format json",
    )

    return parser


_DISPATCH = {
    "fit": cmd_fit,
    "sweep": cmd_sweep,
    "reconstruct": cmd_reconstruct,
    "check": cmd_check,
    "counterexamples": cmd_counterexamples,
}


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig.from_args(ns)
        return _DISPATCH[cfg.command](cfg)
    except (TableParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
