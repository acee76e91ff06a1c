#!/usr/bin/env python3
"""Show that every correctness check accepts a real output and rejects corrupted ones.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Runs one real operation of each kind, feeds its output to the check, then
feeds corrupted copies (a perturbed fitted table, a flipped sign, a wrong
dof, a non-converged fit, ...) and requires each to be rejected.  Exits 1
if any check passes a corrupted output or rejects a real one.
"""

import dataclasses
import json
import sys

import run  # pins BLAS threads before numpy loads

W = run._import_program()

import numpy as np  # noqa: E402


def _perturbed(pi):
    out = np.array(pi, dtype=float)
    out.flat[0] *= 1.01
    return out / out.sum()


def _verdict(check, out):
    """The first reason the check gives for rejecting ``out``, or None."""
    failure, errors = check(out)
    return failure or (errors[0] if errors else None)


def _cases():
    """(name, check, real output, {corruption: corrupted output})."""
    mob = W.MobilityFits(seed=0)
    label, run_fit, check_fit = mob._sweep_op("GG", W.PAPER_LAMBDA)
    fit = run_fit()
    yield label, check_fit, fit, {
        "perturbed pi_hat": dataclasses.replace(fit, pi_hat=_perturbed(fit.pi_hat)),
        "wrong dof": dataclasses.replace(fit, dof=fit.dof + 1),
        "deviance off by 0.01": dataclasses.replace(fit, deviance=fit.deviance + 0.01),
        "not converged": dataclasses.replace(fit, converged=False, message="maximum iterations reached"),
    }

    label, run_cli, check_cli = mob._cli_op(*W.CLI_MODELS[-1])
    code, text = run_cli()
    payload = json.loads(text)

    def edit(change):
        doc = json.loads(text)
        change(doc)
        return code, json.dumps(doc)

    yield label, check_cli, (code, text), {
        "flipped gamma sign": edit(lambda d: d.__setitem__("gamma", (-np.array(d["gamma"])).tolist())),
        "wrong dof": edit(lambda d: d["fit"].__setitem__("dof", payload["fit"]["dof"] + 1)),
        "perturbed pi_hat": edit(lambda d: d.__setitem__("pi_hat", _perturbed(d["pi_hat"]).tolist())),
        "correlation 0.48": edit(lambda d: d.__setitem__("correlation", 0.48)),
        "p-value 0.15": edit(lambda d: d["fit"].__setitem__("p_value", 0.15)),
        "exit code 3": (3, text),
    }

    def gg_sweep(best):
        return [(f"sweep GG {lam:+.2f}", dataclasses.replace(fit, deviance=10.0 + abs(lam - best)))
                for lam in W.SWEEP_LAMBDAS]

    yield "GG sweep minimum (made-up deviances)", lambda outs: (None, mob.check_round(outs)), \
        gg_sweep(W.PAPER_LAMBDA), {"minimum at lambda +0.50": gg_sweep(0.5)}

    large = W.LargeFit(seed=0)
    label, run_large, check_large = large.round(0)[0]
    fit = run_large()
    yield f"large_fit {label}", check_large, fit, {
        "perturbed pi_hat": dataclasses.replace(fit, pi_hat=_perturbed(fit.pi_hat)),
        "wrong dof": dataclasses.replace(fit, dof=fit.dof - 1),
    }

    pi = W.random_table(np.random.default_rng(0), (4, 4))
    label, run_rt, check_rt = W.roundtrip_op(pi, "LC", 1.0)
    rows, cols, gamma, back = run_rt()
    yield f"roundtrip {label}", check_rt, (rows, cols, gamma, back), {
        "reconstruction off by 1e-6": (rows, cols, gamma, back + 1e-6 * np.eye(4)),
        "flipped gamma sign": (rows, cols, -gamma, back),
        "flipped row logit": (-rows, cols, gamma, back),
    }

    label, run_col, check_col = W.collect_op(0, 0, 0, 0.5, (4, 4), "CC")
    draws, etas, violations = run_col()
    flipped = {c: -e for c, e in etas.items()}
    negative = draws.copy()
    negative[0] = negative[0][::-1]  # reversed rows turn positive dependence negative
    negative_etas = {c: W.ref.eta(negative, c) for c in etas}
    yield f"collect {label}", check_col, (draws, etas, violations), {
        "flipped eta sign": (draws, flipped, violations),
        "table with negative gamma": (negative, negative_etas, violations),
        "audit reports a violation": (draws, etas, 1),
        "one table short": (draws[:-1], etas, violations),
    }


def main():
    bad = 0
    for name, check, real, corrupted in _cases():
        reason = _verdict(check, real)
        print(f"{'FAIL' if reason else 'ok  '} {name}: real output "
              + (f"rejected: {reason}" if reason else "accepted"))
        bad += bool(reason)
        for what, out in corrupted.items():
            reason = _verdict(check, out)
            print(f"{'ok  ' if reason else 'FAIL'} {name}: {what} -> "
                  + (f"rejected: {reason}" if reason else "accepted"))
            bad += not reason
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
