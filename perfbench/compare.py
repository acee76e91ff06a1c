#!/usr/bin/env python3
"""Compare two result sets written by ``perfbench/run.py --out``.

Usage:

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For every workload and metric found in both sets it prints each side's
median and quartiles, the ratio of the medians (change / base), and, for the
end-to-end metrics, whether the change is worse than the base by more than
the bound in BENCHMARK.json.  Run the two sides alternately (base, change,
base, ...) with the same seeds and ``--seconds`` so machine drift hits both.
Results taken with a different kernel path (numba or numpy) or a different
BLAS thread count are refused rather than compared.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
# environment fields that must match for two results to be comparable
MUST_MATCH = ("numba_imports", "rcassoc_use_numba", "blas_threads", "cores_available")


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(records):
    """{(workload, metric): [values]}, {workload: [failed, attempted]}, environments seen."""
    out, ops, envs = {}, {}, set()
    for rec in records:
        envs.add(tuple(rec["environment"].get(k) for k in MUST_MATCH))
        for name, metric in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(metric["value"])
        totals = ops.setdefault(rec["workload"], [0, 0])
        totals[0] += rec["result"]["failed"]
        totals[1] += rec["result"]["attempted"]
    return out, ops, envs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    base, base_ops, base_envs = collect(load(args.base))
    change, change_ops, change_envs = collect(load(args.change))
    envs = base_envs | change_envs
    if len(envs) > 1:
        print("refusing to compare results from different environments "
              f"({', '.join(MUST_MATCH)}): {sorted(envs, key=str)}", file=sys.stderr)
        return 2

    header = f"{'workload':<15} {'metric':<44} {'base q1/med/q3':>32} {'change q1/med/q3':>32} {'ratio':>7}  verdict"
    print(header)
    worse_any = False
    for key in sorted(set(base) & set(change)):
        workload, name = key
        b1, bm, b3 = quartiles(base[key])
        c1, cm, c3 = quartiles(change[key])
        ratio = cm / bm if bm else float("nan")
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = (cm > bm * (1 + bound)) if better[name] == "lower" else (cm < bm * (1 - bound))
            spread = (b3 - b1) / bm if bm else 0.0
            verdict = f"WORSE than bound {bound}" if worse else f"within bound {bound}"
            if spread > bound:
                verdict += f" (unresolved: base spread {spread:.3f} > bound)"
            worse_any |= worse
        print(f"{workload:<15} {name:<44} "
              f"{b1:>10.4g} {bm:>10.4g} {b3:>10.4g} {c1:>10.4g} {cm:>10.4g} {c3:>10.4g} {ratio:>7.3f}  {verdict}")
    for workload in sorted(set(base_ops) & set(change_ops)):
        (bf, ba), (cf, ca) = base_ops[workload], change_ops[workload]
        more = cf / ca > bf / ba
        worse_any |= more
        print(f"{workload:<15} failed/attempted: base {bf}/{ba}, change {cf}/{ca}"
              + ("  MORE FAILURES" if more else ""))
    return 1 if worse_any else 0


if __name__ == "__main__":
    sys.exit(main())
