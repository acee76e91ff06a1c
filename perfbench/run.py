#!/usr/bin/env python3
"""rcassoc benchmark: one workload per run, checked, every metric with its unit.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mobility_fits --seed 1 --seconds 15 --trace 0

``--trace 0`` times whole rounds of operations until ``--seconds`` of wall
time is used and reports the end-to-end metrics: set-up time (median of three
fresh processes, each importing the package from ``src/``, generating its
inputs and running one warm-up operation), median operation time,
operations per second and peak resident memory.  ``--trace 1`` runs a fixed
number of rounds in which every operation runs twice, untraced and with spans
around every call into the program's layers, in alternating order; it
reports the per-layer metrics and the tracing overhead (traced minus
untraced median operation time).  The last line of standard output is the result
object; the line before it is the environment record.  ``--out FILE``
appends both, with the workload and seed, to a JSON-lines file that
``perfbench/compare.py`` reads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads: a single-client closed loop on a
# shared 2-core machine measures steadiest without BLAS thread contention.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def _import_program():
    """Import rcassoc from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "rcassoc" / "__init__.py").is_file():
        print(f"error: no rcassoc package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rcassoc

    if Path(rcassoc.__file__).resolve().parent != SRC / "rcassoc":
        print(f"error: imported rcassoc from {rcassoc.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def _attempt(run, check, tracer):
    """One execution of an operation: (output, seconds, failure, errors)."""
    if tracer:
        tracer.install()
    t0 = perf_counter()
    try:
        out = tracer.op(run) if tracer else run()
    except Exception as exc:  # an operation that raises counts as failed
        return None, None, f"{type(exc).__name__}: {exc}", []
    finally:
        seconds = perf_counter() - t0
        if tracer:
            tracer.uninstall()
    failure, errors = check(out)
    return out, seconds, failure, errors


def _run_ops(workload, rounds=None, seconds=None, tracer=None):
    """Run whole rounds; stop after ``rounds``, or before a round would overrun ``seconds``.

    With a tracer every operation runs twice, untraced and traced, in
    alternating order, so both timings see the same machine conditions.
    """
    res = {"times": [], "traced_times": [], "attempted": 0, "failures": [], "errors": []}
    started = perf_counter()
    k = 0
    while True:
        outputs = []
        for label, run, check in workload.round(k):
            res["attempted"] += 1
            modes = [None]
            if tracer:
                modes = [None, tracer] if res["attempted"] % 2 else [tracer, None]
            failure = None
            for mode in modes:
                out, dt, fail, problems = _attempt(run, check, mode)
                res["errors"] += [f"{label}: {p}" for p in problems]
                if fail:
                    failure = failure or fail
                else:
                    res["traced_times" if mode else "times"].append(dt)
            if failure:
                res["failures"].append(f"{label}: {failure}")
            outputs.append((label, None if failure else out))
        res["errors"] += workload.check_round(outputs)
        k += 1
        elapsed = perf_counter() - started
        if (k >= rounds) if rounds is not None else (elapsed + elapsed / k > seconds):
            return res


def _setup_seconds(args):
    """Median wall time from spawning a fresh process to its 'ready' line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
    return statistics.median(samples)


def _median_ms(times):
    return statistics.median(times) * 1e3 if times else 0.0


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads():
    """Thread count reported by numpy's OpenBLAS, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment():
    import platform

    import numpy
    import scipy

    import rcassoc

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "numba_imports": numba_imports,
        "rcassoc_use_numba": bool(rcassoc.USE_NUMBA),
    }


def _report(failures, errors):
    for line in (failures + errors)[:20]:
        print(f"[perfbench] {line}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    _, warm_run, warm_check = workload.warmup()
    warm_out = warm_run()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    warm_failure, warm_errors = warm_check(warm_out)

    if args.trace == 0:
        setup_s = _setup_seconds(args)
        res = _run_ops(workload, seconds=args.seconds)
        times = res["times"]
        values = {
            "setup_s": setup_s,
            "op_ms": _median_ms(times),
            "ops_per_s": len(times) / sum(times) if times else 0.0,
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        import tracer as tracing

        # a fixed number of rounds, so the traced counts repeat exactly for a seed
        rounds = max(1, round(args.seconds / 2 / workload.nominal_round_s))
        tracer = tracing.Tracer()
        res = _run_ops(workload, rounds=rounds, tracer=tracer)
        values = tracer.layer_metrics()
        values["trace.overhead_ms"] = _median_ms(res["traced_times"]) - _median_ms(res["times"])
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    failures = res["failures"]
    errors = res["errors"] + [f"warm-up: {e}" for e in warm_errors]
    if warm_failure:
        errors.append(f"warm-up failed: {warm_failure}")
    _report(failures, errors)
    result = {
        "correct": not errors,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({**record, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
