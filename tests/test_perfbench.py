"""The benchmark in perfbench/ stays in step with the package it measures.

The tracer patches program functions by module and name, and the self-test
runs one real operation of each workload, so a rename in ``src/`` fails
here instead of in a benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcassoc import MarginalShift, ModelSpec, cressie_read, estimation

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_resolve_and_record(mobility_counts):
    module = _perfbench_module("tracer")
    sites = [(mod, attr) for _, attr, mods in module._sites() for mod in mods]
    originals = [getattr(mod, attr) for mod, attr in sites]
    tracer = module.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in zip(sites, originals):
            assert getattr(mod, attr) is not original, f"{mod.__name__}.{attr} not patched"
        spec = ModelSpec(pair=("G", "G"), family=cressie_read(-0.04), rank=1)
        # through the module attribute, which is what the tracer patches
        result = tracer.op(lambda: estimation.fit(mobility_counts, spec))
    finally:
        tracer.uninstall()
    for (mod, attr), original in zip(sites, originals):
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr} not restored"
    assert result.converged
    metrics = tracer.layer_metrics()
    assert metrics["estimation.iterations_per_fit"] == result.iterations
    assert metrics["rank.rank_residual_jacobian.us_per_call"] > 0
    assert metrics["rank.apply_plan.calls_per_fit"] > 0
    # the tracer counts scipy.linalg.qr calls, and the fitter factorizes with
    # LAPACK's dpstrf, which it does not wrap (ROADMAP item 7); the fitter
    # tests in test_estimation.py assert one dpstrf call per iteration
    assert metrics["linalg.factorizations_per_iteration"] == 0


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("case", ["headline", "large-16x16"])
def test_fit_builds_few_workspaces_per_iteration(case, mobility_counts, polished, monkeypatch):
    # the line search tries the unit step first and its accepted trial
    # workspace is the next iterate's: a fit builds the start's workspace
    # and one per merit evaluation, about one per iteration
    if case == "headline":
        counts = mobility_counts
        spec = ModelSpec(("G", "G"), cressie_read(-0.04), 1, (MarginalShift(),))
    else:
        monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports reference
        counts = _perfbench_module("workloads").large_table(np.random.default_rng([1, 0]))
        spec = ModelSpec(("G", "G"), cressie_read(-0.04), 2)
    built = []
    init = estimation._Workspace.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(estimation._Workspace, "__init__", counting_init)
    result = estimation.fit(counts, spec)
    assert result.converged, result.message
    assert len(built) <= 2 * result.iterations, (len(built), result.iterations)
    assert len(built) == 1 + result.evaluations
    gap = abs(result.deviance - polished(counts, spec).deviance)
    assert gap <= 2.0 * 1e-9 * (abs(result.loglik) + 1.0), gap
