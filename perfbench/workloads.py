"""The four workloads: seeded inputs, operations, and their correctness checks.

A workload hands out rounds of operations.  ``round(k)`` is a pure function of
the seed and ``k``, so a traced replay runs exactly the operations an untraced
run did.  Each operation is ``(label, run, check)``: ``run()`` calls into the
program through module attributes (so the tracer's patches apply) and returns
its output; ``check(output)`` returns ``(failure, errors)``, where a failure
counts the operation as failed and errors mark the run incorrect.  Every
check compares against ``reference``, never against the program's kernels.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
from scipy.stats import chi2

import reference as ref
from rcassoc import analysis, cli, estimation, interactions
from rcassoc.divergence import cressie_read
from rcassoc.estimation import ModelSpec
from rcassoc.table import ContingencyTable

PAPER_LAMBDA = -0.04
MOBILITY_CSV = Path(__file__).resolve().parents[1] / "src" / "rcassoc" / "data" / "mobility.csv"


def _close(a, b, tol):
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def _fit_errors(counts, result, pair, lam, rank, dof):
    """Checks shared by every fit: dof, rank, deviance, independence bound."""
    errors = []
    if result.dof != dof:
        errors.append(f"dof {result.dof} != {dof}")
    ratio = ref.singular_ratio(ref.gamma(result.pi_hat, pair, lam), rank)
    if ratio > 1e-6:
        errors.append(f"sigma_{rank + 1}/sigma_1 of reference gamma is {ratio:.2e}")
    dev = ref.deviance(counts, result.pi_hat)
    if abs(result.deviance - dev) > 1e-6 * max(1.0, dev):
        errors.append(f"deviance {result.deviance!r} != recomputed {dev!r}")
    g2 = ref.independence_g2(counts)
    if result.deviance > g2 + 1e-6:
        errors.append(f"deviance {result.deviance:.4f} above independence G2 {g2:.4f}")
    return errors


class Workload:
    """A workload lists round k's operations in ``round(k)`` and one more in
    ``warmup()``; ``nominal_round_s``, a rough round time on the 2-core VM
    of the README figures, sizes a traced run."""

    def check_round(self, outputs):
        """Errors found across a whole round of (label, output) pairs."""
        return []


def _fit_check(counts, pair, lam, rank, dof):
    def check(result):
        if not result.converged:
            return f"not converged: {result.message}", []
        return None, _fit_errors(counts, result, pair, lam, rank, dof)

    return check


# ---------------------------------------------------------------------------
# mobility_fits
# ---------------------------------------------------------------------------

SWEEP_PAIRS = ("LL", "GG", "CC")
SWEEP_LAMBDAS = np.round(-0.96 + 0.04 * np.arange(50), 12)
# criterion-1 models at lambda = -0.04: (constraint, paper deviance, dof)
CLI_MODELS = (
    (None, 7.60, 9),
    ("equal-row-spacing", 55.88, 12),
    ("equal-column-spacing", 50.15, 12),
    ("marginal-homogeneity", 40.47, 13),
    ("marginal-shift", 17.19, 12),
)
HEADLINE = {"p_value": (0.143, 0.002), "psi": (1.98, 0.01), "correlation": (0.46, 0.01)}


def cli_fit(argv):
    """``rcassoc fit`` in process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_check(counts, constraint, paper_dev, paper_dof):
    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}", []
        payload = json.loads(text)
        fitres = payload["fit"]
        pi_hat = np.asarray(payload["pi_hat"])
        dev, dof = fitres["deviance"], fitres["dof"]
        errors = []
        if abs(dev - paper_dev) > 0.05 or dof != paper_dof:
            errors.append(f"{constraint}: deviance/dof {dev:.4f}/{dof}, paper {paper_dev}/{paper_dof}")
        if abs(dev - ref.deviance(counts, pi_hat)) > 1e-6 * max(1.0, dev):
            errors.append(f"{constraint}: deviance does not match its recomputation")
        gamma = ref.gamma(pi_hat, ("G", "G"), PAPER_LAMBDA)
        if not _close(payload["gamma"], gamma, 1e-8):
            errors.append(f"{constraint}: reported gamma differs from the reference")
        if ref.singular_ratio(gamma, 1) > 1e-6:
            errors.append(f"{constraint}: reference gamma is not rank 1")
        if constraint == "marginal-shift":
            got = {"p_value": fitres["p_value"], "psi": payload["scores"]["psi"][0],
                   "correlation": payload["correlation"]}
            for key, (want, tol) in HEADLINE.items():
                if abs(got[key] - want) > tol:
                    errors.append(f"headline {key} {got[key]:.4f}, paper {want} +- {tol}")
            if abs(fitres["p_value"] - chi2.sf(dev, dof)) > 1e-9:
                errors.append("headline p-value does not match chi2.sf(deviance, dof)")
        return None, errors

    return check


class MobilityFits(Workload):
    """150 sweep cells through ``fit`` and five criterion-1 fits through the CLI."""

    name = "mobility_fits"
    nominal_round_s = 25.0

    def __init__(self, seed):
        self.seed = seed
        self.counts = np.loadtxt(MOBILITY_CSV, delimiter=",")

    def _cli_op(self, constraint, paper_dev, paper_dof):
        argv = ["fit", "mobility", "--rows-logit", "G", "--cols-logit", "G",
                f"--lambda={PAPER_LAMBDA}", "--rank", "1"]
        if constraint:
            argv += ["--constraint", constraint]
        label = f"cli {constraint or 'none'}"
        return label, (lambda: cli_fit(argv)), cli_check(self.counts, constraint, paper_dev, paper_dof)

    def _sweep_op(self, pair, lam):
        spec = ModelSpec(pair=(pair[0], pair[1]), family=cressie_read(lam), rank=1)
        counts = self.counts
        label = f"sweep {pair} {lam:+.2f}"
        return label, (lambda: estimation.fit(counts, spec)), _fit_check(counts, pair, lam, 1, 9)

    def warmup(self):
        return self._cli_op(*CLI_MODELS[-1])

    def round(self, k):
        ops = [self._sweep_op(p, lam) for p in SWEEP_PAIRS for lam in SWEEP_LAMBDAS]
        ops += [self._cli_op(*model) for model in CLI_MODELS]
        order = np.random.default_rng([self.seed, k]).permutation(len(ops))
        return [ops[i] for i in order]

    def check_round(self, outputs):
        gg = {}
        for label, out in outputs:
            if label.startswith("sweep GG") and out is not None and out.converged:
                gg[float(label.split()[-1])] = out.deviance
        if not gg:
            return ["no converged GG sweep cell"]
        best = min(gg, key=gg.get)
        if abs(best - PAPER_LAMBDA) > 0.04 + 1e-9:
            return [f"GG deviance minimum at lambda {best:+.2f}, paper {PAPER_LAMBDA}"]
        return []


# ---------------------------------------------------------------------------
# large_fit
# ---------------------------------------------------------------------------

LARGE_SIZE = 16
LARGE_RANK = 2
LARGE_N = 1_000_000


def large_table(rng):
    """16x16 counts, no zero cell, from a rank-2 row-column association model.

    log pi_ij = a_i + b_j + mu1_i nu1_j + q_i q_j with linear scores on
    [-1, 1] (jittered by sd 0.02), a centred quadratic score q scaled to the
    same spread, main effects of sd 0.1, and a multinomial draw of
    n = 1,000,000.  With stronger association or wider main effects a few
    tables take 5-50 times the usual iterations or stop unconverged, so a
    run's figures would hinge on the seed.
    """
    x = np.linspace(-1.0, 1.0, LARGE_SIZE)
    quad = x**2 - np.mean(x**2)
    quad *= x.std() / quad.std()
    while True:
        a = rng.normal(0.0, 0.1, LARGE_SIZE)
        b = rng.normal(0.0, 0.1, LARGE_SIZE)
        mu1 = x + rng.normal(0.0, 0.02, LARGE_SIZE)
        nu1 = x + rng.normal(0.0, 0.02, LARGE_SIZE)
        logp = a[:, None] + b[None, :] + np.outer(mu1, nu1) + np.outer(quad, quad)
        pi = np.exp(logp - logp.max())
        pi /= pi.sum()
        counts = rng.multinomial(LARGE_N, pi.ravel()).reshape(pi.shape).astype(float)
        if counts.min() > 0:
            return counts


class LargeFit(Workload):
    """One GG, lambda = -0.04, K = 2 fit of a seeded 16x16 table per round."""

    name = "large_fit"
    nominal_round_s = 0.4
    pair = ("G", "G")

    def __init__(self, seed):
        self.seed = seed
        self.spec = ModelSpec(pair=self.pair, family=cressie_read(PAPER_LAMBDA), rank=LARGE_RANK)
        self.dof = (LARGE_SIZE - 1 - LARGE_RANK) ** 2

    def _op(self, rng, label):
        counts, spec = large_table(rng), self.spec
        check = _fit_check(counts, self.pair, PAPER_LAMBDA, LARGE_RANK, self.dof)
        return label, (lambda: estimation.fit(counts, spec)), check

    def warmup(self):
        return self._op(np.random.default_rng([0, 0]), "warm-up")

    def round(self, k):
        return [self._op(np.random.default_rng([self.seed, k]), f"table {k}")]

# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

ROUNDTRIP_PAIRS = ("LL", "GG", "CC", "LG", "LC", "CG")
ROUNDTRIP_LAMBDAS = (-0.5, 0.0, 1.0)
# per round: three 4x4 tables as in criterion 6d and one 6x6 table
ROUNDTRIP_SHAPES = ((4, 4), (4, 4), (4, 4), (6, 6))
# Criterion 6d lifts its tables by 0.02; at that floor about one CG,
# lambda = -0.5 reconstruction in 10^4 (6x6) and one in 7 x 10^4 (4x4)
# stalls, seed by seed, so the benchmark mixes in more of the uniform table.
ROUNDTRIP_FLOOR = 0.2


def random_table(rng, shape):
    """Dirichlet(1) cell probabilities lifted by ROUNDTRIP_FLOOR / cells and renormalised."""
    size = shape[0] * shape[1]
    pi = rng.dirichlet(np.ones(size)).reshape(shape) + ROUNDTRIP_FLOOR / size
    return pi / pi.sum()


def roundtrip_op(pi, pair, lam):
    table = ContingencyTable.from_probabilities(pi, pair[0], pair[1])
    fam = cressie_read(lam)

    def run():
        rows, cols, gamma = analysis.extract_invariants(table, fam=fam)
        return rows.values, cols.values, gamma.values, analysis.reconstruct(rows, cols, gamma, fam=fam)

    def check(out):
        rows, cols, gamma, back = out
        problems = []
        if not _close(gamma, ref.gamma(pi, pair, lam), 1e-9):
            problems.append("extracted gamma differs from the reference")
        if not (_close(rows, ref.marginal_logits(pi.sum(axis=1), pair[0]), 1e-9)
                and _close(cols, ref.marginal_logits(pi.sum(axis=0), pair[1]), 1e-9)):
            problems.append("extracted marginal logits differ from the reference")
        err = float(np.abs(back - pi).max())
        if err > 1e-7:
            problems.append(f"max |reconstructed - original| = {err:.2e}")
        if not _close(ref.gamma(back, pair, lam), gamma, 1e-8):
            problems.append("reference gamma of the reconstructed table misses the target")
        return ("; ".join(problems) or None), []

    return f"{pi.shape[0]}x{pi.shape[1]} {pair} {lam:+g}", run, check


class Roundtrip(Workload):
    """extract_invariants then reconstruct, 6 pairs x 3 lambdas per table."""

    name = "roundtrip"
    nominal_round_s = 0.45

    def __init__(self, seed):
        self.seed = seed

    def warmup(self):
        return roundtrip_op(random_table(np.random.default_rng([0, 0]), (4, 4)), "GG", 0.0)

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        tables = [random_table(rng, shape) for shape in ROUNDTRIP_SHAPES]
        return [roundtrip_op(pi, pair, lam) for pi in tables
                for pair in ROUNDTRIP_PAIRS for lam in ROUNDTRIP_LAMBDAS]

# ---------------------------------------------------------------------------
# nonneg_collect
# ---------------------------------------------------------------------------

COLLECT_LAMBDAS = (-0.5, 0.0, 0.5, 2.0)
COLLECT_SHAPES = ((3, 3), (4, 4), (5, 5))
COLLECT_COUNT = 256
# criterion-6e premises: gamma(premise) >= 0 implies eta(conclusion) >= 0
IMPLICATIONS = {p: (p,) for p in (a + b for a in "LGCR" for b in "LGCR") if "G" in p}
IMPLICATIONS.update({"LL": ("LG", "GL"), "LC": ("LG", "GG"), "CC": ("GG",)})


def _slack(draws):
    """Per-table relative tolerance for comparing the program with the reference.

    The program takes joint event probabilities as differences of 2-D prefix
    sums, which carry absolute rounding near 1e-16, so an event of
    probability p is off by about 1e-16 / p relative; collector draws can
    hold cells near 1e-11.  The slack allows ten times that, with a floor of
    1e-8 for tables whose smallest cell is not small.
    """
    return 1e-8 + 1e-15 / draws.min(axis=(1, 2))


def _scale(stack):
    return np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))


def collect_op(seed, k, index, lam, shape, premise):
    fam = cressie_read(lam)
    conclusions = IMPLICATIONS[premise]

    def run():
        rng = np.random.default_rng([seed, k, index])
        draws = analysis.collect_nonnegative_gamma_tables(
            rng, shape, (premise[0], premise[1]), fam, COLLECT_COUNT)
        etas = {c: interactions.lor_matrix_batch(draws, c[0], c[1]) for c in conclusions}
        violations = sum(int(np.sum(e.min(axis=(1, 2)) < -1e-10)) for e in etas.values())
        return draws, etas, violations

    def check(out):
        draws, etas, violations = out
        errors = []
        if draws.shape != (COLLECT_COUNT,) + shape:
            return None, [f"collected shape {draws.shape}"]
        slack = _slack(draws)
        gamma = ref.gamma(draws, premise, lam)
        if np.any(gamma.min(axis=(1, 2)) < -slack * _scale(gamma)):
            errors.append(f"a collected table has reference gamma({premise}) < 0")
        if violations:
            errors.append(f"program audit counts {violations} violations")
        for c, got in etas.items():
            want = ref.eta(draws, c)
            if np.any(np.abs(got - want).max(axis=(1, 2)) > slack * _scale(want)):
                errors.append(f"audited eta({c}) differs from the reference")
            if np.any(want.min(axis=(1, 2)) < -slack * _scale(want)):
                errors.append(f"gamma({premise}) >= 0 but reference eta({c}) < 0")
        if premise == "CC" and ref.pooled_survival_violations(draws):
            errors.append("pooled-upper-row survival order violated under gamma(CC) >= 0")
        return None, errors

    return f"{lam:+g} {shape[0]}x{shape[1]} {premise}", run, check


class NonnegCollect(Workload):
    """Collector call plus eta audit, cycling lambda x shape x premise."""

    name = "nonneg_collect"
    nominal_round_s = 2.0

    def __init__(self, seed):
        self.seed = seed
        self.combos = [(lam, shape, premise) for lam in COLLECT_LAMBDAS
                       for shape in COLLECT_SHAPES for premise in IMPLICATIONS]

    def warmup(self):
        return collect_op(0, 0, 0, 0.0, (4, 4), "GG")

    def round(self, k):
        return [collect_op(self.seed, k, i, *combo) for i, combo in enumerate(self.combos)]

WORKLOADS = {w.name: w for w in (MobilityFits, LargeFit, Roundtrip, NonnegCollect)}
