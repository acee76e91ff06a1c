"""The top-level public surface, the README examples that use it, and what
importing the command line costs."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import rcassoc
from rcassoc import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# the names the README example and the acceptance tests import, plus the
# exceptions and warnings that callers catch
PUBLIC = {
    "__version__",
    "CanonicalParam",
    "ContingencyTable",
    "EqualColumnSpacing",
    "EqualRowSpacing",
    "MarginalHomogeneity",
    "MarginalShift",
    "ModelSpec",
    "canonical_to_prob",
    "collect_nonnegative_gamma_tables",
    "constraint_eval",
    "counterexample_names",
    "counterexample_verify",
    "cressie_read",
    "dependence_report",
    "extract_invariants",
    "fit",
    "gamma_matrix",
    "gamma_matrix_batch",
    "kl",
    "load_mobility",
    "lor_matrix_batch",
    "rank_residual",
    "reconstruct",
    "score_correlation",
    "svd_scores",
    "theta_from_prob",
    "TableParseError",
    "PivotError",
    "ReconstructionError",
    "DegenerateScoreError",
    "RedundantConstraintWarning",
    "RankDeficiencyWarning",
}


def _top_level_imports(code):
    """Names a source text imports with ``from rcassoc import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "rcassoc"
        for alias in node.names
    }


def test_all_is_the_public_surface():
    assert len(rcassoc.__all__) == len(set(rcassoc.__all__))
    assert set(rcassoc.__all__) == PUBLIC
    for name in rcassoc.__all__:
        assert getattr(rcassoc, name) is not None
    assert rcassoc.USE_NUMBA is False
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text()
    assert _top_level_imports(acceptance) <= PUBLIC


def _library_example():
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs(capsys):
    code = _library_example()
    imported = _top_level_imports(code)
    assert imported and imported <= PUBLIC
    exec(compile(code, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3


def _readme_commands():
    """Every ``rcassoc ...`` command of the README's shell blocks as an argv,
    continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rcassoc ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "fit", "sweep", "check", "reconstruct", "counterexamples"
    }
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README command does not parse: rcassoc {shlex.join(argv)}")


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes most of a second to import, longer than the fits the
    # CLI runs; the p-value comes from scipy.special
    code = "import sys, rcassoc.cli; sys.exit('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
