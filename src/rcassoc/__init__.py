"""Rank-constrained association models for two-way contingency tables.

Interactions are log-odds ratios of local, global, continuation or reverse
logits, optionally rescaled through a Cressie-Read power link, with maximum
likelihood fitting under rank and linear marginal constraints.

The top level exports the fitting, analysis and reconstruction entry points
and the exceptions and warnings they raise; everything else is imported from
its module (``rcassoc.table``, ``rcassoc.interactions``, ``rcassoc.rank``,
...).
"""

from .analysis import (
    DegenerateScoreError,
    RankDeficiencyWarning,
    ReconstructionError,
    collect_nonnegative_gamma_tables,
    counterexample_names,
    counterexample_verify,
    dependence_report,
    extract_invariants,
    reconstruct,
    score_correlation,
    svd_scores,
)
from .datasets import load_mobility
from .divergence import cressie_read, kl
from .estimation import (
    CanonicalParam,
    EqualColumnSpacing,
    EqualRowSpacing,
    MarginalHomogeneity,
    MarginalShift,
    ModelSpec,
    RedundantConstraintWarning,
    canonical_to_prob,
    constraint_eval,
    fit,
    theta_from_prob,
)
from .interactions import gamma_matrix, gamma_matrix_batch, lor_matrix_batch
from .rank import PivotError, rank_residual
from .table import ContingencyTable, TableParseError

__all__ = [
    "__version__",
    # tables
    "ContingencyTable",
    "TableParseError",
    "load_mobility",
    # divergence scaling
    "cressie_read",
    "kl",
    # interactions
    "gamma_matrix",
    "gamma_matrix_batch",
    "lor_matrix_batch",
    # rank deflation
    "PivotError",
    "rank_residual",
    # estimation
    "CanonicalParam",
    "EqualColumnSpacing",
    "EqualRowSpacing",
    "MarginalHomogeneity",
    "MarginalShift",
    "ModelSpec",
    "RedundantConstraintWarning",
    "canonical_to_prob",
    "constraint_eval",
    "fit",
    "theta_from_prob",
    # analysis
    "DegenerateScoreError",
    "RankDeficiencyWarning",
    "ReconstructionError",
    "collect_nonnegative_gamma_tables",
    "counterexample_names",
    "counterexample_verify",
    "dependence_report",
    "extract_invariants",
    "reconstruct",
    "score_correlation",
    "svd_scores",
]

__version__ = "0.1.0"

# There is one kernel path, in numpy; the constant stays for benchmark
# environment records, which state whether a compiled path was in use.
USE_NUMBA = False
