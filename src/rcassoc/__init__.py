"""Rank-constrained association models for two-way contingency tables.

Interactions are log-odds ratios of local, global, continuation or reverse
logits, optionally rescaled through a Cressie-Read power link, with maximum
likelihood fitting under rank and linear marginal constraints.
"""

from .analysis import (
    DegenerateScoreError,
    DependenceReport,
    PairDependence,
    RankDeficiencyWarning,
    ReconstructionError,
    ScoreDecomposition,
    VerificationRecord,
    collect_nonnegative_gamma_tables,
    counterexample_names,
    counterexample_verify,
    dependence_report,
    extract_invariants,
    margin_from_logits,
    reconstruct,
    row_conditional_cumulative,
    score_correlation,
    svd_scores,
)
from .datasets import dataset_names, dataset_path, load_mobility
from .divergence import DivergenceFamily, LinkDomainError, cressie_read, kl
from .estimation import (
    CanonicalParam,
    Custom,
    EqualColumnSpacing,
    EqualRowSpacing,
    FitResult,
    LinearConstraint,
    MarginalHomogeneity,
    MarginalShift,
    ModelSpec,
    RedundantConstraintWarning,
    canonical_to_prob,
    constraint_eval,
    constraint_from_name,
    constraint_names,
    fit,
    theta_from_prob,
)
from .interactions import (
    InteractionMatrix,
    MarginalLogits,
    gamma_jacobian,
    gamma_matrix,
    gamma_matrix_batch,
    lor_matrix,
    lor_matrix_batch,
    marginal_logits,
    rho,
    table_logits,
)
from .rank import DeflationPlan, PivotError, deflate, pivot_select, rank_residual, rank_residual_jacobian
from .table import ContingencyTable, EventSet, LogitType, TableParseError, read_counts

__all__ = [
    "__version__",
    # tables
    "ContingencyTable",
    "EventSet",
    "LogitType",
    "TableParseError",
    "read_counts",
    "dataset_names",
    "dataset_path",
    "load_mobility",
    # divergence scaling
    "DivergenceFamily",
    "LinkDomainError",
    "cressie_read",
    "kl",
    # interactions
    "InteractionMatrix",
    "MarginalLogits",
    "gamma_jacobian",
    "gamma_matrix",
    "gamma_matrix_batch",
    "lor_matrix",
    "lor_matrix_batch",
    "marginal_logits",
    "rho",
    "table_logits",
    # rank deflation
    "DeflationPlan",
    "PivotError",
    "deflate",
    "pivot_select",
    "rank_residual",
    "rank_residual_jacobian",
    # estimation
    "CanonicalParam",
    "Custom",
    "EqualColumnSpacing",
    "EqualRowSpacing",
    "FitResult",
    "LinearConstraint",
    "MarginalHomogeneity",
    "MarginalShift",
    "ModelSpec",
    "RedundantConstraintWarning",
    "canonical_to_prob",
    "constraint_eval",
    "constraint_from_name",
    "constraint_names",
    "fit",
    "theta_from_prob",
    # analysis
    "DegenerateScoreError",
    "DependenceReport",
    "PairDependence",
    "RankDeficiencyWarning",
    "ReconstructionError",
    "ScoreDecomposition",
    "VerificationRecord",
    "collect_nonnegative_gamma_tables",
    "counterexample_names",
    "counterexample_verify",
    "dependence_report",
    "extract_invariants",
    "margin_from_logits",
    "reconstruct",
    "row_conditional_cumulative",
    "score_correlation",
    "svd_scores",
]

__version__ = "0.1.0"

# There is one kernel path, in numpy; the constant stays for benchmark
# environment records, which state whether a compiled path was in use.
USE_NUMBA = False
