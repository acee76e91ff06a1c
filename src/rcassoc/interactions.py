"""Association measures of a table: scaled interactions and log-odds ratios.

For each cut pair (i, j) and event sides (u, v) the local dependence ratio
is rho = P(E1 x E2) / (P(E1) P(E2)).  The scaled interaction applies the
divergence link F to the four ratios in a second-order contrast

    gamma[i, j] = F(rho11) - F(rho10) - F(rho01) + F(rho00)

and the log-odds ratio eta[i, j] is the same contrast with log of the joint
event probabilities (the marginal factors cancel).  Under the KL family the
two coincide exactly.  All 16 logit-type pairs are supported; the pair may
be given explicitly or default to the table's own margin types.

A table's results carry their logit types: ``InteractionMatrix`` holds the
values and the pair, ``MarginalLogits`` the values and the margin's type.
The batched functions return plain arrays.  Derivatives are taken in
``kernels``, which the fitter calls directly.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .divergence import kl
from .table import LogitType, _freeze

__all__ = [
    "InteractionMatrix",
    "MarginalLogits",
    "marginal_logits",
    "table_logits",
    "gamma_matrix",
    "lor_matrix",
    "gamma_matrix_batch",
    "lor_matrix_batch",
]


@dataclass(frozen=True)
class InteractionMatrix:
    """(I1-1, I2-1) association values for one logit pair."""

    values: np.ndarray
    pair: tuple[LogitType, LogitType]

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        object.__setattr__(
            self, "pair", (LogitType.parse(self.pair[0]), LogitType.parse(self.pair[1]))
        )


@dataclass(frozen=True)
class MarginalLogits:
    """Logits of one margin: entry i = log P(E(i,1)) - log P(E(i,0))."""

    values: np.ndarray
    logit_type: LogitType

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        object.__setattr__(self, "logit_type", LogitType.parse(self.logit_type))

    def __len__(self):
        return self.values.shape[0]


def _check_positive(values, what):
    if np.any(np.asarray(values) <= 0.0):
        raise ValueError(
            f"association measures need strictly positive {what}; "
            "smooth or collapse the zero cells first"
        )


def _resolve_pair(table, l1, l2):
    row = table.row_logit if l1 is None else LogitType.parse(l1)
    col = table.col_logit if l2 is None else LogitType.parse(l2)
    return row, col


def marginal_logits(margin, logit_type):
    """Marginal logits of a probability vector under one logit type."""
    margin = np.asarray(margin, dtype=np.float64)
    _check_positive(margin, "marginal probabilities")
    lt = LogitType.parse(logit_type)
    values = kernels.marginal_logit_values(margin, lt)
    return MarginalLogits(values, lt)


def table_logits(table, l1=None, l2=None):
    """(row, column) marginal logits of a table."""
    row, col = _resolve_pair(table, l1, l2)
    return (
        marginal_logits(table.row_margin(), row),
        marginal_logits(table.col_margin(), col),
    )


def gamma_matrix(table, l1=None, l2=None, fam=None):
    """Scaled interaction matrix under ``fam`` (default KL) for a logit pair."""
    fam = fam or kl()
    row, col = _resolve_pair(table, l1, l2)
    _check_positive(table.probs, "cell probabilities")
    values = kernels.gamma_values(table.probs, row, col, fam.lam)
    return InteractionMatrix(values, (row, col))


def lor_matrix(table, l1=None, l2=None):
    """Log-odds-ratio matrix for a logit pair."""
    row, col = _resolve_pair(table, l1, l2)
    _check_positive(table.probs, "cell probabilities")
    values = kernels.lor_values(table.probs, row, col)
    return InteractionMatrix(values, (row, col))


def gamma_matrix_batch(pis, l1, l2, fam=None):
    """Scaled interactions for a (n, I1, I2) stack of positive tables."""
    fam = fam or kl()
    pis = np.asarray(pis, dtype=np.float64)
    _check_positive(pis, "cell probabilities")
    return kernels.gamma_values_batch(pis, LogitType.parse(l1), LogitType.parse(l2), fam.lam)


def lor_matrix_batch(pis, l1, l2):
    """Log-odds ratios for a (n, I1, I2) stack of positive tables."""
    pis = np.asarray(pis, dtype=np.float64)
    _check_positive(pis, "cell probabilities")
    return kernels.lor_values_batch(pis, LogitType.parse(l1), LogitType.parse(l2))
