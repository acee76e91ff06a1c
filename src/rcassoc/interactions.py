"""Association measures of a table: scaled interactions and log-odds ratios.

For each cut pair (i, j) and event sides (u, v) the local dependence ratio
is rho = P(E1 x E2) / (P(E1) P(E2)).  The scaled interaction applies the
divergence link F to the four ratios in a second-order contrast

    gamma[i, j] = F(rho11) - F(rho10) - F(rho01) + F(rho00)

and the log-odds ratio eta[i, j] is the same contrast with log of the joint
event probabilities (the marginal factors cancel).  Under the KL family the
two coincide exactly.  All 16 logit-type pairs are supported; the pair may
be given explicitly or default to the table's own margin types.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .divergence import DivergenceFamily, kl
from .table import LogitType

__all__ = [
    "InteractionMatrix",
    "MarginalLogits",
    "marginal_logits",
    "table_logits",
    "gamma_matrix",
    "lor_matrix",
    "gamma_jacobian",
    "gamma_matrix_batch",
    "lor_matrix_batch",
]


@dataclass(frozen=True)
class InteractionMatrix:
    """(I1-1, I2-1) association values for one logit pair.

    ``scale`` is the divergence family whose link produced the values, or
    None for a plain log-odds-ratio matrix.
    """

    values: np.ndarray
    pair: tuple[LogitType, LogitType]
    scale: DivergenceFamily | None

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(
            self, "pair", (LogitType.parse(self.pair[0]), LogitType.parse(self.pair[1]))
        )

    @property
    def row_logit(self):
        return self.pair[0]

    @property
    def col_logit(self):
        return self.pair[1]

    @property
    def shape(self):
        return self.values.shape

    def __getitem__(self, key):
        return self.values[key]


@dataclass(frozen=True)
class MarginalLogits:
    """Logits of one margin: entry i = log P(E(i,1)) - log P(E(i,0))."""

    values: np.ndarray
    logit_type: LogitType
    margin: str = "row"

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "logit_type", LogitType.parse(self.logit_type))
        if self.margin not in ("row", "column"):
            raise ValueError(f"margin must be 'row' or 'column', got {self.margin!r}")

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


def marginal_logits(margin, logit_type, which="row"):
    """Marginal logits of a probability vector under one logit type."""
    margin = np.asarray(margin, dtype=np.float64)
    _check_positive(margin, "marginal probabilities")
    lt = LogitType.parse(logit_type)
    values = kernels.marginal_logit_values(margin, lt.code)
    return MarginalLogits(values, lt, which)


def table_logits(table, l1=None, l2=None):
    """(row, column) marginal logits of a table."""
    row, col = _resolve_pair(table, l1, l2)
    return (
        marginal_logits(table.row_margin(), row, "row"),
        marginal_logits(table.col_margin(), col, "column"),
    )


def gamma_matrix(table, l1=None, l2=None, fam=None):
    """Scaled interaction matrix under ``fam`` (default KL) for a logit pair."""
    fam = fam or kl()
    row, col = _resolve_pair(table, l1, l2)
    _check_positive(table.probs, "cell probabilities")
    values = kernels.gamma_values(table.probs, row.code, col.code, fam.lam)
    return InteractionMatrix(values, (row, col), fam)


def lor_matrix(table, l1=None, l2=None):
    """Log-odds-ratio matrix for a logit pair."""
    row, col = _resolve_pair(table, l1, l2)
    _check_positive(table.probs, "cell probabilities")
    values = kernels.lor_values(table.probs, row.code, col.code)
    return InteractionMatrix(values, (row, col), None)


def gamma_jacobian(table, l1=None, l2=None, fam=None):
    """Derivative of vec(gamma) with respect to vec(pi), both C-ordered.

    Shape ``((I1-1)(I2-1), I1*I2)``.  Table entries are treated as free
    coordinates; differentiating through a normalized parametrization is
    the caller's chain-rule step.
    """
    fam = fam or kl()
    row, col = _resolve_pair(table, l1, l2)
    _check_positive(table.probs, "cell probabilities")
    return kernels.gamma_jacobian_values(table.probs, row.code, col.code, fam.lam)


def gamma_matrix_batch(pis, l1, l2, fam=None):
    """Scaled interactions for a (n, I1, I2) stack of positive tables."""
    fam = fam or kl()
    pis = np.asarray(pis, dtype=np.float64)
    _check_positive(pis, "cell probabilities")
    return kernels.gamma_values_batch(
        pis, LogitType.parse(l1).code, LogitType.parse(l2).code, fam.lam
    )


def lor_matrix_batch(pis, l1, l2):
    """Log-odds ratios for a (n, I1, I2) stack of positive tables."""
    pis = np.asarray(pis, dtype=np.float64)
    _check_positive(pis, "cell probabilities")
    return kernels.lor_values_batch(
        pis, LogitType.parse(l1).code, LogitType.parse(l2).code
    )
