"""Two-way contingency tables and the four cut-point event families.

A table is a frozen wrapper around an ``(I1, I2)`` probability array.  Both
margins carry a logit type, one of

* ``L`` local: adjacent categories ``{x}`` vs ``{x+1}``,
* ``G`` global: ``{1..x}`` vs ``{x+1..I}``,
* ``C`` continuation: ``{x}`` vs ``{x+1..I}``,
* ``R`` reverse continuation: ``{1..x}`` vs ``{x+1}``,

each defining at cut ``x`` a pair of category events ``E(x, 0)`` and
``E(x, 1)``.  The events of every cut are built and evaluated in
``kernels``; a table only carries the probabilities and the two types.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LogitType",
    "ContingencyTable",
    "TableParseError",
    "read_counts",
]


class TableParseError(ValueError):
    """Raised when a counts file cannot be interpreted as a table."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class LogitType(str, enum.Enum):
    """Logit family of one margin, keyed by its single-letter code."""

    LOCAL = "L"
    GLOBAL = "G"
    CONTINUATION = "C"
    REVERSE = "R"

    @classmethod
    def parse(cls, value):
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).strip().upper())
        except ValueError:
            raise ValueError(
                f"unknown logit type {value!r}; expected one of L, G, C, R"
            ) from None

    @property
    def code(self):
        """Integer code used by the numeric kernels."""
        return "LGCR".index(self.value)


def _freeze(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ContingencyTable:
    """Joint probability table with a logit type on each margin."""

    probs: np.ndarray
    row_logit: LogitType = LogitType.LOCAL
    col_logit: LogitType = LogitType.LOCAL
    counts: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError(f"table must be 2-dimensional, got shape {probs.shape}")
        if probs.shape[0] < 2 or probs.shape[1] < 2:
            raise ValueError(f"table needs at least 2 categories per margin, got {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise ValueError("table entries must be finite")
        if np.any(probs < 0.0):
            raise ValueError("table entries must be non-negative")
        total = probs.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"table must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "probs", _freeze(probs))
        object.__setattr__(self, "row_logit", LogitType.parse(self.row_logit))
        object.__setattr__(self, "col_logit", LogitType.parse(self.col_logit))
        if self.counts is not None:
            object.__setattr__(self, "counts", _freeze(self.counts))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_counts(cls, counts, row_logit="L", col_logit="L"):
        counts = np.asarray(counts, dtype=np.float64)
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        n = counts.sum()
        if n <= 0:
            raise ValueError("counts must have a positive total")
        return cls(counts / n, row_logit, col_logit, counts=counts)

    @classmethod
    def from_probabilities(cls, probs, row_logit="L", col_logit="L", normalize=False):
        probs = np.asarray(probs, dtype=np.float64)
        if normalize:
            total = probs.sum()
            if total <= 0:
                raise ValueError("probabilities must have a positive total")
            probs = probs / total
        return cls(probs, row_logit, col_logit)

    # -- basic views -------------------------------------------------------

    @property
    def shape(self):
        return self.probs.shape

    @property
    def n(self):
        """Total count, or None for a pure probability table."""
        return None if self.counts is None else float(self.counts.sum())

    def row_margin(self):
        return self.probs.sum(axis=1)

    def col_margin(self):
        return self.probs.sum(axis=0)


def read_counts(path, row_logit="L", col_logit="L"):
    """Read a whitespace- or comma-delimited counts file into a table.

    Blank lines and ``#`` comments are skipped.  Every data row must carry
    the same number of columns and parse as finite non-negative numbers.
    """
    rows = []
    width = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.replace(",", " ").split()
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise TableParseError(
                    f"expected {width} columns, found {len(fields)}", line=lineno
                )
            parsed = []
            for colno, tok in enumerate(fields, start=1):
                try:
                    val = float(tok)
                except ValueError:
                    raise TableParseError(
                        f"could not parse {tok!r} as a number", line=lineno, column=colno
                    ) from None
                if not math.isfinite(val):
                    raise TableParseError(
                        f"non-finite count {tok!r}", line=lineno, column=colno
                    )
                if val < 0:
                    raise TableParseError(
                        f"negative count {tok}", line=lineno, column=colno
                    )
                parsed.append(val)
            rows.append(parsed)
    if not rows:
        raise TableParseError("no data rows found")
    counts = np.asarray(rows, dtype=np.float64)
    if counts.shape[0] < 2 or counts.shape[1] < 2:
        raise TableParseError(
            f"table needs at least 2 rows and 2 columns, got {counts.shape[0]}x{counts.shape[1]}"
        )
    return ContingencyTable.from_counts(counts, row_logit, col_logit)
