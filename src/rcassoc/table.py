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
    "read_numbers",
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
    """Logit family of one margin; a ``str`` enum, so each member equals its
    letter (``GLOBAL == "G"``), which is how the kernels take it."""

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


def _freeze(a):
    # a copy, so that the caller's array stays writable
    a = np.array(a, dtype=np.float64, order="C")
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

    def row_margin(self):
        return self.probs.sum(axis=1)

    def col_margin(self):
        return self.probs.sum(axis=0)


def read_numbers(path):
    """Rows of finite numbers from a whitespace- or comma-delimited file.

    Blank lines and ``#`` comments are skipped.  Returns the array and the
    file line of each of its rows.  Raises TableParseError, naming the line
    and the column, for a value that does not parse or is not finite and
    for a row whose length differs from the first.
    """
    rows, lines = [], []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.replace(",", " ").split()
            if rows and len(fields) != len(rows[0]):
                msg = f"{path}: unequal row lengths, {len(fields)} columns after {len(rows[0])}"
                raise TableParseError(msg, line=lineno)
            parsed = []
            for colno, tok in enumerate(fields, start=1):
                try:
                    val = float(tok)
                except ValueError:
                    raise TableParseError(
                        f"{path}: could not parse {tok!r} as a number", line=lineno, column=colno
                    ) from None
                if not math.isfinite(val):
                    raise TableParseError(
                        f"{path}: non-finite value {tok!r}", line=lineno, column=colno
                    )
                parsed.append(val)
            rows.append(parsed)
            lines.append(lineno)
    if not rows:
        raise TableParseError(f"{path}: no data rows found")
    return np.asarray(rows, dtype=np.float64), lines


def read_counts(path, row_logit="L", col_logit="L"):
    """Read a counts file (the format of ``read_numbers``) into a table.

    Every count must be non-negative, and the table needs at least two
    rows and two columns.
    """
    counts, lines = read_numbers(path)
    negative = np.argwhere(counts < 0)
    if negative.size:
        i, j = negative[0]
        raise TableParseError(
            f"{path}: negative count {counts[i, j]:g}", line=lines[i], column=int(j) + 1
        )
    if counts.shape[0] < 2 or counts.shape[1] < 2:
        raise TableParseError(
            f"table needs at least 2 rows and 2 columns, got {counts.shape[0]}x{counts.shape[1]}"
        )
    return ContingencyTable.from_counts(counts, row_logit, col_logit)
