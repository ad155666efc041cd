"""Dataset model, CSV ingestion, and covariate masking.

A :class:`Dataset` couples a non-negative integer outcome vector with a
design matrix whose first column is a fixed intercept.  Instances are
immutable (arrays are marked read-only) so they can be shared freely by
concurrent fitting tasks.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    EmptyDataError,
    ParseError,
    SchemaError,
)

# rows converted per column pass of load_csv: bounds the cell strings held
# at once, so peak memory stays near the row-by-row loop's at any file size
_CSV_CHUNK_ROWS = 256


def _frozen(arr: np.ndarray) -> np.ndarray:
    # C order keeps BLAS summation order, and therefore every downstream
    # floating-point result, identical across construction paths
    arr = np.array(arr, copy=True, order="C")
    arr.setflags(write=False)
    return arr


def _column_products(X: np.ndarray) -> np.ndarray:
    """The (n, k*k) products x_ij x_il of the columns of each row of X."""
    return (X[:, :, None] * X[:, None, :]).reshape(len(X), -1)


@dataclass(frozen=True)
class Dataset:
    """Count outcome plus intercept-first design matrix.

    Attributes:
        y: length-n vector of non-negative integer counts.
        X: n x (p+1) float design matrix; column 0 is identically 1.
        names: the p covariate labels (column j+1 of X is names[j]).
        outcome_name: label used for the outcome in summaries/reports.
    """

    y: np.ndarray
    X: np.ndarray
    names: tuple[str, ...]
    outcome_name: str = "y"

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1:
            raise DimensionError("outcome must be a 1-D vector")
        if y.size == 0:
            raise EmptyDataError("dataset has no observations")
        yf = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(yf)):
            raise DomainError("outcome contains non-finite values")
        if np.any(yf < 0) or np.any(yf != np.floor(yf)):
            raise DomainError("outcome must contain non-negative integers")
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 2 or X.shape[0] != y.size:
            raise DimensionError("design matrix shape does not match outcome length")
        if X.shape[1] < 1 or not np.all(X[:, 0] == 1.0):
            raise DimensionError("design matrix column 0 must be the all-ones intercept")
        if not np.all(np.isfinite(X)):
            raise DomainError("design matrix contains non-finite values")
        names = tuple(str(v) for v in self.names)
        if len(names) != X.shape[1] - 1:
            raise DimensionError(
                f"{len(names)} covariate names for {X.shape[1] - 1} covariate columns"
            )
        if len(set(names)) != len(names):
            raise SchemaError("covariate names must be unique")
        object.__setattr__(self, "y", _frozen(y.astype(np.int64)))
        object.__setattr__(self, "X", _frozen(X))
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def p(self) -> int:
        return self.X.shape[1] - 1

    @cached_property
    def log_y_factorial(self) -> np.ndarray:
        """Cached log(y!) terms; constant across likelihood evaluations."""
        counts, at = np.unique(self.y, return_inverse=True)
        terms = np.array([math.lgamma(c + 1.0) for c in counts.tolist()])
        return _frozen(terms[at.reshape(self.y.shape)])

    @cached_property
    def column_products(self) -> np.ndarray:
        """Cached (n, k*k) column products of X (:func:`_column_products`); the design is fixed."""
        return _frozen(_column_products(self.X))


@dataclass(frozen=True)
class CovariateMask:
    """Inclusion bits over the p covariates; the intercept is always kept.

    The all-zeros mask explicitly designates the intercept-only model.
    """

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise DimensionError("mask bits must be a 1-D vector")
        object.__setattr__(self, "bits", _frozen(bits.astype(bool)))

    @classmethod
    def all_ones(cls, p: int) -> "CovariateMask":
        return cls(np.ones(p, dtype=bool))

    @classmethod
    def none(cls, p: int) -> "CovariateMask":
        return cls(np.zeros(p, dtype=bool))

    @classmethod
    def from_numbers(cls, p: int, numbers) -> "CovariateMask":
        """Build a mask from 1-based covariate numbers (report convention)."""
        bits = np.zeros(p, dtype=bool)
        for num in numbers:
            k = int(num)
            if not 1 <= k <= p:
                raise DomainError(f"covariate number {k} outside 1..{p}")
            bits[k - 1] = True
        return cls(bits)

    @property
    def p(self) -> int:
        return self.bits.size

    @property
    def numbers(self) -> tuple[int, ...]:
        """1-based numbers of the included covariates."""
        return tuple(int(j) + 1 for j in np.flatnonzero(self.bits))

    @property
    def key(self) -> bytes:
        """Hashable identity of the mask, for caches and counters."""
        return self.bits.tobytes()

    def render(self) -> str:
        """Human-readable subset label, e.g. ``"1, 3, 4"`` or ``"none"``."""
        nums = self.numbers
        return ", ".join(str(k) for k in nums) if nums else "none"


@dataclass(frozen=True)
class ColumnStats:
    mean: float
    sd: float
    min: float
    max: float


def load_csv(path, outcome_col: str, covariate_cols) -> Dataset:
    """Read a comma-delimited UTF-8 file into a Dataset.

    The first row must be a header containing ``outcome_col`` and every
    name in ``covariate_cols``.  Outcome cells must be non-negative
    integer literals; covariate cells must parse as floats.  Missing
    values are rejected, not imputed.
    """
    covariate_cols = list(covariate_cols)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        missing = [c for c in [outcome_col, *covariate_cols] if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing column(s): {', '.join(missing)}")
        y_idx = header.index(outcome_col)
        x_idx = [header.index(c) for c in covariate_cols]
        parts = []
        for first in itertools.count(1, _CSV_CHUNK_ROWS):
            rows: list[list[str]] = []
            try:
                rows.extend(itertools.islice(reader, _CSV_CHUNK_ROWS))
            except (csv.Error, UnicodeDecodeError):
                # a bad row before the unreadable one is named first, as row by row
                _parse_rows(path, rows, first, len(header), y_idx, x_idx, covariate_cols)
                raise
            if not rows:
                break
            parsed = _parse_columns(rows, len(header), y_idx, x_idx)
            if parsed is None:  # some cell is bad: the row loop names the first one
                parsed = _parse_rows(path, rows, first, len(header), y_idx, x_idx, covariate_cols)
            parts.append(parsed)

    if not parts:
        raise EmptyDataError(f"{path}: no data rows")
    y = np.concatenate([part[0] for part in parts])
    return Dataset(
        y=y,
        X=np.column_stack([np.ones(len(y)), np.concatenate([part[1] for part in parts])]),
        names=tuple(covariate_cols),
        outcome_name=outcome_col,
    )


def _parse_columns(rows, width: int, y_idx: int, x_idx):
    """The outcome vector and (n, p) covariate block of ``rows``, column by
    column, or None if any row has the wrong width or any cell is bad."""
    if any(len(row) != width for row in rows):
        return None
    cols = list(zip(*rows))
    try:
        ys = list(map(int, map(str.strip, cols[y_idx])))
        covs = [list(map(float, map(str.strip, cols[j]))) for j in x_idx]
    except ValueError:
        return None
    if min(ys) < 0:
        return None
    return np.asarray(ys, dtype=np.int64), np.array(covs, dtype=float).reshape(len(x_idx), len(ys)).T


def _parse_rows(path, rows, first: int, width: int, y_idx: int, x_idx, covariate_cols):
    """:func:`_parse_columns` row by row, numbering ``rows`` from ``first``,
    raising a :class:`ParseError` at the first bad row."""
    ys: list[int] = []
    xs: list[list[float]] = []
    for row_num, row in enumerate(rows, start=first):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {row_num} has {len(row)} cells, expected {width}",
                row=row_num,
            )
        cell = row[y_idx].strip()
        try:
            value = int(cell)
        except ValueError:
            raise ParseError(
                f"{path}: row {row_num}: outcome {cell!r} is not an integer",
                row=row_num,
            ) from None
        if value < 0:
            raise ParseError(
                f"{path}: row {row_num}: outcome {value} is negative", row=row_num
            )
        ys.append(value)
        covs = []
        for j, col in zip(x_idx, covariate_cols):
            cell = row[j].strip()
            try:
                covs.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_num}: {col}={cell!r} is not a number",
                    row=row_num,
                ) from None
        xs.append(covs)
    return np.asarray(ys, dtype=np.int64), np.asarray(xs, dtype=float).reshape(len(ys), -1)


def dataset_csv_text(d: Dataset) -> str:
    """CSV text for a Dataset; float cells use repr so values round-trip."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([d.outcome_name, *d.names])
    for i in range(d.n):
        writer.writerow([int(d.y[i]), *[repr(float(v)) for v in d.X[i, 1:]]])
    return buf.getvalue()


def save_csv(d: Dataset, path) -> None:
    """Write a Dataset back to CSV (the text of :func:`dataset_csv_text`)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dataset_csv_text(d))


def apply_mask(d: Dataset, m: CovariateMask) -> Dataset:
    """Keep the intercept plus the masked-in covariates; the input is untouched."""
    if m.p != d.p:
        raise DimensionError(f"mask length {m.p} does not equal p={d.p}")
    cols = [0] + [j + 1 for j in np.flatnonzero(m.bits)]
    return Dataset(
        y=d.y,
        X=d.X[:, cols],
        names=tuple(d.names[j] for j in np.flatnonzero(m.bits)),
        outcome_name=d.outcome_name,
    )


def subset_rows(d: Dataset, rows) -> Dataset:
    """Dataset restricted to the given row indices (order preserved)."""
    rows = np.asarray(rows)
    if rows.dtype == bool:
        rows = np.flatnonzero(rows)
    if rows.size == 0:
        raise EmptyDataError("row subset is empty")
    return Dataset(y=d.y[rows], X=d.X[rows], names=d.names, outcome_name=d.outcome_name)


def _column_stats(values: np.ndarray) -> ColumnStats:
    values = np.asarray(values, dtype=float)
    # single observation: the n-1 denominator is undefined; report 0 by convention
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return ColumnStats(
        mean=float(values.mean()),
        sd=sd,
        min=float(values.min()),
        max=float(values.max()),
    )


def summary_stats(d: Dataset) -> dict[str, ColumnStats]:
    """Per-column mean / sd (n-1) / min / max, outcome first."""
    out = {d.outcome_name: _column_stats(d.y)}
    for j, name in enumerate(d.names):
        out[name] = _column_stats(d.X[:, j + 1])
    return out


def standardize_covariates(d: Dataset) -> Dataset:
    """Center and scale every covariate column to zero mean, unit sd.

    Constant columns are left untouched (with a warning) since dividing
    by a zero sd would destroy them.
    """
    X = np.array(d.X, copy=True)
    for j in range(1, d.p + 1):
        col = X[:, j]
        sd = col.std(ddof=1) if d.n > 1 else 0.0
        if sd < 1e-12:
            warnings.warn(
                f"covariate {d.names[j - 1]!r} is constant; not standardized",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        X[:, j] = (col - col.mean()) / sd
    return Dataset(y=d.y, X=X, names=d.names, outcome_name=d.outcome_name)
