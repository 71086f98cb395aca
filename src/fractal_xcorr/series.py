"""Series ingestion, log returns and descriptive statistics."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError

MIN_PAIR_LENGTH = 20


@dataclass(frozen=True)
class TimeSeries:
    """Ordered, finite, real-valued observations."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise InputError(f"series {self.label!r}: values must be one-dimensional")
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise InputError(f"series {self.label!r}: non-finite value at index {bad}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AlignedPair:
    """Two series of identical length."""

    x: TimeSeries
    y: TimeSeries

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise InputError(
                f"cannot align {self.x.label!r} (N={len(self.x)}) "
                f"with {self.y.label!r} (N={len(self.y)})"
            )
        if len(self.x) < MIN_PAIR_LENGTH:
            raise InputError(f"aligned pair too short: N={len(self.x)} < {MIN_PAIR_LENGTH}")

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class DescriptiveStats:
    """Moment statistics plus the Jarque-Bera normality test.

    ``kurtosis`` is the raw fourth standardized moment (not excess), and
    skewness/kurtosis use the biased 1/N standardized-moment form.  For a
    zero-variance series the shape statistics and JB are NaN.
    """

    min: float
    max: float
    mean: float
    std_dev: float
    skewness: float
    kurtosis: float
    jarque_bera_statistic: float
    jarque_bera_p_value: float

    def to_dict(self) -> dict:
        return asdict(self)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _is_header(cells) -> bool:
    return not all(_is_number(c.strip()) for c in cells)


def _resolve_column(path, header, n_cols, column) -> tuple:
    """(0-based index, label) of ``column``; n_cols is the width of the first
    data row, or None when there is none."""
    if isinstance(column, int) or (isinstance(column, str) and column.lstrip("-").isdigit()):
        idx = int(column)
        if idx < 0 or (n_cols is not None and idx >= n_cols):
            raise InputError(f"{path}: no column at index {idx}")
        return idx, header[idx] if header and idx < len(header) else f"col{idx}"
    if header is None or column not in header:
        raise InputError(f"{path}: no column named {column!r}")
    return header.index(column), column


def _kept_lines(text: str) -> list:
    """Lines that are neither blank nor '#' comments, split as csv splits them."""
    return [ln for ln in io.StringIO(text, newline="")
            if ln.strip() and not ln.lstrip().startswith("#")]


def _parse_plain(path, text: str, column):
    """One vectorised parse of a quote-free CSV text: (values, label).

    Returns None whenever the result could differ from the row reader's, or
    the row reader would raise: quotes, comma-only lines, too few rows, an
    unknown column, and any unparseable, missing or non-finite cell.
    """
    if '"' in text:
        return None
    lines = text.removesuffix("\n").split("\n")  # the kept lines unless '#', CR or blank
    if "#" in text or "\r" in text or not all(map(str.strip, lines)):
        lines = _kept_lines(text)
    if not lines:
        return None
    first = lines[0].rstrip("\r\n").split(",")
    if not "".join(first).strip():
        return None
    header = [c.strip() for c in first] if _is_header(first) else None
    data = lines[1:] if header is not None else lines
    if len(data) < 2:
        return None
    try:
        idx, label = _resolve_column(path, header, data[0].count(",") + 1, column)
        values = np.loadtxt(data, delimiter=",", usecols=idx, comments=None, ndmin=1)
    except (InputError, ValueError):
        return None
    if not np.isfinite(values).all():
        return None
    return values, label


def _parse_rows(path, text: str, column):
    """Row-by-row reader: csv records that are neither blank nor comments,
    one float() per cell.  Raises with the offending row's number."""
    rows = [
        row for row in csv.reader(io.StringIO(text, newline=""))
        if row and any(c.strip() for c in row) and not row[0].lstrip().startswith("#")
    ]
    if not rows:
        raise InputError(f"{path}: empty file")
    header = None
    if _is_header(rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    idx, label = _resolve_column(path, header, len(rows[0]) if rows else None, column)
    if len(rows) < 2:
        raise InputError(f"{path}: need at least 2 data rows, got {len(rows)}")

    values = np.empty(len(rows))
    offset = 2 if header is not None else 1  # 1-based file row of the first data row
    for i, row in enumerate(rows):
        if idx >= len(row):
            raise InputError(f"{path}: row {i + offset} has no column {idx}")
        cell = row[idx].strip()
        try:
            v = float(cell)
        except ValueError:
            raise InputError(f"{path}: non-numeric cell {cell!r} in row {i + offset}") from None
        if not np.isfinite(v):
            raise InputError(f"{path}: non-finite value {cell!r} in row {i + offset}")
        values[i] = v
    return values, label


def load_csv(path, column) -> TimeSeries:
    """Load one column of a CSV file as a TimeSeries.

    ``column`` is either a header name or a 0-based integer index.  Comment
    lines starting with '#' are skipped; a single header row is
    auto-detected (first row whose cells are not all numeric).  Unparseable
    cells raise an error naming the offending row.

    A quote-free file is parsed in one vectorised pass; quoted files,
    comma-only lines and every file with an error go through the row-by-row
    reader, which gives identical values and names the offending row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror or exc})") from None
    values, label = _parse_plain(path, text, column) or _parse_rows(path, text, column)
    return TimeSeries(values, label=label)


def log_returns(prices: TimeSeries) -> TimeSeries:
    """First difference of log prices; output is one element shorter."""
    p = prices.values
    if p.size < 2:
        raise InputError(f"series {prices.label!r}: need at least 2 prices")
    nonpos = np.flatnonzero(p <= 0)
    if nonpos.size:
        raise InputError(
            f"series {prices.label!r}: non-positive price {p[nonpos[0]]} "
            f"at index {int(nonpos[0])}"
        )
    return TimeSeries(np.diff(np.log(p)), label=prices.label)


def describe(r: TimeSeries) -> DescriptiveStats:
    """Descriptive statistics of a return series.

    Mean uses 1/N, std_dev uses 1/(N-1); skewness and kurtosis are the
    biased 1/N standardized moments with kurtosis reported raw.
    JB = N*(S^2/6 + (K-3)^2/24) with a chi2(2) tail p-value.
    """
    v = r.values
    if v.size < 8:
        raise InputError(f"series {r.label!r}: need at least 8 observations, got {v.size}")
    mean = float(v.mean())
    dev = v - mean
    ss = float(np.sum(dev**2))
    m2 = ss / v.size
    with np.errstate(divide="ignore", invalid="ignore"):  # zero variance: NaN shape
        skew = float(np.mean(dev**3) / m2**1.5)
        kurt = float(np.mean(dev**4) / m2**2)
    jb = v.size * (skew**2 / 6.0 + (kurt - 3.0) ** 2 / 24.0)
    return DescriptiveStats(
        min=float(v.min()),
        max=float(v.max()),
        mean=mean,
        std_dev=math.sqrt(ss / (v.size - 1)),
        skewness=skew,
        kurtosis=kurt,
        jarque_bera_statistic=jb,
        jarque_bera_p_value=math.exp(-jb / 2.0),  # chi2(2) tail
    )
