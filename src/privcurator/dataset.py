"""Single-column numeric datasets with explicit attribute-domain bounds.

A Dataset is an immutable sorted vector of real values together with the
declared domain of the attribute. The domain matters as much as the data:
sensitivity formulas consume min/max of the domain, and several of them are
uncomputable when a side of the domain is unbounded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BoundsError, CsvFormatError, PreconditionError

UNBOUNDED = "unbounded"

SYNTH_DISTRIBUTIONS = ("uniform01", "standard_normal", "exponential1")


@dataclass(frozen=True)
class DomainBounds:
    """Closed attribute domain [lower, upper]; either side may be infinite.

    Use -inf / +inf (or the "unbounded" literal through from_strings) for a
    side with no declared bound.
    """

    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self) -> None:
        lo = float(self.lower)
        hi = float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise BoundsError("domain bounds must not be NaN")
        if lo == math.inf:
            raise BoundsError("lower bound cannot be +infinity")
        if hi == -math.inf:
            raise BoundsError("upper bound cannot be -infinity")
        if lo > hi:
            raise BoundsError(f"lower bound {lo} exceeds upper bound {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    @property
    def span(self) -> float:
        """Domain length upper - lower; infinite when either side is unbounded."""
        if not self.is_bounded:
            return math.inf
        return self.upper - self.lower

    @classmethod
    def from_strings(cls, lower: str, upper: str) -> "DomainBounds":
        """Parse CLI-style bound tokens: a number or the literal "unbounded"."""
        return cls(_parse_bound(lower, -math.inf), _parse_bound(upper, math.inf))

    def to_json_dict(self) -> dict:
        return {"lower": encode_bound(self.lower), "upper": encode_bound(self.upper)}


def _parse_bound(token: str, unbounded_value: float) -> float:
    text = str(token).strip()
    if text.lower() == UNBOUNDED:
        return unbounded_value
    try:
        return float(text)
    except ValueError as exc:
        raise BoundsError(f"cannot parse bound {token!r}") from exc


def encode_bound(value: float) -> float | str:
    """Infinite values render as the "unbounded" literal in JSON output."""
    return UNBOUNDED if math.isinf(value) else value


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable sorted column of real values plus its domain bounds.

    Values are sorted ascending on construction and held in a read-only
    float64 array, so x_1 <= ... <= x_n can be indexed directly by every
    sensitivity formula. The record count n is treated as public: neighbor
    datasets modify one record, they never add or remove one.
    """

    values: np.ndarray
    bounds: DomainBounds = field(default_factory=DomainBounds)
    name: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionError("a dataset needs at least one value")
        if not np.all(np.isfinite(arr)):
            raise BoundsError("dataset values must be finite reals")
        arr = np.sort(arr)
        lo, hi = self.bounds.lower, self.bounds.upper
        if arr[0] < lo or arr[-1] > hi:
            offender = arr[0] if arr[0] < lo else arr[-1]
            raise BoundsError(
                f"value {offender} lies outside the declared bounds [{lo}, {hi}]"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n


def load_csv(path: str | Path, bounds: DomainBounds) -> Dataset:
    """Load a single-column CSV file (one value per line) into a Dataset.

    An optional header line is detected by a non-numeric first token. Parse
    failures and bound violations report the 1-based physical row number.

    numpy's C text reader parses the file. Its result is kept only when it
    is one column of at least one row with every value inside the bounds;
    any other file goes through the per-line loop, which writes every error
    message, so messages and row numbers are those of the loop alone. Both
    paths parse a value to the same float as float().
    """
    path = Path(path)
    values = _parse_with_numpy(path, bounds)
    if values is None:
        return _load_csv_lines(path, bounds)
    return Dataset(values, bounds, name=path.name)


def _parse_with_numpy(path: Path, bounds: DomainBounds) -> np.ndarray | None:
    """The file's values as parsed by np.loadtxt, or None to defer to the loop."""
    try:
        with path.open(encoding="utf-8") as fh:
            first = fh.readline()
        try:
            float(first.strip())
            header = False
        except ValueError:
            # a header is skipped only when the loop would also see it as one
            # whole line; a blank first line or one that str.splitlines breaks
            # in two (at \x0b, \x1c, ...) is read as data and so fails below
            header = bool(first.strip()) and len(first.splitlines()) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input
            table = np.loadtxt(path, dtype=np.float64, comments=None,
                               skiprows=int(header), ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    if table.shape[1] != 1 or table.shape[0] == 0:
        return None
    values = table.reshape(-1)
    # elementwise, so that a NaN elsewhere does not hide an out-of-bounds row
    if np.any((values < bounds.lower) | (values > bounds.upper)):
        return None
    return values


def _load_csv_lines(path: Path, bounds: DomainBounds) -> Dataset:
    """The per-line loader: the reference semantics and every error message."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [(i + 1, line.strip()) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise CsvFormatError(f"{path}: file contains no values")

    first_row, first_text = rows[0]
    try:
        float(first_text)
    except ValueError:
        rows = rows[1:]  # header line
        if not rows:
            raise CsvFormatError(f"{path}: file contains no values after the header")

    values = []
    for row, text in rows:
        try:
            value = float(text)
        except ValueError as exc:
            raise CsvFormatError(f"{path}: row {row}: cannot parse {text!r}") from exc
        if value < bounds.lower or value > bounds.upper:
            raise BoundsError(
                f"{path}: row {row}: value {value} outside bounds "
                f"[{bounds.lower}, {bounds.upper}]"
            )
        values.append(value)
    return Dataset(np.array(values), bounds, name=path.name)


def synthesize(dist: str, n: int, seed: int | np.random.Generator) -> Dataset:
    """Draw n i.i.d. values from a named distribution, deterministically.

    An int seed starts a fresh stream, so equal seeds give equal datasets. A
    Generator is drawn from in place: repeated calls on one Generator give
    fresh i.i.d. datasets, and its seed fixes the whole sequence.

    uniform01 keeps its natural bounds [0, 1]; for standard_normal and
    exponential1 the domain is bounded to [min(sample), max(sample)], which
    makes every domain-dependent sensitivity computable on synthetic data.
    """
    if dist not in SYNTH_DISTRIBUTIONS:
        raise PreconditionError(
            f"unknown distribution {dist!r}; choose one of {SYNTH_DISTRIBUTIONS}"
        )
    if n < 1:
        raise PreconditionError("n must be at least 1")
    rng = np.random.default_rng(seed)
    if dist == "uniform01":
        values = rng.random(n)
        bounds = DomainBounds(0.0, 1.0)
    elif dist == "standard_normal":
        values = rng.standard_normal(n)
        bounds = DomainBounds(float(values.min()), float(values.max()))
    else:
        values = rng.exponential(1.0, n)
        bounds = DomainBounds(float(values.min()), float(values.max()))
    label = "" if isinstance(seed, np.random.Generator) else f",seed={seed}"
    return Dataset(values, bounds, name=f"{dist}(n={n}{label})")
