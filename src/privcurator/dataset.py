"""Single-column numeric datasets with explicit attribute-domain bounds.

A Dataset is an immutable sorted vector of real values together with the
declared domain of the attribute. The domain matters as much as the data:
sensitivity formulas consume min/max of the domain, and several of them are
uncomputable when a side of the domain is unbounded.

synthesize draws one synthetic dataset. synthesize_block draws many of one
size and distribution as one sorted block: a read-only (T, n) array whose
rows are the sorted values of the datasets that T synthesize calls on one
Generator draw, with their lower and upper bounds as two columns of T
entries and no Dataset per row. curator.calibrate_block and
sensitivity.smooth_sensitivity_block work on that layout.
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

    A Dataset must not be mutated: every calibration input is a function of
    the values and bounds it was built with. curator.calibrate memoizes the
    costly ones in a private per-dataset dict (histogram counts, plus the
    smooth sensitivity S(D) of median, max and max2 per beta and their gdp
    scale per group size; counts need no memo for their sensitivity), at
    most 128 entries, oldest evicted first. The memo lives in the curator's
    memory only and dies with the dataset: it is not a field, so eq and repr
    ignore it, and pickle or copy rebuild the dataset through the constructor
    with an empty memo, so S(D) is never published, pickled or written to a
    session. Whether a release hits the memo shows only whether the same
    query, at the same beta or group size, was asked of this dataset before.
    """

    values: np.ndarray
    bounds: DomainBounds = field(default_factory=DomainBounds)
    name: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionError("a dataset needs at least one value")
        self._seal(np.sort(arr))

    def _seal(self, arr: np.ndarray) -> None:
        # sorted values: NaN sorts last and -inf/+inf to the ends, so the ends
        # alone decide whether every value is finite
        first, last = float(arr[0]), float(arr[-1])
        if not (math.isfinite(first) and math.isfinite(last)):
            raise BoundsError("dataset values must be finite reals")
        lo, hi = self.bounds.lower, self.bounds.upper
        if first < lo or last > hi:
            offender = first if first < lo else last
            raise BoundsError(
                f"value {offender} lies outside the declared bounds [{lo}, {hi}]"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        # rebuild through the constructor: pickle and copy would otherwise
        # restore writable values and carry the memo along
        return (type(self), (self.values, self.bounds, self.name))

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
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not valid UTF-8: {exc}") from exc
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
    The dataset holds the one row of synthesize_block(dist, n, seed, 1).
    """
    block, lower, upper = synthesize_block(dist, n, seed, 1)
    label = "" if isinstance(seed, np.random.Generator) else f",seed={seed}"
    return Dataset(block[0], DomainBounds(lower[0], upper[0]), f"{dist}(n={n}{label})")


def synthesize_block(dist: str, n: int, seed: int | np.random.Generator,
                     count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """count datasets of n i.i.d. values each, as a sorted block and its bounds.

    Returns (block, lower, upper). block is one (count, n) draw, which is
    row by row the stream that count synthesize calls take from one
    Generator, sorted once along its rows and read-only; lower and upper
    hold each row's bounds, as synthesize sets them: [0, 1] for uniform01,
    the row's sorted ends otherwise.
    """
    if dist not in SYNTH_DISTRIBUTIONS:
        raise PreconditionError(
            f"unknown distribution {dist!r}; choose one of {SYNTH_DISTRIBUTIONS}"
        )
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if count < 1:
        raise PreconditionError("count must be at least 1")
    rng = np.random.default_rng(seed)
    if dist == "uniform01":
        block = rng.random((count, n))
    elif dist == "standard_normal":
        block = rng.standard_normal((count, n))
    else:
        block = rng.exponential(1.0, (count, n))
    block.sort(axis=1)
    block.flags.writeable = False
    if dist == "uniform01":
        return block, np.zeros(count), np.ones(count)
    return block, block[:, 0], block[:, -1]
