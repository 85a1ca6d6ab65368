"""Query specifications and exact evaluation on a Dataset.

Supported statistics: median (odd n only), maximum, second maximum, range
count over a closed interval, and histogram over half-open bins with the
last bin closed. All are order statistics or counts, so evaluation is exact
arithmetic on the sorted value array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import Dataset
from .errors import PreconditionError, QueryError

MEDIAN = "median"
MAXIMUM = "maximum"
SECOND_MAXIMUM = "second_maximum"
RANGE_COUNT = "range_count"
HISTOGRAM = "histogram"

QUERY_KINDS = (MEDIAN, MAXIMUM, SECOND_MAXIMUM, RANGE_COUNT, HISTOGRAM)

# A query result: scalar for the order statistics and range counts, an
# integer vector (one entry per bin) for histograms.
QueryValue = float | int | np.ndarray


@dataclass(frozen=True)
class QuerySpec:
    """One query: its kind plus the range-count endpoints or histogram edges.

    Histogram edges are validated once, stored as a tuple of Python floats
    (the field that equality, hashing and repr see) and kept beside it as a
    read-only float64 array that evaluate() searches. The hash of the fields
    is computed on first use and kept beside them, so the memo keys that
    hold a spec (and a 101-edge histogram's edges) hash it once. The text
    label of a histogram is memoized per distinct spec in a small bounded
    cache, so a spec answered again does not format its edges again; edges
    are the analyst's public query, so the cache holds nothing secret.
    """

    kind: str
    lo: float | None = None
    hi: float | None = None
    edges: tuple[float, ...] | None = None

    # The hash of the fields, kept on first use (see __hash__); a class
    # attribute, not a field, so eq and repr ignore it.
    _hash = None

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise QueryError(f"unknown query kind {self.kind!r}")
        if self.kind == RANGE_COUNT:
            if self.lo is None or self.hi is None:
                raise QueryError("range_count needs lo and hi")
            if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
                raise QueryError("range_count endpoints must be finite")
            if self.lo > self.hi:
                raise QueryError(f"range_count needs lo <= hi, got [{self.lo}, {self.hi}]")
        elif self.kind == HISTOGRAM:
            # one float64 pass converts and checks every edge; a non-numeric
            # edge raises ValueError here. np.array copies, so the kept array
            # never aliases (or freezes) an array the caller passed in.
            edges = np.array(() if self.edges is None else self.edges, dtype=np.float64)
            if edges.ndim != 1 or edges.size < 2:
                raise QueryError("histogram needs at least 2 edges")
            if not np.isfinite(edges).all():
                raise QueryError("histogram edges must be finite")
            if not (edges[:-1] < edges[1:]).all():
                raise QueryError("histogram edges must be strictly increasing")
            edges.flags.writeable = False
            object.__setattr__(self, "edges", tuple(edges.tolist()))
            # _hash before _edge_array: every spec then adds its instance
            # attributes in one order, which keeps CPython's shared attribute
            # layout for all specs (_hash is otherwise added on first use)
            object.__setattr__(self, "_hash", None)
            object.__setattr__(self, "_edge_array", edges)
        else:
            if self.lo is not None or self.hi is not None or self.edges is not None:
                raise QueryError(f"{self.kind} takes no parameters")

    def __reduce__(self):
        # rebuild through the constructor: pickle and copy would otherwise
        # restore the private edge array as a writable copy
        return (type(self), (self.kind, self.lo, self.hi, self.edges))

    def __hash__(self) -> int:
        # the hash dataclass would compute, of the field tuple, kept after
        # the first call (dataclass keeps a __hash__ the class defines)
        h = self._hash
        if h is None:
            h = hash((self.kind, self.lo, self.hi, self.edges))
            object.__setattr__(self, "_hash", h)
        return h

    # -- constructors ----------------------------------------------------

    @classmethod
    def median(cls) -> "QuerySpec":
        return cls(MEDIAN)

    @classmethod
    def maximum(cls) -> "QuerySpec":
        return cls(MAXIMUM)

    @classmethod
    def second_maximum(cls) -> "QuerySpec":
        return cls(SECOND_MAXIMUM)

    @classmethod
    def range_count(cls, lo: float, hi: float) -> "QuerySpec":
        return cls(RANGE_COUNT, lo=float(lo), hi=float(hi))

    @classmethod
    def histogram(cls, edges) -> "QuerySpec":
        return cls(HISTOGRAM, edges=edges if hasattr(edges, "__len__") else list(edges))

    @classmethod
    def parse(cls, text: str) -> "QuerySpec":
        """Parse the CLI spelling: median | max | max2 | count:LO:HI | hist:E1,...,Ek."""
        text = text.strip()
        if text == "median":
            return cls.median()
        if text == "max":
            return cls.maximum()
        if text == "max2":
            return cls.second_maximum()
        if text.startswith("count:"):
            parts = text.split(":")
            if len(parts) != 3:
                raise QueryError(f"expected count:LO:HI, got {text!r}")
            try:
                return cls.range_count(float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise QueryError(f"cannot parse range in {text!r}") from exc
        if text.startswith("hist:"):
            try:
                edges = [float(tok) for tok in text[len("hist:"):].split(",")]
            except ValueError as exc:
                raise QueryError(f"cannot parse edges in {text!r}") from exc
            return cls.histogram(edges)
        raise QueryError(f"unrecognized query {text!r}")

    def to_string(self) -> str:
        if self.kind == MEDIAN:
            return "median"
        if self.kind == MAXIMUM:
            return "max"
        if self.kind == SECOND_MAXIMUM:
            return "max2"
        if self.kind == RANGE_COUNT:
            return f"count:{_fmt(self.lo)}:{_fmt(self.hi)}"
        return _histogram_label(self)

    # -- shape helpers ---------------------------------------------------

    @property
    def integer_valued(self) -> bool:
        """True for counting queries, the only ones discrete noise may mask."""
        return self.kind in (RANGE_COUNT, HISTOGRAM)

    @property
    def vector_valued(self) -> bool:
        return self.kind == HISTOGRAM

    @property
    def n_bins(self) -> int:
        if self.kind != HISTOGRAM:
            return 1
        return len(self.edges) - 1


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


# Keyed by the spec, whose hash is computed once. Equal specs give equal
# text: the only equal floats with different bits are -0.0 and 0.0, and _fmt
# writes "0" for both. 32 entries bound what large specs can pin in memory.
@lru_cache(maxsize=32)
def _histogram_label(q: QuerySpec) -> str:
    return "hist:" + ",".join(_fmt(e) for e in q.edges)


def _rank(q: QuerySpec, n: int) -> int:
    """The 1-based rank r of an order-statistic query on n sorted values.

    The median is x_M for M = (n + 1) / 2 (odd n only), the maximum x_n and
    the second maximum x_{n-1}. Raises on unmet preconditions.
    """
    if q.kind == MEDIAN:
        if n % 2 == 0:
            raise PreconditionError(f"median needs an odd number of records, got {n}")
        return (n + 1) // 2
    if q.kind == MAXIMUM:
        return n
    if n < 2:
        raise PreconditionError(f"second_maximum needs n >= 2, got {n}")
    return n - 1


def evaluate(d: Dataset, q: QuerySpec) -> QueryValue:
    """Evaluate the query exactly. Raises on unmet preconditions.

    Order statistics are indexed; counts and histograms binary-search the
    sorted values, O(log n) per endpoint or edge.
    """
    values = d.values
    n = values.size
    if not q.integer_valued:
        return float(values[_rank(q, n) - 1])
    if q.kind == RANGE_COUNT:
        return int(np.searchsorted(values, q.hi, "right") - np.searchsorted(values, q.lo, "left"))
    # bins are [e_i, e_{i+1}) except the last, which also keeps its right edge
    edges = q._edge_array
    cuts = np.searchsorted(values, edges, "left")
    cuts[-1] = np.searchsorted(values, edges[-1], "right")
    return np.diff(cuts).astype(np.int64, copy=False)
