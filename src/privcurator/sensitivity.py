"""Global, local, smooth, and group sensitivity in closed form.

All formulas are order-statistic arithmetic on the sorted values plus the
domain edges. Order statistics referenced outside 1..n are clamped to the
domain: x~_i = min(Dom) for i < 1 and x~_i = max(Dom) for i > n. The brute
force oracle validates this convention; it is not assumed. The clamp is a
read of the sorted values or of a bound, never a padded copy of the data, so
a ladder or a smooth-sensitivity loop costs what it reads, not O(n).

Counting queries have constant L1 sensitivity min(2, n_bins) under the
modify-one-record neighbor relation, where a range count has one bin. A
histogram is one vector release: moving one record can take 1 from one bin
and add 1 to another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DomainBounds, encode_bound
from .errors import PreconditionError
from .queries import (
    HISTOGRAM,
    MAXIMUM,
    MEDIAN,
    RANGE_COUNT,
    SECOND_MAXIMUM,
    QuerySpec,
    evaluate,
)


@dataclass(frozen=True)
class SensitivityReport:
    """Global, local, and smooth sensitivity of one query at one dataset.

    Infinite entries mean the quantity is uncomputable because the domain is
    unbounded on a side the formula needs; they encode as "unbounded" in JSON.
    """

    global_: float
    local: float
    smooth: float
    beta: float

    def to_json_dict(self) -> dict:
        return {
            "global": encode_bound(self.global_),
            "local": encode_bound(self.local),
            "smooth": encode_bound(self.smooth),
            "beta": self.beta,
        }


@dataclass(frozen=True)
class GroupSensitivity:
    """Worst-case |f(y) - f(D)| over datasets y within distance i, for i = 1..g."""

    per_distance: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.per_distance) < 1:
            raise PreconditionError("group sensitivity needs g >= 1")
        object.__setattr__(self, "per_distance", tuple(float(v) for v in self.per_distance))

    @property
    def g(self) -> int:
        return len(self.per_distance)


# ---------------------------------------------------------------------------
# clamped order statistics
# ---------------------------------------------------------------------------


def _stat(v: np.ndarray, bounds: DomainBounds, i: int) -> float:
    # the clamped 1-based order statistic x~_i
    if i < 1:
        return bounds.lower
    if i > v.size:
        return bounds.upper
    return float(v[i - 1])


def _window(v: np.ndarray, bounds: DomainBounds, mid: int, h: int) -> np.ndarray:
    # x~_{mid-h} .. x~_{mid+h}: 2h + 1 clamped order statistics, x~_mid at index h
    first = mid - h
    a, b = max(first, 1), min(mid + h, v.size)
    w = np.empty(2 * h + 1)
    w[: a - first] = bounds.lower
    w[a - first : b - first + 1] = v[a - 1 : b]
    w[b - first + 1 :] = bounds.upper
    return w


# ---------------------------------------------------------------------------
# global sensitivity
# ---------------------------------------------------------------------------


def global_sensitivity(q: QuerySpec, bounds: DomainBounds, n: int) -> float:
    """Worst-case |f(D1) - f(D2)| over all neighbor pairs in the whole domain.

    For the order-statistic queries this is the domain length, so it is
    infinite whenever a needed side of the domain is unbounded. Counting
    queries have the same constant sensitivity regardless of the domain.
    """
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if q.kind in (RANGE_COUNT, HISTOGRAM):
        return float(min(2, q.n_bins))
    return bounds.span


# ---------------------------------------------------------------------------
# local sensitivity
# ---------------------------------------------------------------------------


def local_sensitivity(d: Dataset, q: QuerySpec) -> float:
    """Worst-case |f(y) - f(D)| over datasets y differing from D in one record."""
    v = d.values
    n = v.size
    if q.kind == MEDIAN:
        if n % 2 == 0 or n < 3:
            raise PreconditionError(f"median local sensitivity needs odd n >= 3, got {n}")
        m = (n - 1) // 2  # 0-based median position
        return float(max(v[m] - v[m - 1], v[m + 1] - v[m]))
    if q.kind == MAXIMUM:
        if n < 2:
            raise PreconditionError(f"maximum local sensitivity needs n >= 2, got {n}")
        # moving any record to the top of the domain raises the max to max(Dom)
        return float(max(d.bounds.upper - v[-1], v[-1] - v[-2]))
    if q.kind == SECOND_MAXIMUM:
        if n < 3:
            raise PreconditionError(f"second_maximum local sensitivity needs n >= 3, got {n}")
        # depends only on the gaps between the top three values, never on the domain
        return float(max(v[-1] - v[-2], v[-2] - v[-3]))
    return float(min(2, q.n_bins))


# ---------------------------------------------------------------------------
# smooth sensitivity
# ---------------------------------------------------------------------------


def smooth_sensitivity(d: Dataset, q: QuerySpec, beta: float) -> float:
    """max over all datasets y of LS(y) * exp(-beta * d(D, y)), in closed form.

    The max over y at distance k reduces to order-statistic expressions; the
    overall max over k = 0..n stops early once exp(-beta k) times the domain
    span cannot beat the best term found so far.

    For the median, a_k is the largest gap x~_{M+t} - x~_{M+t-k-1}, t = 0..k+1,
    read from a window of clamped order statistics around the median that
    doubles when k outgrows it. A k is skipped when exp(-beta k) times the
    outer gap x~_{M+k+1} - x~_{M-k-1} cannot beat the best term: every gap of
    a_k lies inside that one, and float subtraction and multiplication round
    monotonically, so the skip leaves the result bit-identical. All-tied data
    then costs O(n) scalar steps; adversarial spacing can still cost O(K^2)
    up to the stopping index K.
    """
    if not beta > 0:
        raise PreconditionError(f"beta must be positive, got {beta}")
    if q.kind in (RANGE_COUNT, HISTOGRAM):
        return float(min(2, q.n_bins))  # constant local sensitivity smooths to itself
    if not d.bounds.is_bounded:
        return math.inf
    v = d.values
    n = v.size
    if q.kind == MEDIAN:
        if n % 2 == 0:
            raise PreconditionError(f"median needs an odd number of records, got {n}")
        return _smooth_median(v, d.bounds, beta)
    if q.kind == MAXIMUM:
        return _smooth_maximum(v, d.bounds, beta)
    if n < 2:
        raise PreconditionError(f"second_maximum needs n >= 2, got {n}")
    return _smooth_second_maximum(v, d.bounds, beta)


def _smooth_median(v: np.ndarray, bounds: DomainBounds, beta: float) -> float:
    n = v.size
    M = (n + 1) // 2  # 1-based median index
    span = bounds.span
    best = 0.0
    h = 0  # half-width of the window w, which holds x~_{M-h} .. x~_{M+h}
    for k in range(n + 1):
        decay = math.exp(-beta * k)
        if decay * span <= best:
            break  # distance-k local sensitivity never exceeds the domain span
        # exact skip: no gap of a_k exceeds this outer gap (see the docstring)
        if decay * (_stat(v, bounds, M + k + 1) - _stat(v, bounds, M - k - 1)) <= best:
            continue
        if k + 1 > h:
            h = min(max(2 * h, 64, k + 1), n + 1)
            w = _window(v, bounds, M, h)
        # a_k = max over t = 0..k+1 of x~_{M+t} - x~_{M+t-k-1}
        a_k = float(np.max(w[h : h + k + 2] - w[h - k - 1 : h + 1]))
        best = max(best, decay * a_k)
    return best


def _smooth_maximum(v: np.ndarray, bounds: DomainBounds, beta: float) -> float:
    n = v.size
    upper = bounds.upper
    top = float(v[-1])
    best = 0.0
    for k in range(n + 1):
        decay = math.exp(-beta * k)
        if decay * bounds.span <= best:
            break
        a_k = max(upper - _stat(v, bounds, n - k), top - _stat(v, bounds, n - k - 1))
        best = max(best, decay * a_k)
    return best


def _smooth_second_maximum(v: np.ndarray, bounds: DomainBounds, beta: float) -> float:
    n = v.size
    upper = bounds.upper
    top = float(v[-1])
    runner_up = float(v[-2])
    best = 0.0
    for k in range(n + 1):
        decay = math.exp(-beta * k)
        if decay * bounds.span <= best:
            break
        # k modifications can hollow out the values under the kept top pair,
        # or (for k >= 1) plant a record at max(Dom) above a lowered runner-up
        a_k = max(top - _stat(v, bounds, n - k - 1), runner_up - _stat(v, bounds, n - k - 2))
        if k >= 1:
            a_k = max(a_k, upper - _stat(v, bounds, n - k))
        best = max(best, decay * a_k)
    return best


# ---------------------------------------------------------------------------
# group sensitivity
# ---------------------------------------------------------------------------


def group_local_sensitivity(d: Dataset, q: QuerySpec, g: int) -> GroupSensitivity:
    """Per-distance sensitivity ladder: entry i bounds |f(y) - f(D)| at distance <= i.

    Entry 1 equals the local sensitivity; entries are non-decreasing because
    the neighborhoods are nested. Entries become infinite when the formula
    needs a domain edge that is unbounded.
    """
    if g < 1:
        raise PreconditionError(f"group size must be >= 1, got {g}")
    v = d.values
    n = v.size
    bounds = d.bounds
    upper = bounds.upper

    if q.kind == MEDIAN:
        if n % 2 == 0 or n < 3:
            raise PreconditionError(f"median group sensitivity needs odd n >= 3, got {n}")
        M = (n + 1) // 2
        med = float(v[M - 1])
        entries = [
            max(_stat(v, bounds, M + i) - med, med - _stat(v, bounds, M - i))
            for i in range(1, g + 1)
        ]
    elif q.kind == MAXIMUM:
        if n < 2:
            raise PreconditionError(f"maximum group sensitivity needs n >= 2, got {n}")
        top = float(v[-1])
        entries = [max(upper - top, top - _stat(v, bounds, n - i)) for i in range(1, g + 1)]
    elif q.kind == SECOND_MAXIMUM:
        if n < 3:
            raise PreconditionError(f"second_maximum group sensitivity needs n >= 3, got {n}")
        top = float(v[-1])
        runner_up = float(v[-2])
        entries = []
        for i in range(1, g + 1):
            # one modification can promote the old maximum to second place;
            # two or more can plant a pair of records at max(Dom)
            up = top - runner_up if i == 1 else upper - runner_up
            down = runner_up - _stat(v, bounds, n - i - 1)
            entries.append(max(up, down))
    elif q.kind == RANGE_COUNT:
        c = int(evaluate(d, q))
        entries = [float(min(i, max(c, n - c))) for i in range(1, g + 1)]
    else:
        counts = evaluate(d, q)
        worst = max(int(counts.max()), n - int(counts.min()))
        entries = [min(2, q.n_bins) * min(i, worst) for i in range(1, g + 1)]

    return GroupSensitivity(tuple(entries))


def build_report(d: Dataset, q: QuerySpec, beta: float) -> SensitivityReport:
    """Convenience bundle of global/local/smooth at one dataset and beta."""
    return SensitivityReport(
        global_=global_sensitivity(q, d.bounds, d.n),
        local=local_sensitivity(d, q),
        smooth=smooth_sensitivity(d, q, beta),
        beta=float(beta),
    )
