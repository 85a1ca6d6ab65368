"""Global, local, smooth, and group sensitivity in closed form.

All formulas are order-statistic arithmetic on the sorted values plus the
domain edges. Order statistics referenced outside 1..n are clamped to the
domain: x~_i = min(Dom) for i < 1 and x~_i = max(Dom) for i > n. The brute
force oracle validates this convention; it is not assumed. The clamp is a
read of the sorted values or of a bound, never a padded copy of the data, so
a ladder or a smooth-sensitivity scan costs what it reads, not O(n). Smooth
sensitivity up to the stopping index K costs O(K) numpy work for max and
max2 and O(K log K) for the median, whatever the spacing of the data.

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


def _order_stats(v: np.ndarray, bounds: DomainBounds, first: int, count: int) -> np.ndarray:
    # x~_first .. x~_{first+count-1}; a view of v when no index is clamped, so
    # callers must not write into it
    last = first + count - 1
    if first >= 1 and last <= v.size:
        return v[first - 1 : last]
    below = min(max(1 - first, 0), count)  # entries clamped to min(Dom)
    above = min(max(last - v.size, 0), count - below)  # entries clamped to max(Dom)
    w = np.empty(count)
    w[:below] = bounds.lower
    w[below : count - above] = v[first - 1 + below : last - above]
    w[count - above :] = bounds.upper
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

    The max over y at distance k reduces to an order-statistic expression a_k;
    the overall max over k = 0..n of exp(-beta k) * a_k stops early, at the
    first k where exp(-beta k) times the domain span cannot beat the best term
    before it. The k run in blocks of numpy work, and the result is the same
    float as a scalar loop over k: maxima and float subtraction and
    multiplication round the same in any order, and every skipped term is
    shown, by monotone rounding, unable to beat the best before it.

    Every decay is math.exp(-beta * k). np.exp can differ from it in the last
    bit, so an np.exp value serves only as a bound with a margin of a few
    ulps, and math.exp settles every test a bound leaves open.

    max and max2 read two or three clamped order statistics per k: O(K) for
    the stopping index K. For the median, a_k is the largest gap
    x~_{M+t} - x~_{M+t-k-1}, t = 0..k+1. A k is skipped when exp(-beta k)
    times the outer gap x~_{M+k+1} - x~_{M-k-1}, which holds every gap of a_k,
    cannot beat the running best of exp(-beta k) times a one-sided gap
    x~_{M+k+1} - x~_M or x~_M - x~_{M-k-1}, which a_k is at least. The
    remaining a_k cost O(k) each; when they outgrow O(K log K) the median
    switches to Nissim, Raskhodnikova and Smith's divide and conquer over the
    monotone argmax (STOC 2007, section 3.1), made exact in floating point by
    a rounding tolerance, for O(K log K) overall.
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


# The k scans run in blocks of numpy work, from k = start (0 unless the
# median sits inside a run of ties). A block [k0, k1) ends near the k where
# decay_k * span falls to the first term or the best so far, which the stop
# cannot pass, but the first one at most at start + 512 and a later one at
# 16 * k0. So a typical scan is one block, and a long one O(log K) blocks.
_FIRST_BLOCK = 32
_MAX_GROWTH = 16

# Decays come from math.exp: np.exp can differ from it in the last bit (at
# about 0.5% of k for beta = 0.1/3 with numpy 2.4.6 on x86-64), and S(D) must
# not depend on which. A block of at most this many k takes every decay from
# math.exp; a longer one uses np.exp values as bounds and calls math.exp only
# for the k a bound leaves open.
_EXACT_DECAYS = 64

# A median block whose k count times k1 is at most this computes every a_k,
# as one gap matrix of that size; a larger one only those of the k that
# survive the skip test.
_DENSE_GAPS = 1 << 14

# np.exp and math.exp differ by a few ulps at most. Scaled by these factors
# (and shifted by a few subnormal ulps), an np.exp decay is a sure upper or
# lower bound of the math.exp one, so it decides a test only when the test
# comes out the same for every value between the bounds.
_EXP_HI = 1.0 + 2.0**-48
_EXP_LO = 1.0 - 2.0**-48
_EXP_TINY = 2.0**-1068

# The median's lag maxima are computed in gap matrices of at most this many
# entries, so a long scan never holds a quadratic array.
_GATHER_LIMIT = 1 << 18

# The median's pair search costs about log2(C) levels of numpy calls over
# O(C) pairs each; the scan hands over to it once the survivors of one block
# need more gaps than a few times that.
_PAIRS_SWITCH = 4


def _block_end(k0: int, start: int, floor: float, span: float, beta: float, stop: int) -> int:
    # floor is a lower bound of the best before every k > k0 (the first term
    # of the scan, or the best so far); decay_k * span <= floor from about
    # the k guessed here, so the stop comes no later (up to rounding: the
    # guess only sizes the block)
    if k0 == start:
        k1, least, most = start + _FIRST_BLOCK, start + 1, start + _FIRST_BLOCK * _MAX_GROWTH
    else:
        k1, least, most = _MAX_GROWTH * k0, k0 + _FIRST_BLOCK, _MAX_GROWTH * k0
    if floor > 0.0:
        guess = math.log(span / floor) / beta + 2.0
        k1 = max(int(guess), least) if guess < most else most
    return min(k1, stop)


def _decays(beta: float, ks) -> np.ndarray:
    # exp(-beta * k) for each k of an int array or a range, from math.exp:
    # the values S(D) is made of
    return np.array([math.exp(-beta * k) for k in (ks if isinstance(ks, range) else ks.tolist())])


def _decay_bounds(beta: float, k0: int, k1: int):
    """Upper and lower bounds of the math.exp decays of k = k0..k1-1.

    A short block gets the exact decays as both bounds (the same array).
    """
    if k1 - k0 <= _EXACT_DECAYS:
        d = _decays(beta, range(k0, k1))
        return d, d
    e = np.exp(-beta * np.arange(k0, k1))
    return e * _EXP_HI + _EXP_TINY, e * _EXP_LO - _EXP_TINY


def _fold(best, terms, beta, k0, hi, lo, span) -> tuple[float, bool]:
    """Fold one block of terms decay_k * a_k into the running best.

    The scan stops at the first k whose decay * span is at most the best of
    the terms before k. A term left at 0.0 must be one that cannot beat the
    best before its k, so the running best stays exact. Returns the best up
    to the stop (or the block's end) and whether the scan stopped.
    """
    before = np.maximum.accumulate(np.concatenate(([best], terms)))[:-1]
    sure = hi * span <= before
    end = int(sure.argmax())
    if not sure[end]:
        end = terms.size
    if lo is not hi:
        maybe = (lo[:end] * span <= before[:end]).nonzero()[0]
        if maybe.size:  # the bounds straddle the test; the exact decays decide
            hit = (_decays(beta, maybe + k0) * span <= before[maybe]).nonzero()[0]
            if hit.size:
                end = int(maybe[hit[0]])
    if end < terms.size:
        return float(before[end]), True
    return max(float(before[-1]), float(terms[-1])), False


def _smooth_maximum(v: np.ndarray, bounds: DomainBounds, beta: float) -> float:
    n = v.size
    upper, span = bounds.upper, bounds.span
    top = float(v[-1])
    first = max(upper - top, top - _stat(v, bounds, n - 1))  # the term at k = 0
    best, k0 = 0.0, 0
    while k0 <= n:
        k1 = _block_end(k0, 0, max(best, first), span, beta, n + 1)
        hi, lo = _decay_bounds(beta, k0, k1)
        r = _order_stats(v, bounds, n - k1, k1 - k0 + 1)[::-1]  # r[m] = x~_{n-k0-m}
        a = np.maximum(upper - r[:-1], top - r[1:])
        best, stopped = _fold_bounded(best, a, beta, k0, hi, lo, span)
        if stopped:
            break
        k0 = k1
    return best


def _smooth_second_maximum(v: np.ndarray, bounds: DomainBounds, beta: float) -> float:
    n = v.size
    upper, span = bounds.upper, bounds.span
    top = float(v[-1])
    runner_up = float(v[-2])
    first = max(top - runner_up, runner_up - _stat(v, bounds, n - 2))  # the term at k = 0
    best, k0 = 0.0, 0
    while k0 <= n:
        k1 = _block_end(k0, 0, max(best, first), span, beta, n + 1)
        hi, lo = _decay_bounds(beta, k0, k1)
        r = _order_stats(v, bounds, n - k1 - 1, k1 - k0 + 2)[::-1]  # r[m] = x~_{n-k0-m}
        # k modifications can hollow out the values under the kept top pair,
        # or (for k >= 1) plant a record at max(Dom) above a lowered runner-up
        a = np.maximum(top - r[1:-1], runner_up - r[2:])
        planted = upper - r[:-2]
        if k0 == 0:
            planted[0] = 0.0
        a = np.maximum(a, planted)
        best, stopped = _fold_bounded(best, a, beta, k0, hi, lo, span)
        if stopped:
            break
        k0 = k1
    return best


def _fold_bounded(best, a, beta, k0, hi, lo, span) -> tuple[float, bool]:
    """_fold for terms decay_k * a_k with every a_k known, but decays bounded.

    The terms lie between lo * a and hi * a, so running maxima of those bound
    the running best before each k. Where the bounds settle every stop test,
    math.exp is needed only for the few k whose upper bound passes the
    block's lower bound: one of them (or the lower bound itself) is the
    block's best. Where they leave a stop test open, the block takes every
    exact decay.
    """
    if lo is hi:
        return _fold(best, hi * a, beta, k0, hi, lo, span)
    floor = np.maximum.accumulate(np.concatenate(([best], lo * a)))
    upper = hi * a
    ceil = np.maximum.accumulate(np.concatenate(([best], upper)))
    sure = hi * span <= floor[:-1]
    end = int(sure.argmax())
    if not sure[end]:
        end = a.size
    if (lo[:end] * span <= ceil[:end]).any():
        d = _decays(beta, range(k0, k0 + a.size))
        return _fold(best, d * a, beta, k0, d, d, span)
    low = float(floor[end])
    c = (upper[:end] > low).nonzero()[0]
    if c.size:
        low = max(low, float((_decays(beta, c + k0) * a[c]).max()))
    return low, end < a.size


def _smooth_median(v: np.ndarray, bounds: DomainBounds, beta: float) -> float:
    n = v.size
    M = (n + 1) // 2  # 1-based median index
    span = bounds.span
    # inside a run of ties every a_k below the first outer gap is 0
    start = _first_outer_gap(v, bounds, M)
    med = _stat(v, bounds, M)
    # the term at k = start is at least its decay times either one-sided gap
    first = math.exp(-beta * start) * max(_stat(v, bounds, M + start + 1) - med,
                                          med - _stat(v, bounds, M - start - 1))
    best, k0 = 0.0, start
    by_pairs = True
    while k0 <= n:
        k1 = _block_end(k0, start, max(best, first), span, beta, n + 1)
        hi, lo = _decay_bounds(beta, k0, k1)
        w = _order_stats(v, bounds, M - k1, 2 * k1 + 1)  # x~_{M-k1} .. x~_{M+k1}
        if lo is hi and (k1 - k0) * (k1 + 1) <= _DENSE_GAPS:  # a short block: every a_k
            terms = hi * _lag_maxima(w, k1, np.arange(k0, k1))
        else:
            # Exact skip: no gap of a_k exceeds the outer gap x~_{M+k+1} -
            # x~_{M-k-1}, and a_k is at least either one-sided gap x~_{M+k+1} -
            # x~_M or x~_M - x~_{M-k-1}; so a k whose decay * outer gap is at
            # most the running best of decay * one-sided gap cannot beat the
            # best before it.
            right = w[k1 + k0 + 1 :] - w[k1]
            left = w[k1] - w[k1 - k0 - 1 :: -1]
            outer = w[k1 + k0 + 1 :] - w[k1 - k0 - 1 :: -1]
            floor = np.maximum.accumulate(np.concatenate(([best], lo * np.maximum(left, right))))
            c = (hi * outer > floor[:-1]).nonzero()[0]
            d = hi[c] if lo is hi else _decays(beta, c + k0)
            gaps = int(c.sum()) + (k0 + 2) * c.size if c.size > 64 else 0
            if by_pairs and gaps > _PAIRS_SWITCH * k1.bit_length() * (k1 + 2048):
                # the survivors' lag maxima would cost more than the pair search
                s = _median_by_pairs(v, bounds, beta, best, k1)
                if s is not None:
                    return s
                by_pairs = False
            terms = np.zeros(k1 - k0)
            if c.size:
                terms[c] = d * _lag_maxima(w, k1, c + k0)
        best, stopped = _fold(best, terms, beta, k0, hi, lo, span)
        if stopped:
            break
        k0 = k1
    return best


def _first_outer_gap(v: np.ndarray, bounds: DomainBounds, M: int) -> int:
    """The first k whose outer gap x~_{M+k+1} - x~_{M-k-1} is positive, or 0.

    Below it the median sits inside a run of ties: every a_k is 0, so every
    term is 0 and the scan may start there. (Had a decay underflowed to 0 on
    the way, the scan stops where it starts, with the same result 0.0.)
    """
    med = float(v[M - 1])
    if not _stat(v, bounds, M - 1) == med == _stat(v, bounds, M + 1):
        return 0  # a_0 > 0
    # 1-based positions of the first and last record equal to the median
    first, last = int(v.searchsorted(med, "left")) + 1, int(v.searchsorted(med, "right"))
    # below x~_1 every statistic is min(Dom), above x~_n it is max(Dom); on a
    # one-point domain no gap is ever positive and no scan is needed
    k_left = M - first if med > bounds.lower else v.size + 1
    k_right = last - M if med < bounds.upper else v.size + 1
    return min(k_left, k_right)


def _lag_maxima(w: np.ndarray, h: int, ks: np.ndarray) -> np.ndarray:
    # a_k = max over t = 0..k+1 of x~_{M+t} - x~_{M+t-k-1}, for each k in the
    # ascending ks, read from the contiguous window w = x~_{M-h} .. x~_{M+h}.
    # Row m of the gap matrix holds the gaps of ks[m], padded with zeros
    # (a_k >= 0).
    k0, k_last = int(ks[0]), int(ks[-1])
    width = k_last + 2
    if ks.size > 1 and ks.size * width > _GATHER_LIMIT:
        half = ks.size // 2
        return np.concatenate((_lag_maxima(w, h, ks[:half]), _lag_maxima(w, h, ks[half:])))
    # row q of this view of w (no copy) is x~_{M+t-k-1}, t = 0..width-1, for k = k_last - q
    lower = np.ndarray((k_last - k0 + 1, width), w.dtype, w, (h - 1 - k_last) * w.itemsize,
                       (w.itemsize, w.itemsize))
    lower = lower[::-1] if ks.size == k_last - k0 + 1 else lower[k_last - ks]
    gaps = w[h : h + width] - lower
    gaps[np.arange(width) > ks[:, None] + 1] = 0.0
    return gaps.max(axis=1)


def _median_by_pairs(v: np.ndarray, bounds: DomainBounds, beta: float, best: float, C: int):
    """S(D) for the median by Nissim, Raskhodnikova and Smith's divide and conquer.

    best is the scan's exact running best when it handed over, at some k <= C,
    with no stop before. With i = M - s <= M <= j = M + t, the term of
    distance k = s + t - 1 is the largest of (x~_j - x~_i) * exp(-beta k) over
    its pairs, so the best of the terms k < C is the best over the pairs with
    1 <= s + t <= C. When the decays do not increase in k, the scan's stop
    index K is at most C exactly when decay_C * span <= that best, and then the
    terms in K..C-1 cannot beat it; otherwise C grows. Returns None when the
    math.exp decays are not monotone (a beta so small that rounding shows),
    and the caller's scan goes on.
    """
    n = v.size
    M = (n + 1) // 2
    span = bounds.span
    d = np.zeros(0)
    while True:
        d = np.concatenate((d, _decays(beta, range(d.size, C + 1))))
        if np.any(d[1:] > d[:-1]):
            return None
        best = _pairs_max(_order_stats(v, bounds, M - C, 2 * C + 1), d[: C + 1], C, best, beta, span)
        if C == n + 1 or d[C] * span <= best:
            return best
        # decay_k * span falls to best near this k, so the stop comes no later
        guess = math.log(span / best) / beta + 2.0 if best > 0.0 else math.inf
        C = min(max(int(min(guess, _MAX_GROWTH * C)), C + C // 4 + 1), n + 1)


def _pairs_max(w: np.ndarray, d: np.ndarray, C: int, best: float, beta: float, span: float) -> float:
    """max(best, max over 1 <= s + t <= C of (w[C+t] - w[C-s]) * d[s+t-1]), exactly.

    Row s holds the pairs with i = M - s; its columns are t = [s == 0] .. C - s.
    In exact arithmetic, with exact decays, the pair values have increasing
    differences: for i < i' and t < t', V(i, t') - V(i, t) <= V(i', t') - V(i', t).
    Hence, for any tolerance delta, a column within delta of row i's maximum
    that lies right of row i''s last argmax is within delta of row i''s
    maximum too, and one within delta of row i''s maximum left of row i's
    first argmax is within delta of row i's. So each level scans one middle
    row per node and narrows the columns of the rows on either side to the
    span of the middle row's columns within delta of its maximum, and every
    row's scanned columns keep all of its own such columns. Computed values
    differ from exact ones by at most eta * U + tau, U bounding every value;
    with delta twice that, no unscanned column can hold a computed value
    above the result. Nodes whose largest gap at their smallest lag cannot
    beat the best so far hold nothing larger and are dropped. Cost
    O(C log C) unless many columns of a row lie within rounding of its
    maximum.
    """
    # math.exp within 2 ulps, plus the rounding of -beta * k, of the gap and
    # of the product; tau covers subnormal decays and products
    eta = 4.0 * (8.0 + beta * C) * 2.0**-53
    tau = 4.0 * (span + 1.0) * 2.0**-1072
    # every pair of lag k lies inside the outer gap x~_{M+k+1} - x~_{M-k-1}
    slack = eta * float((d[:C] * (w[C + 1 :] - w[C - 1 :: -1])).max()) + tau
    dmax = np.maximum.accumulate(d[::-1])[::-1]  # largest decay at lag >= k
    sa = np.zeros(1, np.int64)
    sb = np.full(1, C)
    tl = np.zeros(1, np.int64)
    th = np.full(1, C)
    while sa.size:
        bound = (w[C + np.minimum(th, C - sa)] - w[C - sb]) * dmax[np.maximum(sa + tl - 1, 0)]
        keep = bound > best
        sa, sb, tl, th = sa[keep], sb[keep], tl[keep], th[keep]
        if not sa.size:
            break
        # scan the middle row sm of each node over its columns lo..hi
        sm = (sa + sb) // 2
        lo = np.maximum(tl, sm == 0)
        lengths = np.minimum(th, C - sm) - lo + 1
        starts = np.cumsum(lengths) - lengths
        t = np.arange(int(starts[-1] + lengths[-1])) + np.repeat(lo - starts, lengths)
        vals = (w[C:][t] - np.repeat(w[C - sm], lengths)) * d[t + np.repeat(sm - 1, lengths)]
        R = np.maximum.reduceat(vals, starts)
        best = max(best, float(R.max()))
        near = vals >= np.repeat(R - slack, lengths)
        tmin = np.minimum.reduceat(np.where(near, t, C + 1), starts)
        tmax = np.maximum.reduceat(np.where(near, t, -1), starts)
        # rows s < sm (larger i) keep columns t >= tmin, rows s > sm keep t <= tmax
        left, right = sm > sa, sm < sb
        sa, sb, tl, th = (
            np.concatenate((sa[left], sm[right] + 1)),
            np.concatenate((sm[left] - 1, sb[right])),
            np.concatenate((np.maximum(tl, tmin)[left], tl[right])),
            np.concatenate((th[left], np.minimum(th, tmax)[right])),
        )
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
