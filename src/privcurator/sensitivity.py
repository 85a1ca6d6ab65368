"""Global, local, smooth, and group sensitivity in closed form.

All formulas are order-statistic arithmetic on the sorted values plus the
domain edges. Order statistics referenced outside 1..n are clamped to the
domain: x~_i = min(Dom) for i < 1 and x~_i = max(Dom) for i > n. The brute
force oracle validates this convention; it is not assumed. The clamp is a
read of the sorted values or of a bound, never a padded copy of the data, so
a ladder or a smooth-sensitivity scan costs what it reads, not O(n).

The median, maximum and second maximum are the rank-r statistic x~_r for
r = (n + 1) / 2, n and n - 1, and share one formula for each sensitivity
(Nissim, Raskhodnikova and Smith, STOC 2007, section 3.1): rung i of the
group ladder is max(x~_{r+i} - x~_r, x~_r - x~_{r-i}), and smooth
sensitivity is S(D) = max_k exp(-beta k) * a_k with
a_k = max over t = 0..k+1 of x~_{r+t} - x~_{r+t-k-1}. Up to the stopping
index K, S(D) costs O(K) math.exp calls for the decays plus numpy work:
O(K) for max and max2, whose a_k need at most n - r + 2 gaps each, and
O(K log K) for the median, as the pair search bounds the work of each of
the scan's O(log K) blocks, unless many pairs tie within rounding (see
_pairs_max). One scan computes S(D): smooth_sensitivity_block runs it over
a sorted block, a (T, n) array of the sorted values of T datasets of one
size with their bounds as two columns, and smooth_sensitivity is the
one-row block. The scan runs the k in blocks of numpy work shared by the
rows still running; every row leaves the loop at its own stop, with the
float a scalar loop over its k gives.

Counting queries have constant L1 sensitivity min(2, n_bins) under the
modify-one-record neighbor relation, where a range count has one bin. A
histogram is one vector release: moving one record can take 1 from one bin
and add 1 to another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, DomainBounds, encode_bound
from .errors import PreconditionError
from .queries import MAXIMUM, MEDIAN, QuerySpec, _rank, evaluate


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


# ---------------------------------------------------------------------------
# clamped order statistics
# ---------------------------------------------------------------------------


def _stat(v: np.ndarray, lower: float, upper: float, i: int) -> float:
    # the clamped 1-based order statistic x~_i
    if i < 1:
        return lower
    if i > v.size:
        return upper
    return float(v[i - 1])


def _order_stats(v: np.ndarray, lower, upper, first: int, count: int) -> np.ndarray:
    # x~_first .. x~_{first+count-1} of sorted values v, or of each row of a
    # sorted block, whose bounds lower and upper are then (T, 1) columns; a
    # view of v when no index is clamped, so callers must not write into it
    last = first + count - 1
    n = v.shape[-1]
    if first >= 1 and last <= n:
        return v[..., first - 1 : last]
    below = min(max(1 - first, 0), count)  # entries clamped to min(Dom)
    above = min(max(last - n, 0), count - below)  # entries clamped to max(Dom)
    w = np.empty(v.shape[:-1] + (count,))
    w[..., :below] = lower
    w[..., below : count - above] = v[..., first - 1 + below : last - above]
    w[..., count - above :] = upper
    return w


def _around(v: np.ndarray, lower, upper, r: int):
    # (x~_{r-1}, x~_r, x~_{r+1}), O(1) whatever n: three floats from one read
    # of sorted values v, or three columns of a sorted block, whose bounds
    # are then columns too. They give the value x~_r, rung 1 of the ladder,
    # and the smooth scan's tie test, first term and first block
    if v.ndim == 2:
        return v[:, r - 2] if r > 1 else lower, v[:, r - 1], v[:, r] if r < v.shape[1] else upper
    if 1 < r < v.size:
        below, x, above = v[r - 2 : r + 1].tolist()
        return below, x, above
    return _stat(v, lower, upper, r - 1), float(v[r - 1]), _stat(v, lower, upper, r + 1)


def _rung(x, up, down):
    # rung i of the ladder of x = x~_r, from up = x~_{r+i} and down = x~_{r-i}:
    # i modified records move x~_r at most to x~_{r+i} or to x~_{r-i}. Floats,
    # or columns of them, where a gap past the largest float is inf, as for
    # floats, once the caller silences numpy's overflow warning
    if type(x) is float:
        return max(up - x, x - down)
    return np.maximum(up - x, x - down)


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
    if q.integer_valued:
        return float(min(2, q.n_bins))
    return bounds.span


# ---------------------------------------------------------------------------
# smooth sensitivity
# ---------------------------------------------------------------------------


def smooth_sensitivity(d: Dataset, q: QuerySpec, beta: float) -> float:
    """max over all datasets y of LS(y) * exp(-beta * d(D, y)), in closed form.

    For the rank-r statistic the max over y at distance k is
    a_k = max over t = 0..k+1 of x~_{r+t} - x~_{r+t-k-1}, and the overall
    max over k = 0..n of exp(-beta k) * a_k stops early, at the first k where
    exp(-beta k) times the domain span cannot beat the best term before it.
    It is row 0 of smooth_sensitivity_block on the one-row block of d's
    values, with one-entry bound columns: the same scan, so the same float.
    """
    _check_beta(beta)
    if q.integer_valued:
        return float(min(2, q.n_bins))  # constant local sensitivity smooths to itself
    if not math.isfinite(d.bounds.span):  # unbounded, or a span past the largest float
        return math.inf
    lower, upper = np.array([d.bounds.lower]), np.array([d.bounds.upper])
    return float(smooth_sensitivity_block(d.values[None], lower, upper, q, beta)[0])


def smooth_sensitivity_block(block: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                             q: QuerySpec, beta: float) -> np.ndarray:
    """smooth_sensitivity of every row of a sorted block, as one column.

    Row i of the (T, n) block holds the sorted values of dataset i, whose
    bounds are lower[i] and upper[i]; entry i is the float smooth_sensitivity
    gives that dataset, inf when its span is not finite. This is the only
    S(D) scan. One loop runs the k in blocks [k0, k1) of numpy work over the
    rows still running:

    - Start. x~_{r-1}, x~_r and x~_{r+1} are three column reads, which give
      each row's first term a_0. A row whose x~_r sits inside a run of ties
      (a_0 = 0) starts at its first positive outer gap (_first_outer_gap)
      with that k's term; every a_k below its start is exactly 0, so a loop
      that starts lower moves none of its floats.
    - Size. A block ends near the k where decay_k * span falls to the
      smallest floor / span of its rows, the floor being the larger of a
      row's first term and its running best: the stop cannot come later,
      up to rounding. The first block ends at most 512 k on, a later one at
      most at 16 * k0, so a typical scan is one block and a long one O(log K)
      blocks. The guess only sizes the block.
    - Reduce. A block whose gap tensor holds at most _DENSE_GAPS entries
      computes every a_k. A longer one computes only the k that survive
      some row's exact skip test: no gap of a_k exceeds the outer gap
      x~_{r+k+1} - x~_{r-k-1}, and a_k is at least either one-sided gap
      x~_{r+k+1} - x~_r or x~_r - x~_{r-k-1}; so a k whose decay times the
      outer gap is at most the running best of decay times a one-sided gap
      cannot beat the best before it. A row whose survivors would cost more
      gaps than the pair search takes it instead (_pairs_max): Nissim,
      Raskhodnikova and Smith's divide and conquer over the monotone argmax.
      With i = r - s <= r <= j = r + t, the term of k = s + t - 1 is the
      largest of (x~_j - x~_i) * decay_k over its pairs, so the best term
      with k < k1 is the best over the pairs with s + t <= k1; with decays
      that never increase, the row stops by k1 exactly when decay_k1 * span
      is at most that best, and no term from its stop to k1 beats it. Once
      the decays increase (a beta so small that rounding shows), no row is
      handed over again. The a_k are maxima over the outer axis of gap
      tensors of at most _GATHER_LIMIT entries (see _lag_maxima).
    - Fold. _fold gives every row its running best and whether it stopped;
      the rows that stopped drop out.

    Every result is the same float as a scalar loop over k, one row at a
    time: maxima and float subtraction and multiplication round the same in
    any order, and every skipped term is shown, by monotone rounding, unable
    to beat the best before it. So no block edge, screen or grouping of rows
    moves a result. Every decay is math.exp(-beta * k), never np.exp, which
    can differ from it in the last bit: one math.exp call per k scanned,
    cached for first blocks (see _first_decays).
    """
    _check_beta(beta)
    if q.integer_valued:
        return np.full(len(block), float(min(2, q.n_bins)))
    n = block.shape[1]
    r = _rank(q, n)
    below, x, above = _around(block, lower, upper, r)
    with np.errstate(over="ignore", invalid="ignore"):
        firsts = _rung(x, above, below)  # a_0, the term at k = 0; 0 inside a run of ties
        spans = upper - lower  # a span past the largest float is inf, as is its S(D)
        floor = float((firsts / spans).min(initial=1.0))  # NaN for inf / inf; a_0 <= span
    out, live, k0 = np.empty(len(block)), np.arange(len(block)), 0
    if not floor > 0.0:  # some row is unbounded, or its x~_r inside a run of ties
        finite = spans < math.inf
        out = np.where(finite, 0.0, math.inf)
        starts = np.zeros(len(block), np.int64)
        for i in ((firsts == 0.0) & finite).nonzero()[0].tolist():
            # the term at the start is at least its decay times either one-sided gap
            v, lo, hi, xi = block[i], float(lower[i]), float(upper[i]), float(x[i])
            starts[i] = s = _first_outer_gap(v, lo, hi, r, xi)
            firsts[i] = math.exp(-beta * s) * max(_stat(v, lo, hi, r + s + 1) - xi,
                                                  xi - _stat(v, lo, hi, r - s - 1))
        live = (finite & (starts <= n)).nonzero()[0]  # a start past n: a one-point domain, S(D) = 0
        firsts, spans, k0 = firsts[live], spans[live], int(starts[live].min(initial=n + 1))
        floor = float((firsts / spans).min(initial=1.0))
    best = np.zeros(live.size)
    D, monotone = [1.0], True  # the pair search's decays from k = 0, and whether they never increase
    cap = n - r + 2  # the most gaps any a_k needs (see _lag_maxima)
    first, least, most = True, k0 + 1, k0 + _FIRST_BLOCK * _MAX_GROWTH
    while live.size:
        # floor: the smallest of the rows' floor / span
        guess = -math.log(floor) / beta + 2.0 if floor > 0.0 else math.inf
        k1 = min(max(int(guess), least) if guess < most else most, n + 1)
        d, descending = _first_decays(beta, k0, k1) if first else (_decays(beta, k0, k1), False)
        W = _order_stats(block, lower[:, None], upper[:, None], r - k1, 2 * k1 + 1)  # x~_{r-k1} .. x~_{r+k1}
        if live.size < len(block):
            W = W[live]
        handed = []  # rows whose survivors' lag maxima would cost more than the pair search
        if live.size * (k1 - k0) * min(k1 + 1, cap) <= _DENSE_GAPS:
            a = _lag_maxima(W, k1, np.arange(k0, k1), cap)
        else:
            # x~_r, x~_{r+k+1} and x~_{r-k-1} for the block's k
            xr, up, down = W[:, k1, None], W[:, k1 + k0 + 1 :], W[:, k1 - k0 - 1 :: -1]
            floors = np.empty((live.size, k1 - k0 + 1))
            floors[:, 0] = best
            np.multiply(d, np.maximum(up - xr, xr - down), out=floors[:, 1:])
            np.maximum.accumulate(floors, axis=1, out=floors)
            stays = d * (up - down) > floors[:, :-1]
            # a row's survivors need at most (k1 - k0) * min(k1 + 1, cap) gaps
            switch = _PAIRS_SWITCH * k1.bit_length() * (k1 + 2048)
            if monotone and (k1 - k0) * min(k1 + 1, cap) > switch:
                many = (stays.sum(axis=1) > 64).nonzero()[0].tolist()
                handed = [j for j in many if np.minimum(stays[j].nonzero()[0] + (k0 + 2), cap).sum() > switch]
            if handed:
                size = len(D)  # at most k0 + 1: D is extended to k1 + 1 at most once a block
                D = np.concatenate((D, _decays(beta, size, max(size, k0)), d[max(size - k0, 0) :],
                                    [math.exp(-beta * k1)]))
                monotone = not (D[size:] > D[size - 1 : -1]).any()
                handed = handed if monotone else []
                stays[handed] = False
            c = stays.any(axis=0).nonzero()[0]  # the union of the rows' survivors
            a = np.zeros((live.size, k1 - k0))
            if c.size:
                a[:, c] = _lag_maxima(W, k1, c + k0, cap)
        best, stopped = _fold(best, a, d, spans, descending)
        for j in handed:  # the fold's best for j is the best of some of its terms
            best[j] = _pairs_max(W[j], D, k1, float(best[j]), beta, float(spans[j]))
            stopped[j] = D[k1] * spans[j] <= best[j]
        if k1 > n or stopped.all():  # past the last k every row has its result
            out[live] = best
            break
        out[live[stopped]] = best[stopped]
        going = ~stopped
        live, best, firsts, spans = live[going], best[going], firsts[going], spans[going]
        floor = float((np.maximum(best, firsts) / spans).min())
        k0, first, least, most = k1, False, k1 + _FIRST_BLOCK, _MAX_GROWTH * k1
    return out


def _check_beta(beta: float) -> None:
    if not (beta > 0 and math.isfinite(beta)):
        raise PreconditionError(f"beta must be positive and finite, got {beta}")


# A scan's first block ends at most _FIRST_BLOCK * _MAX_GROWTH k past its
# start, and a later block [k0, k1) at least _FIRST_BLOCK k past k0 and at
# most at _MAX_GROWTH * k0.
_FIRST_BLOCK = 32
_MAX_GROWTH = 16

# A block whose gap tensor, over every k of every running row, would hold
# at most this many entries computes every a_k; a larger one only those of
# the k that survive the skip test, whose dozen numpy calls cost more than
# the gaps they save below it.
_DENSE_GAPS = 1 << 14

# The lag maxima are computed in gap tensors of at most this many
# entries, so neither a long scan nor a large block holds a quadratic array.
_GATHER_LIMIT = 1 << 18

# The pair search up to k1 costs about log2(k1) levels of numpy calls over
# O(k1) pairs each; a row's block goes to it when the block's survivors
# need more gaps than a few times that.
_PAIRS_SWITCH = 4


def _decays(beta: float, k0: int, k1: int) -> np.ndarray:
    # exp(-beta * k) for k = k0..k1-1, the values S(D) is made of. They come
    # from math.exp, never np.exp, which can differ in the last bit (at about
    # 0.5% of k for beta = 0.1/3 with numpy 2.4.6 on x86-64). The products
    # -beta * k round the same in numpy as in Python floats.
    return np.fromiter(map(math.exp, (-beta * np.arange(k0, k1)).tolist()), float, k1 - k0)


@functools.lru_cache(maxsize=256)
def _first_decays(beta: float, k0: int, k1: int) -> tuple[np.ndarray, bool]:
    # _decays(beta, k0, k1), read-only, and whether they never increase: a
    # first block's decays, which every scan of one beta and block reads.
    # k1 - k0 <= 512, so the cache holds at most 256 * 512 floats
    d = _decays(beta, k0, k1)
    d.flags.writeable = False
    return d, bool((d[1:] <= d[:-1]).all())


def _fold(best: np.ndarray, a: np.ndarray, decays: np.ndarray, span: np.ndarray, descending: bool):
    """Fold one block of terms decay_k * a_k into each row's running best.

    a holds one row of a_k per dataset, for the k of the block's decays;
    row i starts from best[i] and has span span[i]. A row's scan stops at the
    first k whose decay * span is at most the best of the terms before k.
    An a_k left at 0.0 must be one whose term cannot beat the best before
    its k, so the running best stays exact. Returns a column of each row's
    best up to its stop (or the block's end) and one of whether it stopped.

    With decays that never increase (descending), a row's stop test, once
    true, stays true, and no term past the stop beats the best before it
    (a_k <= span). So the best up to the stop is the best of all the
    block's terms, and the row stopped when the test holds at the block's
    last k: the same floats, from fewer numpy calls.
    """
    if descending:
        terms = decays * a
        before = np.maximum(best, np.maximum.reduce(terms[:, :-1], axis=1, initial=0.0))
        return np.maximum(before, terms[:, -1]), decays[-1] * span <= before
    full = np.empty((len(a), decays.size + 1))  # the best, then the terms
    full[:, 0] = best
    np.multiply(decays, a, out=full[:, 1:])
    np.maximum.accumulate(full, axis=1, out=full)
    stop = decays * span[:, None] <= full[:, :-1]
    ends = stop.argmax(axis=1)
    rows = np.arange(len(a))
    stopped = stop[rows, ends]
    return np.where(stopped, full[rows, ends], full[:, -1]), stopped


def _first_outer_gap(v: np.ndarray, lower: float, upper: float, r: int, x: float) -> int:
    """The first k whose outer gap x~_{r+k+1} - x~_{r-k-1} is positive, for
    x = x~_r equal to x~_{r-1} and x~_{r+1}.

    Below it x~_r sits inside a run of ties: every a_k is 0, so every term is
    0 and the scan may start there. (Had a decay underflowed to 0 on the way,
    the scan stops where it starts, with the same result 0.0.)
    """
    # 1-based positions of the first and last record equal to x~_r
    first, last = int(v.searchsorted(x, "left")) + 1, int(v.searchsorted(x, "right"))
    # below x~_1 every statistic is min(Dom), above x~_n it is max(Dom); on a
    # one-point domain no gap is ever positive and no scan is needed
    k_left = r - first if x > lower else v.size + 1
    k_right = last - r if x < upper else v.size + 1
    return min(k_left, k_right)


def _lag_maxima(W: np.ndarray, h: int, ks: np.ndarray, cap: int) -> np.ndarray:
    # a_k = max over t = 0..k+1 of x~_{r+t} - x~_{r+t-k-1}, for each k in the
    # ascending ks, read from W: a stack of windows x~_{r-h} .. x~_{r+h}, one
    # row per dataset, which gives one row of a_k per dataset. Past
    # t = cap - 1 = n - r + 1 every gap is max(Dom) - x~_{r+t-k-1}, at most
    # the gap at t = cap - 1 because float subtraction is monotone, so the
    # gaps need at most cap values of t. They form one tensor with t on the
    # outer axis, reduced by max along it. Gap (t, k) is one of a_k exactly
    # when its lower statistic x~_{r+t-k-1} is at or below x~_r; the gaps
    # above are not masked but read +inf as their lower statistic, so they
    # are -inf and never the max (every window value is finite). A tensor of
    # more than _GATHER_LIMIT entries is computed in halves of the rows, and
    # one row's in halves of ks.
    k0, k_last = int(ks[0]), int(ks[-1])
    width = min(k_last + 2, cap)
    if len(W) * ks.size * width > _GATHER_LIMIT and len(W) * ks.size > 1:
        if len(W) > 1:
            half = len(W) // 2
            return np.concatenate((_lag_maxima(W[:half], h, ks, cap), _lag_maxima(W[half:], h, ks, cap)))
        half = ks.size // 2
        return np.concatenate((_lag_maxima(W, h, ks[:half], cap), _lag_maxima(W, h, ks[half:], cap)), axis=1)
    upper = W.T[h : h + width, ..., None]  # [t, ..., 0] is x~_{r+t}
    if k0 + 2 < width:  # some t <= width - 1 exceeds k + 1
        L = np.array(W)  # a C-contiguous copy, the buffer of the view below
        L[..., h + 1 :] = math.inf
    else:
        L = np.ascontiguousarray(W)
    # [t, ..., q] of this view of L (no copy) is x~_{r+t-k-1} for k = k_last - q
    item = L.itemsize
    lower = np.ndarray((width,) + L.shape[:-1] + (k_last - k0 + 1,), L.dtype, L,
                       (h - 1 - k_last) * item, (item,) + L.strides[:-1] + (item,))
    if ks.size < k_last - k0 + 1:
        lower = lower[..., k_last - ks[::-1]]
    # in C order, t outermost, so that the reduce runs over whole (..., K) slices
    return np.maximum.reduce(np.subtract(upper, lower, order="C"), axis=0)[..., ::-1]


def _pairs_max(w: np.ndarray, d: np.ndarray, C: int, best: float, beta: float, span: float) -> float:
    """max(best, max over 1 <= s + t <= C of (w[C+t] - w[C-s]) * d[s+t-1]), exactly.

    Row s holds the pairs with i = r - s; its columns are t = [s == 0] .. C - s.
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
    # every pair of lag k lies inside the outer gap x~_{r+k+1} - x~_{r-k-1}
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
# local and group sensitivity
# ---------------------------------------------------------------------------


def local_sensitivity(d: Dataset, q: QuerySpec) -> float:
    """Worst-case |f(y) - f(D)| over datasets y differing from D in one record.

    This is rung 1 of the group ladder (see group_local_sensitivity).
    """
    return _ladder(d, q, 1)[0]


def group_local_sensitivity(d: Dataset, q: QuerySpec, g: int) -> tuple[float, ...]:
    """Per-distance sensitivity ladder: entry i bounds |f(y) - f(D)| at distance <= i.

    Entry 1 equals the local sensitivity; entries are non-decreasing because
    the neighborhoods are nested. Entries become infinite when the formula
    needs a domain edge that is unbounded.
    """
    if g < 1:
        raise PreconditionError(f"group size must be >= 1, got {g}")
    return tuple(_ladder(d, q, g))


def _ladder(d: Dataset, q: QuerySpec, g: int) -> list[float]:
    # rungs i = 1..g: the worst |f(y) - f(D)| over y within distance i of D
    v = d.values
    n = v.size
    if not q.integer_valued:
        r = _ladder_rank(q, n)
        x = float(v[r - 1])
        lower, upper = d.bounds.lower, d.bounds.upper
        return [_rung(x, _stat(v, lower, upper, r + i), _stat(v, lower, upper, r - i))
                for i in range(1, g + 1)]
    # i modified records move each count by at most i and at most `worst`,
    # the most any count can move. worst >= ceil(n/2): one count c has
    # max(c, n - c) >= n/2, and with two or more bins the smallest count
    # is at most n/2. So the counts bound nothing until i passes ceil(n/2).
    if g <= (n + 1) // 2:
        worst = g
    else:
        counts = np.atleast_1d(evaluate(d, q))
        worst = max(int(counts.max()), n - int(counts.min()))
    rung = float(min(2, q.n_bins))
    return [rung * min(i, worst) for i in range(1, g + 1)]


def _ladder_rank(q: QuerySpec, n: int) -> int:
    """The rank r of an order statistic whose ladder is defined at size n.

    Raises when it is not: the median needs odd n >= 3, max2 n >= 3 and the
    maximum n >= 2.
    """
    least = 2 if q.kind == MAXIMUM else 3
    if n < least or q.kind == MEDIAN and n % 2 == 0:
        odd = "odd " if q.kind == MEDIAN else ""
        raise PreconditionError(f"{q.kind} sensitivity needs {odd}n >= {least}, got {n}")
    return _rank(q, n)


def build_report(d: Dataset, q: QuerySpec, beta: float) -> SensitivityReport:
    """Convenience bundle of global/local/smooth at one dataset and beta."""
    return SensitivityReport(
        global_=global_sensitivity(q, d.bounds, d.n),
        local=local_sensitivity(d, q),
        smooth=smooth_sensitivity(d, q, beta),
        beta=float(beta),
    )
