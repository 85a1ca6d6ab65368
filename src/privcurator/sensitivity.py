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
O(K log K) in the worst case for the median, whatever the spacing of the
data. smooth_sensitivity_block scans many datasets of one size at once, as
a sorted block: a (T, n) array of their sorted values, with their bounds as
two columns. Column operations triage the rows: each row's log guess of
its first block end, tested as one column, picks the rows whose first
blocks are short, and those run them in lockstep, sliced from the array. The scan's exact skip
test screens the block's k on all of these rows at once, so only the a_k up
to the last k that some row cannot skip are computed, as maxima over the
outer axis of one gap tensor; a row that goes on, and every other row,
scans alone, as smooth_sensitivity does.

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
    # or columns of them
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
    The k run in blocks of numpy work, and the result is the same float as a
    scalar loop over k: maxima and float subtraction and multiplication round
    the same in any order, and every skipped term is shown, by monotone
    rounding, unable to beat the best before it. So no block edge moves the
    result, and smooth_sensitivity_block, which scans the first blocks of
    many datasets together, gives each the float this function gives it
    alone.

    Every decay is math.exp(-beta * k), never np.exp, which can differ from
    it in the last bit: one math.exp call per k scanned, on top of the numpy
    block work.

    A block of at most _DENSE_K k computes every a_k from one gap matrix
    over the window x~_{r-K} .. x~_{r+K}. In a longer block a k is skipped
    when exp(-beta k) times the outer gap x~_{r+k+1} - x~_{r-k-1},
    which holds every gap of a_k, cannot beat the running best of
    exp(-beta k) times a one-sided gap x~_{r+k+1} - x~_r or x~_r - x~_{r-k-1},
    which a_k is at least. The remaining a_k cost O(min(k, n - r)) each:
    past t = n - r + 1 every gap is max(Dom) minus a larger statistic, so max
    and max2 cost O(K) for the stopping index K. When the median's outgrow
    O(K log K) the scan switches to Nissim, Raskhodnikova and Smith's divide
    and conquer over the monotone argmax (STOC 2007, section 3.1), made exact
    in floating point by a rounding tolerance, for O(K log K) overall.
    """
    _check_beta(beta)
    if q.integer_valued:
        return float(min(2, q.n_bins))  # constant local sensitivity smooths to itself
    if not math.isfinite(d.bounds.span):  # unbounded, or a span past the largest float
        return math.inf
    return _smooth_rank(d.values, d.bounds.lower, d.bounds.upper, _rank(q, d.n), beta)


def smooth_sensitivity_block(block: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                             q: QuerySpec, beta: float) -> np.ndarray:
    """smooth_sensitivity of every row of a sorted block, as one column.

    Row i of the (T, n) block holds the sorted values of dataset i, whose
    bounds are lower[i] and upper[i]; entry i is the float smooth_sensitivity
    gives that dataset. The rows' first scan blocks run in lockstep, in three
    steps of column and block work:

    - Triage. x~_{r-1}, x~_r and x~_{r+1} are three column reads, which give
      each row's first term a_0. A row runs in lockstep when its span is
      finite, a_0 > 0 (x~_r is not inside a run of ties) and its first block
      ends by k = _DENSE_K: n < _DENSE_K, or its log guess of the block's
      end, ln(span / a_0) / beta + 2, is below _DENSE_K + 1. The lockstep
      block ends at the largest guess, or at k = n + 1. The guess only sizes
      the block.
    - Screen. When the block's gap tensor would hold more than _SCREEN_GAPS
      entries, _scan's exact skip test runs on every row and k at once: a k
      whose decay times the outer gap x~_{r+k+1} - x~_{r-k-1} is at most the
      running best of decay times a one-sided gap x~_{r+j+1} - x~_r or
      x~_r - x~_{r-j-1}, j < k, cannot beat the best before it. Only the a_k
      up to the last k that some row cannot skip are computed; the others
      are left at 0.
    - Reduce. Those a_k are maxima over the outer axis of one gap tensor per
      chunk of rows, of at most _GATHER_LIMIT entries (see _lag_maxima).
      With decays that never increase, a row's best is the best of all the
      block's terms and its stop is one test at the block's last k;
      otherwise one _fold gives every row its best and whether it stopped.

    The decays come from a small bounded cache of read-only arrays (see
    _lockstep_decays). A row still short of its stop goes on alone from the
    block's end, and every other row scans alone, as smooth_sensitivity does.
    """
    _check_beta(beta)
    if q.integer_valued:
        return np.full(len(block), float(min(2, q.n_bins)))
    n = block.shape[1]
    r = _rank(q, n)
    below, x, above = _around(block, lower, upper, r)
    with np.errstate(over="ignore"):  # a span past the largest float is inf, as is its S(D)
        firsts = _rung(x, above, below)  # a_0, the term at k = 0; 0 inside a run of ties
        spans = upper - lower
    if n < _DENSE_K:  # every first block ends by k = n + 1 <= _DENSE_K
        lock = (firsts > 0.0) & (spans < math.inf)
    else:
        # a_0 > span * exp(-beta * (_DENSE_K - 1)) puts the guess below
        # _DENSE_K + 1, and is false for an infinite span or a_0 = 0 (the
        # exponent is capped so that the factor stays positive)
        lock = firsts > spans * math.exp(-min(beta * (_DENSE_K - 1), 700.0))
    if lock.size and lock.all():
        return _lockstep(block, lower, upper, spans, firsts, r, beta)
    rows = lock.nonzero()[0]
    out = np.empty(len(block))
    for i in (~lock).nonzero()[0].tolist():
        # the lone scan; inf for an unbounded row (or one whose span overflows)
        finite = math.isfinite(spans[i])
        out[i] = _smooth_rank(block[i], float(lower[i]), float(upper[i]), r, beta) if finite else math.inf
    if rows.size:
        out[rows] = _lockstep(block[rows], lower[rows], upper[rows], spans[rows], firsts[rows], r, beta)
    return out


def _lockstep(block: np.ndarray, lower: np.ndarray, upper: np.ndarray, spans: np.ndarray,
              firsts: np.ndarray, r: int, beta: float) -> np.ndarray:
    # S(D) of the rows of a sorted block that run their first block in
    # lockstep: finite spans, first terms a_0 > 0, and first blocks that end
    # by k = _DENSE_K. The block ends at the largest guess, from the smallest
    # a_0 / span, which may underflow to 0
    n = block.shape[1]
    least = float((firsts / spans).min())
    guess = -math.log(least) / beta + 2.0 if least > 0.0 else math.inf
    k1 = max(int(guess), 1) if guess < n + 1 else n + 1
    d, descending = _lockstep_decays(beta, k1)
    W = _order_stats(block, lower[:, None], upper[:, None], r - k1, 2 * k1 + 1)  # x~_{r-k1} .. x~_{r+k1}
    cap = n - r + 2  # the most gaps any a_k needs (see _lag_maxima)
    K = k1  # the a_k computed, k < K
    if len(block) * k1 * min(k1 + 1, cap) > _SCREEN_GAPS:
        # _scan's skip test; k = 0 always stays, as d_0 * outer_0 >= a_0 > 0
        x, up, down = W[:, k1, None], W[:, k1 + 1 :], W[:, k1 - 1 :: -1]  # x~_r, x~_{r+k+1}, x~_{r-k-1}
        floor = np.maximum.accumulate(d * np.maximum(up - x, x - down), axis=1)
        stays = (d[1:] * (up[:, 1:] - down[:, 1:]) > floor[:, :-1]).any(axis=0).nonzero()[0]
        K = int(stays[-1]) + 2 if stays.size else 1
    ks = np.arange(K)
    step = max(_GATHER_LIMIT // (K * min(K + 1, cap)), 1)  # rows per gap tensor
    if step >= len(block):
        a = _lag_maxima(W, k1, ks, cap)
    else:
        a = np.concatenate([_lag_maxima(W[c : c + step], k1, ks, cap) for c in range(0, len(block), step)])
    if descending:
        # With decays that never increase, a row's stop test, decay_k * span
        # at most the best before k, once true stays true, and no term past
        # the stop beats the best before it (a_k <= span). So the best up to
        # the stop is the best of all the block's terms, and the row stopped
        # when the test holds at k1 - 1. _fold gives the same floats.
        terms = d[:K] * a
        before = np.maximum.reduce(terms[:, : k1 - 1], axis=1, initial=0.0)
        stopped = d[k1 - 1] * spans <= before
        best = np.maximum(before, terms[:, k1 - 1]) if K == k1 else before
    else:
        best, stopped = _fold(0.0, a, d, spans[:, None])
    if not stopped.all():
        for j in (~stopped).nonzero()[0].tolist():
            best[j] = _scan(block[j], float(lower[j]), float(upper[j]), r, beta, 0,
                            float(firsts[j]), float(best[j]), k1)
    return best


def _check_beta(beta: float) -> None:
    if not (beta > 0 and math.isfinite(beta)):
        raise PreconditionError(f"beta must be positive and finite, got {beta}")


# The k scan runs in blocks of numpy work, from k = start (0 unless x~_r
# sits inside a run of ties). A block [k0, k1) ends near the k where
# decay_k * span falls to the first term or the best so far, which the stop
# cannot pass, but the first one at most at start + 512 and a later one at
# 16 * k0. So a typical scan is one block, and a long one O(log K) blocks.
_FIRST_BLOCK = 32
_MAX_GROWTH = 16

# A block of at most _DENSE_K k whose k count times k1 is at most
# _DENSE_GAPS computes every a_k, as one gap tensor of that size per
# dataset; a larger one only those of the k that survive the skip test,
# which costs less once a block holds more than a few dozen k.
_DENSE_K = 64
_DENSE_GAPS = 1 << 14

# The lag maxima are computed in gap tensors of at most this many
# entries, so neither a long scan nor a large block holds a quadratic array.
_GATHER_LIMIT = 1 << 18

# A lockstep block screens its k with the skip test when its gap tensor
# would hold more than this many entries; below it the screen's dozen numpy
# calls cost more than the gaps they save.
_SCREEN_GAPS = 1 << 13

# The pair search costs about log2(C) levels of numpy calls over
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


def _decays(beta: float, k0: int, k1: int) -> np.ndarray:
    # exp(-beta * k) for k = k0..k1-1, the values S(D) is made of. They come
    # from math.exp, never np.exp, which can differ in the last bit (at about
    # 0.5% of k for beta = 0.1/3 with numpy 2.4.6 on x86-64). The products
    # -beta * k round the same in numpy as in Python floats.
    return np.fromiter(map(math.exp, (-beta * np.arange(k0, k1)).tolist()), float, k1 - k0)


@functools.lru_cache(maxsize=256)
def _lockstep_decays(beta: float, k1: int) -> tuple[np.ndarray, bool]:
    # _decays(beta, 0, k1), read-only, and whether they never increase: a
    # lockstep block's decays. k1 <= _DENSE_K, so the cache holds at most
    # 256 * 64 floats
    d = _decays(beta, 0, k1)
    d.flags.writeable = False
    return d, bool((d[1:] <= d[:-1]).all())


def _fold(best, a: np.ndarray, decays: np.ndarray, span):
    """Fold one block of terms decay_k * a_k into the running best.

    a holds the a_k of one dataset, or one row of them per dataset of a
    block; every row starts from best, and span is a float or a column of
    one span per row. a may be shorter than decays: the a_k past its end are
    0.0. A row's scan stops at the first k whose decay * span is at most the
    best of the terms before k. An a_k left at 0.0 must be one whose term
    cannot beat the best before its k, so the running best stays exact.
    Returns the best up to the stop (or the block's end) and whether the
    scan stopped: a float and a bool, or a column of each.
    """
    K = a.shape[-1]
    full = np.zeros(a.shape[:-1] + (decays.size + 1,))  # the best, then the terms
    if best:
        full[..., 0] = best
    np.multiply(decays[:K], a, out=full[..., 1 : K + 1])
    np.maximum.accumulate(full, axis=-1, out=full)
    stop = decays * span <= full[..., :-1]
    ends = stop.argmax(axis=-1)
    if a.ndim == 1:
        return (float(full[ends]), True) if stop[ends] else (float(full[-1]), False)
    rows = np.arange(len(a))
    stopped = stop[rows, ends]
    return np.where(stopped, full[rows, ends], full[:, -1]), stopped


def _smooth_rank(v: np.ndarray, lower: float, upper: float, r: int, beta: float) -> float:
    """S(D) of x~_r on sorted values v with finite bounds lower and upper."""
    below, x, above = _around(v, lower, upper, r)
    if below == x == above:
        # inside a run of ties every a_k below the first outer gap is 0;
        # the term there is at least its decay times either one-sided gap
        start = _first_outer_gap(v, lower, upper, r, x)
        first = math.exp(-beta * start) * max(_stat(v, lower, upper, r + start + 1) - x,
                                              x - _stat(v, lower, upper, r - start - 1))
        return _scan(v, lower, upper, r, beta, start, first, 0.0, start)
    return _scan(v, lower, upper, r, beta, 0, _rung(x, above, below), 0.0, 0)


def _scan(v: np.ndarray, lower: float, upper: float, r: int, beta: float, start: int,
          first: float, best: float, k0: int) -> float:
    # one row's scan from k0 on, given the exact running best of the terms
    # below k0, the scan's start and its first term
    n = v.size
    span = upper - lower
    cap = n - r + 2
    by_pairs = True
    while k0 <= n:
        k1 = _block_end(k0, start, max(best, first), span, beta, n + 1)
        d = _decays(beta, k0, k1)
        w = _order_stats(v, lower, upper, r - k1, 2 * k1 + 1)  # x~_{r-k1} .. x~_{r+k1}
        if k1 - k0 <= _DENSE_K and (k1 - k0) * (k1 + 1) <= _DENSE_GAPS:  # every a_k
            a = _lag_maxima(w, k1, np.arange(k0, k1), cap)
        else:
            # Exact skip: no gap of a_k exceeds the outer gap x~_{r+k+1} -
            # x~_{r-k-1}, and a_k is at least either one-sided gap x~_{r+k+1} -
            # x~_r or x~_r - x~_{r-k-1}; so a k whose decay * outer gap is at
            # most the running best of decay * one-sided gap cannot beat the
            # best before it.
            right = w[k1 + k0 + 1 :] - w[k1]
            left = w[k1] - w[k1 - k0 - 1 :: -1]
            outer = w[k1 + k0 + 1 :] - w[k1 - k0 - 1 :: -1]
            floor = np.maximum.accumulate(np.concatenate(([best], d * np.maximum(left, right))))
            c = (d * outer > floor[:-1]).nonzero()[0]
            gaps = int(np.minimum(c + (k0 + 2), cap).sum()) if c.size > 64 else 0
            if by_pairs and gaps > _PAIRS_SWITCH * k1.bit_length() * (k1 + 2048):
                # the survivors' lag maxima would cost more than the pair search
                s = _smooth_by_pairs(v, lower, upper, r, beta, best, k1)
                if s is not None:
                    return s
                by_pairs = False
            a = np.zeros(k1 - k0)
            if c.size:
                a[c] = _lag_maxima(w, k1, c + k0, cap)
        best, stopped = _fold(best, a, d, span)
        if stopped:
            break
        k0 = k1
    return best


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
    # ascending ks, read from W: one dataset's window x~_{r-h} .. x~_{r+h},
    # or a stack of them, one row per dataset of a block, which gives one row
    # of a_k per dataset. Past t = cap - 1 = n - r + 1 every gap is max(Dom) -
    # x~_{r+t-k-1}, at most the gap at t = cap - 1 because float subtraction
    # is monotone, so the gaps need at most cap values of t. They form one
    # tensor with t on the outer axis, reduced by max along it. Gap (t, k) is
    # one of a_k exactly when its lower statistic x~_{r+t-k-1} is at or below
    # x~_r; the gaps above are not masked but read +inf as their lower
    # statistic, so they are -inf and never the max (every window value is
    # finite). A block's caller keeps its gap tensor within _GATHER_LIMIT
    # entries; one dataset's larger tensor is computed in halves of ks.
    k0, k_last = int(ks[0]), int(ks[-1])
    width = min(k_last + 2, cap)
    if W.ndim == 1 and ks.size > 1 and ks.size * width > _GATHER_LIMIT:
        half = ks.size // 2
        return np.concatenate((_lag_maxima(W, h, ks[:half], cap), _lag_maxima(W, h, ks[half:], cap)))
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


def _smooth_by_pairs(v: np.ndarray, lower: float, upper: float, r: int, beta: float, best: float,
                     C: int):
    """S(D) by Nissim, Raskhodnikova and Smith's divide and conquer.

    best is the scan's exact running best when it handed over, at some k <= C,
    with no stop before. With i = r - s <= r <= j = r + t, the term of
    distance k = s + t - 1 is the largest of (x~_j - x~_i) * exp(-beta k) over
    its pairs, so the best of the terms k < C is the best over the pairs with
    1 <= s + t <= C. When the decays do not increase in k, the scan's stop
    index K is at most C exactly when decay_C * span <= that best, and then the
    terms in K..C-1 cannot beat it; otherwise C grows. Returns None when the
    math.exp decays are not monotone (a beta so small that rounding shows),
    and the caller's scan goes on.
    """
    n = v.size
    span = upper - lower
    d = np.zeros(0)
    while True:
        d = np.concatenate((d, _decays(beta, d.size, C + 1)))
        if np.any(d[1:] > d[:-1]):
            return None
        best = _pairs_max(_order_stats(v, lower, upper, r - C, 2 * C + 1), d[: C + 1], C, best, beta, span)
        if C == n + 1 or d[C] * span <= best:
            return best
        # decay_k * span falls to best near this k, so the stop comes no later
        guess = math.log(span / best) / beta + 2.0 if best > 0.0 else math.inf
        C = min(max(int(min(guess, _MAX_GROWTH * C)), C + C // 4 + 1), n + 1)


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
