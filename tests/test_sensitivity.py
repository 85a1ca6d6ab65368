"""Closed-form sensitivity calculators: worked values and structural properties."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from privcurator import (
    Dataset,
    DomainBounds,
    PreconditionError,
    QuerySpec,
    build_report,
    global_sensitivity,
    group_local_sensitivity,
    local_sensitivity,
    smooth_sensitivity,
)
from privcurator import sensitivity
from privcurator.dataset import SYNTH_DISTRIBUTIONS, synthesize_block
from privcurator.queries import evaluate

B01 = DomainBounds(0.0, 1.0)


def _d(values, bounds=B01):
    return Dataset(np.array(values, dtype=float), bounds)


def test_global_sensitivity_values():
    assert global_sensitivity(QuerySpec.median(), B01, 5) == 1.0
    assert global_sensitivity(QuerySpec.maximum(), DomainBounds(-3, 7), 5) == 10.0
    assert global_sensitivity(QuerySpec.median(), DomainBounds(), 5) == math.inf
    assert global_sensitivity(QuerySpec.range_count(0, 1), DomainBounds(), 5) == 1.0
    # one moved record leaves one bin and enters another: L1 change 2
    assert global_sensitivity(QuerySpec.histogram([0, 1, 2]), DomainBounds(), 5) == 2.0
    assert global_sensitivity(QuerySpec.histogram([0, 1, 2, 3]), DomainBounds(), 5) == 2.0
    assert global_sensitivity(QuerySpec.histogram([0, 1]), DomainBounds(), 5) == 1.0
    with pytest.raises(PreconditionError):
        global_sensitivity(QuerySpec.median(), B01, 0)


def test_local_sensitivity_median():
    # the median moves to a neighboring order statistic when one record crosses it
    assert local_sensitivity(_d([0, 0, 0, 0, 1]), QuerySpec.median()) == 0.0
    assert local_sensitivity(_d([0, 0, 0, 1, 1]), QuerySpec.median()) == 1.0
    assert local_sensitivity(_d([0.1, 0.4, 0.5, 0.8, 0.9]), QuerySpec.median()) == pytest.approx(0.3)
    with pytest.raises(PreconditionError):
        local_sensitivity(_d([0.1, 0.2, 0.3, 0.4]), QuerySpec.median())
    with pytest.raises(PreconditionError):
        local_sensitivity(_d([0.5]), QuerySpec.median())


def test_local_sensitivity_maximum():
    q = QuerySpec.maximum()
    assert local_sensitivity(_d([0.2, 0.6]), q) == pytest.approx(0.4)
    assert local_sensitivity(_d([0.2, 0.9]), q) == pytest.approx(0.7)
    # unbounded above: any record can be pushed arbitrarily high
    assert local_sensitivity(_d([0.2, 0.6], DomainBounds(0.0, math.inf)), q) == math.inf
    with pytest.raises(PreconditionError):
        local_sensitivity(_d([0.5]), q)


def test_local_sensitivity_second_maximum():
    q = QuerySpec.second_maximum()
    # depends only on the top three gaps, so an unbounded domain is fine
    d = _d([1.0, 4.0, 9.0], DomainBounds())
    assert local_sensitivity(d, q) == 5.0
    assert local_sensitivity(_d([0.1, 0.2, 0.9]), q) == pytest.approx(0.7)
    with pytest.raises(PreconditionError):
        local_sensitivity(_d([0.1, 0.9]), q)


def test_counting_sensitivities_are_one():
    # a range count and a one-bin histogram change by at most 1 per record
    d = _d([0.1, 0.4, 0.5, 0.8, 0.9], DomainBounds())
    for q in (QuerySpec.range_count(0, 0.5), QuerySpec.histogram([0, 1])):
        assert local_sensitivity(d, q) == 1.0
        assert smooth_sensitivity(d, q, 0.2) == 1.0


def test_histogram_l1_sensitivity_is_two():
    d = _d([0.1, 0.4, 0.5, 0.8, 0.9], DomainBounds())
    for edges in ([0, 0.5, 1], [0, 0.25, 0.5, 0.75, 1]):
        q = QuerySpec.histogram(edges)
        assert local_sensitivity(d, q) == 2.0
        assert smooth_sensitivity(d, q, 0.2) == 2.0


def test_smooth_sensitivity_basics():
    q = QuerySpec.median()
    d = _d([0, 0, 0, 0, 1])
    # LS is 0 here but a one-record change away it is 1
    assert smooth_sensitivity(d, q, 0.3) == pytest.approx(math.exp(-0.3))
    assert smooth_sensitivity(d, q, 5.0) == pytest.approx(math.exp(-5.0))
    with pytest.raises(PreconditionError):
        smooth_sensitivity(d, q, 0.0)
    # an infinite beta would turn the decay at k = 0 into -inf * 0 = NaN
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(PreconditionError, match="beta"):
            smooth_sensitivity(d, q, beta)
    assert smooth_sensitivity(_d([0, 0, 1], DomainBounds(0, math.inf)), q, 0.3) == math.inf


def test_smooth_dominates_local_and_decays_in_beta():
    rng = np.random.default_rng(12)
    qs = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum())
    for _ in range(40):
        d = _d(rng.random(9))
        for q in qs:
            ls = local_sensitivity(d, q)
            s_tight = smooth_sensitivity(d, q, 0.1)
            s_loose = smooth_sensitivity(d, q, 2.0)
            gs = global_sensitivity(q, d.bounds, d.n)
            assert s_tight >= s_loose >= ls - 1e-12
            assert s_tight <= gs + 1e-12


def test_group_ladder_worked_values():
    d = _d([0.12, 0.21, 0.33, 0.47, 0.55, 0.74, 0.89])
    lad = group_local_sensitivity(d, QuerySpec.median(), 3)
    assert lad == pytest.approx((0.14, 0.27, 0.42))
    assert lad[0] == pytest.approx(local_sensitivity(d, QuerySpec.median()))
    with pytest.raises(PreconditionError):
        group_local_sensitivity(d, QuerySpec.median(), 0)


def test_group_ladder_counts_saturate():
    d = _d([0, 0, 1, 1, 1])
    lad = group_local_sensitivity(d, QuerySpec.range_count(0.5, 1.0), 5)
    # count is 3 of 5, so at most max(3, 2) = 3 records can change the answer
    assert lad == (1.0, 2.0, 3.0, 3.0, 3.0)
    # each moved record changes the bin counts by up to 2 in L1
    hist = group_local_sensitivity(d, QuerySpec.histogram([0, 0.5, 1]), 4)
    assert hist == (2.0, 4.0, 6.0, 6.0)


def _old_count_ladder(d, q, g):
    # the count ladders as they were, evaluating the query for every g
    n = d.n
    if q.kind == "range_count":
        c = int(evaluate(d, q))
        return tuple(float(min(i, max(c, n - c))) for i in range(1, g + 1))
    counts = evaluate(d, q)
    worst = max(int(counts.max()), n - int(counts.min()))
    return tuple(float(min(2, q.n_bins) * min(i, worst)) for i in range(1, g + 1))


def test_count_ladders_evaluate_only_past_half_n(monkeypatch):
    calls = []

    def counting_evaluate(d, q):
        calls.append(q)
        return evaluate(d, q)

    monkeypatch.setattr(sensitivity, "evaluate", counting_evaluate)
    rng = np.random.default_rng(12)
    qs = (QuerySpec.range_count(0.2, 0.7), QuerySpec.range_count(0.0, 1.0),
          QuerySpec.histogram([0, 1]), QuerySpec.histogram([0, 0.5, 1]),
          QuerySpec.histogram(np.linspace(0, 1, 11)))
    for n in (1, 2, 3, 5, 1001):
        gs = range(1, n + 2) if n < 1001 else (1, 2, 499, 500, 501, 502, 503, 1001, 1002)
        for values in (rng.random(n), np.zeros(n), np.ones(n), np.round(rng.random(n))):
            d = _d(values)
            for q in qs:
                for g in gs:
                    calls.clear()
                    assert group_local_sensitivity(d, q, g) == \
                        _old_count_ladder(d, q, g), (n, q, g)
                    assert bool(calls) == (g > (n + 1) // 2)


def test_group_ladder_monotone_and_anchored():
    rng = np.random.default_rng(5)
    qs = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum(),
          QuerySpec.range_count(0.2, 0.7))
    for _ in range(40):
        d = _d(rng.random(7))
        for q in qs:
            steps = group_local_sensitivity(d, q, 4)
            assert steps[0] == pytest.approx(local_sensitivity(d, q))
            for i in range(1, 4):
                assert steps[i] >= steps[i - 1] - 1e-12


def test_report_shape():
    d = _d([0.1, 0.5, 0.9], DomainBounds(0, math.inf))
    rep = build_report(d, QuerySpec.second_maximum(), 0.4)
    out = rep.to_json_dict()
    assert out["global"] == "unbounded"
    assert out["local"] == pytest.approx(0.4)
    assert out["smooth"] == "unbounded"
    assert out["beta"] == 0.4


# ---------------------------------------------------------------------------
# plain reference: the padded-array loops, one full scan per k
# ---------------------------------------------------------------------------


def _ref_padded(d):
    return np.concatenate(([d.bounds.lower], d.values, [d.bounds.upper]))


def _ref_stat(pad, i):
    return float(pad[min(max(i, 0), pad.size - 1)])


def _ref_smooth(d, q, beta):
    return _ref_scan(d, q, beta)[0]


def _ref_scan(d, q, beta):
    # S(D) and the k at which the loop stopped, n + 1 when it ran out of k
    pad = _ref_padded(d)
    n = d.n
    upper, span = d.bounds.upper, d.bounds.span
    top, runner_up = float(pad[n]), float(pad[n - 1])
    M = (n + 1) // 2
    best = 0.0
    for k in range(n + 1):
        decay = math.exp(-beta * k)
        if decay * span <= best:
            return best, k
        if q.kind == "median":
            t = np.arange(k + 2)
            hi = np.clip(M + t, 0, n + 1)
            lo = np.clip(M + t - k - 1, 0, n + 1)
            a_k = float(np.max(pad[hi] - pad[lo]))
        elif q.kind == "maximum":
            a_k = max(upper - _ref_stat(pad, n - k), top - _ref_stat(pad, n - k - 1))
        else:
            a_k = max(top - _ref_stat(pad, n - k - 1), runner_up - _ref_stat(pad, n - k - 2))
            if k >= 1:
                a_k = max(a_k, upper - _ref_stat(pad, n - k))
        best = max(best, decay * a_k)
    return best, n + 1


def _inside_ties(d, q):
    # whether x~_r sits inside a run of ties: the scan starts past k = 0
    pad = _ref_padded(d)
    r = {"median": (d.n + 1) // 2, "maximum": d.n}.get(q.kind, d.n - 1)
    return _ref_stat(pad, r - 1) == _ref_stat(pad, r) == _ref_stat(pad, r + 1)


# every scan's first block ends at most this far past its start
FIRST_BLOCK_MOST = sensitivity._FIRST_BLOCK * sensitivity._MAX_GROWTH


def _ref_group(d, q, g):
    pad = _ref_padded(d)
    n = d.n
    if q.kind == "histogram":
        counts = np.histogram(d.values, np.asarray(q.edges))[0]
        worst = max(max(int(c), n - int(c)) for c in counts)
        return tuple(min(2, q.n_bins) * min(i, worst) for i in range(1, g + 1))
    upper = d.bounds.upper
    top, runner_up = float(pad[n]), float(pad[n - 1])
    if q.kind == "median":
        M = (n + 1) // 2
        med = float(pad[M])
        return tuple(max(_ref_stat(pad, M + i) - med, med - _ref_stat(pad, M - i))
                     for i in range(1, g + 1))
    if q.kind == "maximum":
        return tuple(max(upper - top, top - _ref_stat(pad, n - i)) for i in range(1, g + 1))
    return tuple(max(top - runner_up if i == 1 else upper - runner_up,
                     runner_up - _ref_stat(pad, n - i - 1)) for i in range(1, g + 1))


def _geometric(n, ratio, toward_top):
    # gaps growing by ratio per step away from the median (or toward the top),
    # scaled onto [-1, 3]
    steps = ratio ** np.arange(n)
    if toward_top:
        x = np.cumsum(steps)
    else:
        half = n // 2
        x = np.concatenate((-np.cumsum(steps[:half])[::-1], [0.0], np.cumsum(steps[: n - half - 1])))
    return Dataset(-1.0 + 4.0 * (x - x[0]) / (x[-1] - x[0] or 1.0), DomainBounds(-1.0, 3.0))


def _reference_datasets():
    rng = np.random.default_rng(77)
    bounds = DomainBounds(-1.0, 3.0)
    for n in (1, 3, 129, 131, 999, 2001):
        yield Dataset(rng.uniform(-1.0, 3.0, n), bounds)
        yield Dataset(rng.integers(0, 4, n).astype(float), bounds)  # tie-heavy
        yield Dataset(np.full(n, 1.5), bounds)  # all tied
        # piles at both domain edges around a few interior values
        piled = np.where(rng.random(n) < 0.5, -1.0, 3.0)
        piled[: n // 10] = rng.uniform(-1.0, 3.0, n // 10)
        yield Dataset(piled, bounds)
        yield Dataset(np.full(n, 3.0), bounds)  # all at max(Dom)
        yield Dataset(np.linspace(-1.0, 3.0, n), bounds)  # evenly spaced
        # adversarial spacing: no k before the peak term is skipped
        for ratio in (1.0005, 1.01):
            yield _geometric(n, ratio, toward_top=False)
            yield _geometric(n, ratio, toward_top=True)


def test_sensitivities_equal_the_plain_reference():
    # the oracle enumerates n <= 7 only, so the block, skip and pair-search
    # logic of the smooth sensitivities are pinned here, bit for bit; beta =
    # 1e-4 runs the scans to k = n or close
    order_qs = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum())
    for d in _reference_datasets():
        for q in order_qs:
            if q.kind == "second_maximum" and d.n < 3:
                continue
            for beta in (1e-4, 1e-3, 0.033, 0.5, 3.0):
                assert smooth_sensitivity(d, q, beta) == _ref_smooth(d, q, beta), (d.n, q, beta)
            if d.n >= 3:
                assert group_local_sensitivity(d, q, 6) == _ref_group(d, q, 6), (d.n, q)
                assert local_sensitivity(d, q) == _ref_group(d, q, 1)[0], (d.n, q)
        for bins in (10, 100):
            q = QuerySpec.histogram(np.linspace(d.bounds.lower, d.bounds.upper, bins + 1).tolist())
            for g in (1, 4):
                assert group_local_sensitivity(d, q, g) == _ref_group(d, q, g), (d.n, bins, g)


def _as_block(ds):
    # same-size datasets as a sorted block and its bound columns
    return (np.stack([d.values for d in ds]), np.array([d.bounds.lower for d in ds]),
            np.array([d.bounds.upper for d in ds]))


def _mixed_stack(n, rng):
    # datasets of one size whose scans take different courses: x~_r
    # between distinct values or inside a run of ties, all tied, piled at
    # both edges, and clustered so tightly that the first block is long and
    # the stop lies far beyond it; each shape under three different bounds
    out = []
    for lo, hi in ((-1.0, 3.0), (0.0, 1.0), (-50.0, 1e-3)):
        b = DomainBounds(lo, hi)
        mid = (lo + hi) / 2
        piled = np.where(rng.random(n) < 0.5, lo, hi)
        piled[: n // 10] = rng.uniform(lo, hi, n // 10)
        out += [Dataset(rng.uniform(lo, hi, n), b),
                Dataset(lo + (hi - lo) * rng.integers(0, 4, n) / 3, b),
                Dataset(np.full(n, mid), b),
                Dataset(piled, b),
                Dataset(np.clip(mid + (hi - lo) * 1e-9 * rng.standard_normal(n), lo, hi), b)]
    rng.shuffle(out)
    return out


def _record_hand_offs(monkeypatch):
    # every pair search the scan runs, as (block, C, window, best, result,
    # whether the row goes on): block counts the scan's blocks, one _fold each
    calls, blocks = [], [0]
    fold, pairs_max = sensitivity._fold, sensitivity._pairs_max

    def counting(*args):
        blocks[0] += 1
        return fold(*args)

    def recording(w, d, C, best, beta, span):
        s = pairs_max(w, d, C, best, beta, span)
        assert d.size == C + 1 and w.size == 2 * C + 1
        calls.append((blocks[0], C, np.array(w), best, s, d[C] * span > s))
        return s

    monkeypatch.setattr(sensitivity, "_fold", counting)
    monkeypatch.setattr(sensitivity, "_pairs_max", recording)
    return calls


def _handed_on(calls):
    # a row hands over in two consecutive blocks when a hand-off that went on
    # (no stop at its C) is followed, in the next block, by one with the same
    # window at its centre, starting from at least the first one's result
    return any(b == a + 1 and C0 < C and best >= s0 and np.array_equal(w[C - C0 : C + C0 + 1], w0)
               for a, C0, w0, _, s0, on in calls if on for b, C, w, best, _, _ in calls)


def test_stacked_smooth_sensitivities_equal_the_reference_row_by_row(monkeypatch):
    rng = np.random.default_rng(2024)
    betas = np.concatenate(([1e-4, 3.0], 10.0 ** rng.uniform(-4.0, math.log10(3.0), 4)))
    order_qs = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum())
    calls = _record_hand_offs(monkeypatch)
    tied = long = 0
    for n in (1, 3, 9, 99, 999):
        ds = _mixed_stack(n, rng)
        block = _as_block(ds)
        for q in order_qs:
            if q.kind == "second_maximum" and n < 2:
                continue
            for beta in betas:
                got = sensitivity.smooth_sensitivity_block(*block, q, beta)
                want = [_ref_scan(d, q, beta) for d in ds]
                assert got.tolist() == [s for s, _ in want], (n, q, beta)
                tied += sum(n > 1 and _inside_ties(d, q) for d in ds)
                long += sum(k > FIRST_BLOCK_MOST for _, k in want)
    # rows that start inside a run of ties, and rows whose stop lies past
    # any first block
    assert tied > 0 and long > 0
    # rows handed to the pair search: some go on scanning after it, and some
    # are handed over again in the next block
    assert any(on for *_, on in calls) and _handed_on(calls)
    # the small-beta shapes of the error grid: ten spread rows, mixed with
    # rows inside a run of ties and an unbounded row
    q = QuerySpec.median()
    for n in (99, 999):
        ds = [Dataset(rng.uniform(0.0, 1.0, n), B01) for _ in range(10)]
        ds += [Dataset(np.round(rng.random(n), 1), B01), Dataset(np.full(n, 0.3), B01),
               Dataset(rng.uniform(0.0, 1.0, n), DomainBounds(-math.inf, 1.0))]
        ds = [ds[i] for i in rng.permutation(len(ds))]
        assert sum(_inside_ties(d, q) for d in ds) >= 2
        for beta in (1 / 20, 1 / 40, 1 / 100):
            want = [_ref_smooth(d, q, beta) if d.bounds.is_bounded else math.inf for d in ds]
            assert sensitivity.smooth_sensitivity_block(*_as_block(ds), q, beta).tolist() == want, (n, beta)


def test_decays_that_increase_keep_rows_out_of_the_pair_search(monkeypatch):
    # the pair search's stop needs decays that never increase; with math.exp
    # patched so that they do, for the scan and the reference alike, no row
    # is handed over and every row still gets the reference's float
    rng = np.random.default_rng(2024)
    ds = _mixed_stack(999, rng)
    q, beta = QuerySpec.median(), 1e-3
    calls = _record_hand_offs(monkeypatch)
    assert sensitivity.smooth_sensitivity_block(*_as_block(ds), q, beta).tolist() == \
        [_ref_smooth(d, q, beta) for d in ds]
    assert calls  # unpatched, rows of this block are handed over
    calls.clear()
    exp = math.exp

    def bumped(x):  # half the decays, by the last bit of their argument, 1.5 times as large
        return exp(x) * 1.5 if np.float64(x).view(np.int64) & 1 else exp(x)

    sensitivity._first_decays.cache_clear()  # first-block decays of the real math.exp
    monkeypatch.setattr(math, "exp", bumped)
    try:
        assert any(sensitivity._decays(beta, 0, 1000)[1:] > sensitivity._decays(beta, 0, 1000)[:-1])
        assert sensitivity.smooth_sensitivity_block(*_as_block(ds), q, beta).tolist() == \
            [_ref_smooth(d, q, beta) for d in ds]
    finally:
        sensitivity._first_decays.cache_clear()  # no patched decay outlives the test
    assert not calls


def test_modal_median_scan_stays_small():
    # half the records at the median value, half uniform: a run of ties that
    # the skip test prunes block by block; a pair search grown through the
    # run instead gathers arrays quadratic in its length
    n = 50_001
    d = Dataset(np.concatenate((np.full(n - n // 2, 0.5), np.random.default_rng(0).random(n // 2))), B01)
    q, beta = QuerySpec.median(), 0.01
    tracemalloc.start()
    try:
        got = smooth_sensitivity(d, q, beta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _ref_smooth(d, q, beta) == 1.0527968474150155e-57
    assert peak < 16 << 20, f"tracemalloc peak {peak / 2**20:.1f} MiB"


def test_stacks_larger_than_one_gap_tensor_run_in_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    ds = [Dataset(rng.uniform(0.0, 1.0, 99), B01) for _ in range(400)]
    block = _as_block(ds)
    q, beta = QuerySpec.median(), 0.2
    alone = [_ref_smooth(d, q, beta) for d in ds]
    calls = []
    lag_maxima = sensitivity._lag_maxima

    def recording(W, h, ks, cap):
        # (rows, entries) of each gap tensor computed: a call that splits
        # its tensor records nothing itself
        at = len(calls)
        calls.append(None)
        out = lag_maxima(W, h, ks, cap)
        if len(calls) == at + 1:
            calls[at] = (W.shape[0], W.shape[0] * ks.size * min(int(ks[-1]) + 2, cap))
        return out

    monkeypatch.setattr(sensitivity, "_lag_maxima", recording)
    assert sensitivity.smooth_sensitivity_block(*block, q, beta).tolist() == alone
    # the screened a_k of all 400 rows fit in one gap tensor
    assert calls == [(400, calls[0][1])] and calls[0][1] <= sensitivity._GATHER_LIMIT
    # smaller limits cut the same block into more tensors of fewer rows
    for limit, chunks in ((calls[0][1] // 3, 3), (500, 50)):
        calls.clear()
        monkeypatch.setattr(sensitivity, "_GATHER_LIMIT", limit)
        assert sensitivity.smooth_sensitivity_block(*block, q, beta).tolist() == alone
        tensors = [c for c in calls if c]
        assert len(tensors) > chunks and max(t for _, t in tensors) <= limit
        assert sum(rows for rows, _ in tensors) == 400


def test_block_scan_equals_one_scan_per_row_on_the_default_plan(monkeypatch):
    # every shape of the error grid's default plan: its distributions and
    # sizes, beta = eps / gamma for its epsilons at gamma = 3, in blocks of 1,
    # 10 and 63 rows (one trial, one request's cell, one chunk)
    screened = []
    lag_maxima = sensitivity._lag_maxima

    def recording(W, h, ks, cap):
        if W.ndim == 2:
            screened.append(ks.size < h)  # the screen left fewer k than the block holds
        return lag_maxima(W, h, ks, cap)

    monkeypatch.setattr(sensitivity, "_lag_maxima", recording)
    q = QuerySpec.median()
    for dist in SYNTH_DISTRIBUTIONS:
        for n in (9, 99, 999):
            for count in (1, 10, 63):
                block, lower, upper = synthesize_block(dist, n, n + count, count)
                ds = [Dataset(row, DomainBounds(lo, hi)) for row, lo, hi in zip(block, lower, upper)]
                for eps in (0.5, 0.75, 1.0):
                    beta = eps / 3.0
                    got = sensitivity.smooth_sensitivity_block(block, lower, upper, q, beta)
                    assert got.tolist() == [smooth_sensitivity(d, q, beta) for d in ds], (dist, n, count, eps)
    assert any(screened) and not all(screened)


def _shaped_rows(n, rng):
    # rows of one size whose scans take different courses, with their
    # bounds: spread values; x~_r at min(Dom) next to a record at max(Dom),
    # so a_0 is the whole span and the first block is short at any beta; a
    # cluster 1e-90 apart, whose first block at beta = 3 ends in (64, 512];
    # x~_r inside a run of ties; the same spread values unbounded below; and
    # values rounded to one decimal
    r = (n + 1) // 2
    spread = rng.uniform(0.0, 1.0, n)
    edges = np.array([0.0] * r + [1.0] * (n - r))
    cluster = 1e-90 * np.arange(n)
    ties = np.sort(rng.uniform(0.0, 1.0, n))
    ties[n // 3 : n - n // 3] = 0.5
    rows = [(spread, 0.0, 1.0), (edges, 0.0, 1.0), (cluster, 0.0, 1.0), (ties, 0.0, 1.0),
            (spread, -math.inf, 1.0), (np.round(spread, 1), 0.0, 1.0)]
    return [Dataset(v, DomainBounds(lo, hi)) for v, lo, hi in rows]


def test_block_scan_equals_one_scan_per_row_on_every_row_shape():
    rng = np.random.default_rng(25)
    order_qs = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum())
    tied = long = 0
    for n in (9, 99, 999):
        ds = _shaped_rows(n, rng)
        # the cluster's first block ends in (64, 512] at beta = 3
        assert 64 < math.log(1.0 / 1e-90) / 3.0 + 2.0 <= 512
        for perm in (np.arange(len(ds)), rng.permutation(len(ds))):
            block = _as_block([ds[i] for i in perm])
            for q in order_qs:
                for beta in (1e-4, 3.0):
                    want = [smooth_sensitivity(ds[i], q, beta) for i in perm]
                    assert sensitivity.smooth_sensitivity_block(*block, q, beta).tolist() == want, (n, q, beta)
                    ref = [_ref_scan(ds[i], q, beta) if ds[i].bounds.is_bounded else (math.inf, 0) for i in perm]
                    assert want == [s for s, _ in ref]
                    tied += sum(_inside_ties(ds[i], q) for i in perm)
                    long += sum(k > FIRST_BLOCK_MOST for _, k in ref)
    # rows that start inside a run of ties, and rows that go on past any first block
    assert tied > 0 and long > 0


def test_block_scan_keeps_the_largest_term_the_screen_finds():
    # x~_r at min(Dom) with every record below it there too, and the records
    # above growing geometrically: then a_k is the one-sided gap x~_{r+k+1} -
    # x~_r, which is also the outer gap, so a k stays in the screen exactly
    # when its term beats every term before it, and the largest term is the
    # last k that stays. Ten such rows make the block's gap tensor large
    # enough to be screened
    rng = np.random.default_rng(31)
    q = QuerySpec.median()
    for n in (99, 999):
        r = (n + 1) // 2
        ds = []
        for growth in np.linspace(1.5, 2.0, 10):  # above exp(beta), so terms grow
            above = np.minimum(rng.uniform(5e-4, 2e-3) * growth ** np.arange(1, n - r + 1), 1.0)
            ds.append(Dataset(np.concatenate((np.zeros(r), above)), B01))
        for beta in (1 / 6, 0.25, 1 / 3):
            want = [smooth_sensitivity(d, q, beta) for d in ds]
            assert sensitivity.smooth_sensitivity_block(*_as_block(ds), q, beta).tolist() == want, (n, beta)
            assert want == [_ref_smooth(d, q, beta) for d in ds]
            assert all(w > d.values[r] for w, d in zip(want, ds))  # the best term is past k = 0


def test_first_block_decays_are_a_bounded_cache_of_read_only_math_exp_values():
    decays = sensitivity._first_decays
    assert 0 < decays.cache_info().maxsize <= 1024
    for beta in (1 / 6, 0.25, 1 / 3, 1e-4, 3.0, 0.1 / 3):
        for k0, k1 in ((0, 1), (0, 2), (0, 10), (0, 64), (0, 512), (40, 552)):
            d, descending = decays(beta, k0, k1)
            assert d.tolist() == [math.exp(-beta * k) for k in range(k0, k1)], (beta, k0, k1)
            assert descending == all(x >= y for x, y in zip(d.tolist(), d.tolist()[1:]))
            assert not d.flags.writeable
            with pytest.raises(ValueError):
                d[0] = 0.5
            assert decays(beta, k0, k1)[0] is d
    for i in range(2000):
        decays(1e-3 * (i + 1), 0, 3)
    assert decays.cache_info().currsize <= decays.cache_info().maxsize


def test_first_blocks_fold_like_later_ones_when_decays_may_increase(monkeypatch):
    # the fold's shortcut needs decays that never increase; flagged
    # otherwise, first blocks take the running best, as later blocks do,
    # and give the same floats
    decays = sensitivity._first_decays
    monkeypatch.setattr(sensitivity, "_first_decays", lambda beta, k0, k1: (decays(beta, k0, k1)[0], False))
    rng = np.random.default_rng(41)
    q = QuerySpec.median()
    for n in (9, 99, 999):
        ds = _mixed_stack(n, rng)
        for beta in (1e-4, 1 / 6, 1 / 3, 3.0):
            got = sensitivity.smooth_sensitivity_block(*_as_block(ds), q, beta)
            assert got.tolist() == [_ref_smooth(d, q, beta) for d in ds], (n, beta)


def test_smooth_sensitivities_keep_list_order_across_sizes_and_bounds():
    # the rows of a block keep their order, whatever their bounds, at every size
    rng = np.random.default_rng(6)
    for n in (5, 7, 9):
        ds = [Dataset(rng.uniform(0.0, 1.0, n), DomainBounds(-hi, hi)) for hi in (1.0, 2.0, 1.0, 5.0)]
        ds.insert(2, Dataset(rng.uniform(0.0, 1.0, n), DomainBounds(0.0, math.inf)))
        block = _as_block(ds)
        for q in (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.range_count(0.2, 0.5)):
            assert sensitivity.smooth_sensitivity_block(*block, q, 0.3).tolist() == \
                [smooth_sensitivity(d, q, 0.3) for d in ds]
        assert sensitivity.smooth_sensitivity_block(*block, QuerySpec.maximum(), 0.3)[2] == math.inf
        with pytest.raises(PreconditionError, match="beta"):
            sensitivity.smooth_sensitivity_block(*block, QuerySpec.median(), 0.0)


def test_a_span_past_the_largest_float_smooths_to_inf_without_a_warning():
    # upper - lower overflows to inf between finite bounds; both paths return
    # inf, as for an unbounded domain, and the suite's RuntimeWarning filter
    # fails any numpy overflow warning on the way
    values = np.arange(5.0)
    wide = DomainBounds(-1e308, 1e308)
    block = (np.vstack((values, values)), np.array([-1e308, 0.0]), np.array([1e308, 4.0]))
    for q in (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum()):
        assert smooth_sensitivity(_d(values, wide), q, 0.3) == math.inf
        assert sensitivity.smooth_sensitivity_block(*block, q, 0.3).tolist() == \
            [math.inf, smooth_sensitivity(_d(values, DomainBounds(0.0, 4.0)), q, 0.3)]

# stop indices on, just before and just after the scans' block edges: a
# first block ends at most 512 past its start, and a block ends where the
# floor says the stop must come, which the beta sweep below moves across
# every k
EDGE_STOPS = sorted(set(range(1, 70)) | {k + e for k in (512, 1024) for e in (-2, -1, 0, 1, 2)})


def test_sensitivities_equal_the_reference_at_block_edges():
    # max, max2: m records at max(Dom) above min(Dom); every term is 0 until
    # k reaches under them, so for any beta the scan stops at k = m (max) or
    # k = m - 1 (max2)
    for m in EDGE_STOPS:
        d = _d([0.0] * 5 + [1.0] * m)
        for q in (QuerySpec.maximum(), QuerySpec.second_maximum()):
            for beta in (1e-4, 0.05):
                assert smooth_sensitivity(d, q, beta) == _ref_smooth(d, q, beta), (m, q, beta)
    # median inside a run of b ties between single values at the domain edges:
    # the first positive term comes at the middle of the run, the full-span
    # gap at k = b, and at beta = ln 2 / (b + 1) the scan stops at k = b + 1
    for stop in EDGE_STOPS:
        b = stop - 1
        if b < 1:
            continue
        low, high = (1, 1) if b % 2 else (1, 2)
        d = _d([0.0] * low + [0.5] * b + [1.0] * high)
        for beta in (math.log(2.0) / (b + 1), 0.5 / (b + 1), 1e-4):
            assert smooth_sensitivity(d, QuerySpec.median(), beta) == \
                _ref_smooth(d, QuerySpec.median(), beta), (b, beta)
    # evenly spaced data under a fine beta grid: the stop index sweeps
    # through every block edge up to n
    d = Dataset(np.linspace(0.0, 1.0, 2001), B01)
    for beta in 0.5 * 1.07 ** -np.arange(90):
        for q in (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum()):
            assert smooth_sensitivity(d, q, beta) == _ref_smooth(d, q, beta), (q, beta)


def test_smooth_decays_come_from_math_exp():
    # S(D) of the maximum on m records at max(Dom) above five at min(Dom) is
    # exactly the decay at k = m - 1, inside the scan's 480-k block 32..511.
    # At k = 36 and k = 96 np.exp and math.exp round differently; a result
    # built from np.exp decays fails
    beta = 0.1 / 3
    for m in (37, 97):
        assert np.exp(-beta * np.arange(m))[-1] != math.exp(-beta * (m - 1)), "np.exp agrees here"
        d = Dataset(np.array([0.0] * 5 + [1.0] * m), DomainBounds(0, 1))
        assert smooth_sensitivity(d, QuerySpec.maximum(), beta) == math.exp(-beta * (m - 1)), m


def test_smooth_sensitivity_grows_near_linearly_in_the_stop_index():
    # On evenly spaced data no k before the peak term (k ~ 1/beta) is skipped,
    # and beta / 4 puts the stop index about 4x as far: O(K log K) work takes
    # about 4-5x the time, a median paying O(k) per k about 16x.
    d = Dataset(np.linspace(0.0, 1.0, 400_001), B01)

    def best_of_three(q, beta):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            smooth_sensitivity(d, q, beta)
            times.append(time.perf_counter() - start)
        return min(times)

    for q in (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum()):
        ratio = best_of_three(q, 2.5e-5) / best_of_three(q, 1e-4)
        assert ratio < 8.0, f"{q.kind}: beta / 4 took {ratio:.1f}x the time"
