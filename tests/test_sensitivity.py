"""Closed-form sensitivity calculators: worked values and structural properties."""

import math
import time

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
    assert lad.g == 3
    assert lad.per_distance == pytest.approx((0.14, 0.27, 0.42))
    assert lad.per_distance[0] == pytest.approx(local_sensitivity(d, QuerySpec.median()))
    with pytest.raises(PreconditionError):
        group_local_sensitivity(d, QuerySpec.median(), 0)


def test_group_ladder_counts_saturate():
    d = _d([0, 0, 1, 1, 1])
    lad = group_local_sensitivity(d, QuerySpec.range_count(0.5, 1.0), 5)
    # count is 3 of 5, so at most max(3, 2) = 3 records can change the answer
    assert lad.per_distance == (1.0, 2.0, 3.0, 3.0, 3.0)
    # each moved record changes the bin counts by up to 2 in L1
    hist = group_local_sensitivity(d, QuerySpec.histogram([0, 0.5, 1]), 4)
    assert hist.per_distance == (2.0, 4.0, 6.0, 6.0)


def test_group_ladder_monotone_and_anchored():
    rng = np.random.default_rng(5)
    qs = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum(),
          QuerySpec.range_count(0.2, 0.7))
    for _ in range(40):
        d = _d(rng.random(7))
        for q in qs:
            lad = group_local_sensitivity(d, q, 4)
            steps = lad.per_distance
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
    pad = _ref_padded(d)
    n = d.n
    upper, span = d.bounds.upper, d.bounds.span
    top, runner_up = float(pad[n]), float(pad[n - 1])
    M = (n + 1) // 2
    best = 0.0
    for k in range(n + 1):
        decay = math.exp(-beta * k)
        if decay * span <= best:
            break
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
    return best


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
                assert group_local_sensitivity(d, q, 6).per_distance == _ref_group(d, q, 6), (d.n, q)
        for bins in (10, 100):
            q = QuerySpec.histogram(np.linspace(d.bounds.lower, d.bounds.upper, bins + 1).tolist())
            for g in (1, 4):
                assert group_local_sensitivity(d, q, g).per_distance == _ref_group(d, q, g), (d.n, bins, g)


# stop indices on, just before and just after the scans' block edges: a scan
# whose first term is 0 ends its first block at k = 32 and, while its terms
# stay 0, grows 16-fold, to k = 512; other blocks end where the best so far
# says the stop must come, which the beta sweep below moves across every k
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
    # S(D) of the maximum here is exactly the decay at k = 36, where np.exp
    # and math.exp round differently; a result built from np.exp decays fails
    beta = 0.1 / 3
    assert np.exp(-beta * np.arange(37))[-1] != math.exp(-beta * 36), "np.exp agrees here"
    d = Dataset(np.array([0.0] * 5 + [1.0] * 37), DomainBounds(0, 1))
    assert smooth_sensitivity(d, QuerySpec.maximum(), beta) == math.exp(-beta * 36)


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

    for q in (QuerySpec.median(), QuerySpec.maximum()):
        ratio = best_of_three(q, 2.5e-5) / best_of_three(q, 1e-4)
        assert ratio < 8.0, f"{q.kind}: beta / 4 took {ratio:.1f}x the time"
