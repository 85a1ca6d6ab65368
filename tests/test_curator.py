"""Mechanism configuration, calibration, budget accounting, and sessions."""

import dataclasses
import json
import math
import os
import re
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import privcurator
from privcurator import (
    BudgetExceededError,
    BudgetLedger,
    ConfigError,
    Dataset,
    DomainBounds,
    LedgerEntry,
    MechanismConfig,
    PreconditionError,
    QuerySpec,
    RandomSource,
    SensitivityError,
    SessionError,
    answer,
    calibrate,
    load_session,
    save_session,
)
from privcurator import curator, sensitivity
from privcurator.dataset import SYNTH_DISTRIBUTIONS, synthesize_block
from privcurator.errors import CuratorError
from privcurator.noise import AdmissibleNoiseParams, LaplaceParams, sample_admissible, sample_laplace

B01 = DomainBounds(0.0, 1.0)


def _d(values, bounds=B01):
    return Dataset(np.array(values, dtype=float), bounds)


def _free_ledger():
    return BudgetLedger(math.inf)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_accepts_each_regime():
    assert MechanismConfig("dp_global", 1.0).noise_family == "laplace"
    assert MechanismConfig("idp_local", 0.5, noise_family="discrete_laplace").noise_family == "discrete_laplace"
    smooth = MechanismConfig("dp_smooth", 1.0, gamma=3.0)
    assert smooth.gamma == 3.0 and smooth.noise_family is None
    assert MechanismConfig("gdp", 0.5, group_size=2).group_size == 2


def test_config_rejects_bad_combinations():
    with pytest.raises(ConfigError, match="unknown regime"):
        MechanismConfig("dp", 1.0)
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError):
            MechanismConfig("dp_global", eps)
    with pytest.raises(ConfigError, match="gamma > 1"):
        MechanismConfig("dp_smooth", 1.0)
    with pytest.raises(ConfigError, match="gamma > 1"):
        MechanismConfig("dp_smooth", 1.0, gamma=1.0)
    for gamma in (math.inf, math.nan):  # beta = eps / gamma would be 0 or NaN
        with pytest.raises(ConfigError, match="gamma > 1"):
            MechanismConfig("dp_smooth", 1.0, gamma=gamma)
    with pytest.raises(ConfigError, match="admissible"):
        MechanismConfig("dp_smooth", 1.0, gamma=2.0, noise_family="laplace")
    with pytest.raises(ConfigError, match="dp_smooth only"):
        MechanismConfig("dp_global", 1.0, gamma=2.0)
    with pytest.raises(ConfigError, match="noise family"):
        MechanismConfig("dp_global", 1.0, noise_family="gaussian")
    with pytest.raises(ConfigError, match="group_size"):
        MechanismConfig("gdp", 1.0)
    with pytest.raises(ConfigError, match="group_size"):
        MechanismConfig("gdp", 1.0, group_size=0)
    with pytest.raises(ConfigError, match="gdp only"):
        MechanismConfig("idp_local", 1.0, group_size=2)


def test_config_refuses_bools_and_fractional_group_sizes():
    # a bool is an int to Python, and 2.0 compares like 2, but neither is a
    # group size or an epsilon; answer would die in range() on a float
    for g in (2.5, 2.0, True, "2"):
        with pytest.raises(ConfigError, match="group_size"):
            MechanismConfig("gdp", 1.0, group_size=g)
    with pytest.raises(ConfigError, match="epsilon"):
        MechanismConfig("dp_global", True)
    with pytest.raises(ConfigError, match="gamma"):
        MechanismConfig("dp_smooth", 1.0, gamma=True)
    cfg = MechanismConfig("gdp", 1.0, group_size=np.int64(2))
    assert type(cfg.group_size) is int and cfg == MechanismConfig("gdp", 1.0, group_size=2)


def test_config_refuses_non_real_epsilons_and_gammas():
    # a str used to die in a raw "'>' not supported" TypeError
    for bad in ("0.5", None, b"1", 1j, [0.5]):
        with pytest.raises(ConfigError, match="epsilon must be a real number"):
            MechanismConfig("idp_local", bad)
    for bad in ("3", b"3", 3j):
        with pytest.raises(ConfigError, match="gamma must be a real number"):
            MechanismConfig("dp_smooth", 0.5, gamma=bad)
    # accepted values are stored unchanged, so an int epsilon prints as an int
    cfg = MechanismConfig("dp_smooth", 1, gamma=np.float32(2.5))
    assert cfg.epsilon == 1 and type(cfg.epsilon) is int and type(cfg.gamma) is np.float32
    assert json.dumps(MechanismConfig("idp_local", 1).to_json_dict()) == \
        '{"regime": "idp_local", "epsilon": 1, "noise": "laplace"}'


def test_config_json_shape():
    out = MechanismConfig("gdp", 0.5, group_size=3).to_json_dict()
    assert out == {"regime": "gdp", "epsilon": 0.5, "noise": "laplace", "group_size": 3}
    out = MechanismConfig("dp_smooth", 1.0, gamma=2.5).to_json_dict()
    assert out == {"regime": "dp_smooth", "epsilon": 1.0, "gamma": 2.5}


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def test_calibrate_global_uses_domain_span():
    d = _d([0.1, 0.4, 0.5, 0.8, 0.9])
    cal = calibrate(d, QuerySpec.median(), MechanismConfig("dp_global", 0.5))
    assert cal.family == "laplace"
    assert cal.sensitivity_used == 1.0
    assert cal.param == pytest.approx(2.0)
    assert cal.value == pytest.approx(0.5)


def test_calibrate_local_uses_order_statistic_gaps():
    d = _d([0.1, 0.4, 0.5, 0.8, 0.9])
    cal = calibrate(d, QuerySpec.median(), MechanismConfig("idp_local", 0.5))
    assert cal.sensitivity_used == pytest.approx(0.3)
    assert cal.param == pytest.approx(0.6)


def test_calibrate_discrete_alpha():
    d = _d([0.0, 0.0, 1.0, 1.0])
    cfg = MechanismConfig("idp_local", 0.5, noise_family="discrete_laplace")
    cal = calibrate(d, QuerySpec.range_count(0.5, 1.0), cfg)
    assert cal.family == "discrete_laplace"
    assert cal.sensitivity_used == 1.0
    assert cal.param == pytest.approx(math.exp(-0.5))
    assert cal.value == 2


def test_calibrate_group_schedule():
    # distance 1 cannot move this median, distance 2 moves it by 1,
    # so the binding constraint is 1/2 and the scale is (1/2)/eps
    d = _d([0.0, 1.0, 1.0, 1.0, 1.0])
    cal = calibrate(d, QuerySpec.median(), MechanismConfig("gdp", 0.5, group_size=2))
    assert cal.sensitivity_used == pytest.approx(0.5)
    assert cal.param == pytest.approx(1.0)


def test_counts_calibrate_to_one_constant_in_every_regime():
    # a count moves by at most min(2, n_bins) whatever the data, so every
    # regime calibrates it to that; gdp's max_i ladder_i / i is the same float
    queries = [QuerySpec.range_count(0.2, 0.6), QuerySpec.range_count(2.0, 3.0),
               QuerySpec.range_count(-1.0, 2.0), QuerySpec.histogram([0.3, 0.6]),
               QuerySpec.histogram([0.0, 0.5, 1.0]), QuerySpec.histogram(np.linspace(0.25, 0.75, 11))]
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5, 1001):
        d = Dataset(rng.uniform(-1.0, 2.0, n), DomainBounds(-1.0, 2.0))  # some records outside every bin
        half = (n + 1) // 2
        configs = [MechanismConfig("dp_smooth", e, gamma=g) for e, g in ((0.5, 3.0), (1.0, 2.0))]
        for family in ("laplace", "discrete_laplace"):
            configs += [MechanismConfig(r, 0.5, noise_family=family) for r in ("dp_global", "idp_local")]
            configs += [MechanismConfig("gdp", 0.5, noise_family=family, group_size=g)
                        for g in (1, half, half + 1, n + 5)]
        for q in queries:
            constant = float(min(2, q.n_bins))
            for cfg in configs:
                cal = calibrate(d, q, cfg)
                assert cal.sensitivity_used == constant, (n, q, cfg)
                assert cal.family == (cfg.noise_family or "admissible"), (n, q, cfg)
                if cfg.regime == "gdp":
                    ladder = sensitivity.group_local_sensitivity(d, q, cfg.group_size)
                    assert max(b / i for i, b in enumerate(ladder, start=1)) == constant, (n, q, cfg)


def test_gdp_calibration_reads_no_rung_past_n(monkeypatch):
    # past n every rung is flat, so a group of 10**9 calibrates as a group of
    # n does, without building the other rungs
    ladder = curator.group_local_sensitivity

    def bounded(d, q, g):
        if g > d.n:
            raise AssertionError(f"asked for {g} rungs of a dataset of {d.n}")
        return ladder(d, q, g)

    monkeypatch.setattr(curator, "group_local_sensitivity", bounded)
    d = _d([0.1, 0.3, 0.35, 0.8, 0.9])
    for q in (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum(),
              QuerySpec.range_count(0.2, 0.6), QuerySpec.histogram([0.0, 0.5, 1.0])):
        for family in ("laplace", "discrete_laplace") if q.integer_valued else ("laplace",):
            big = calibrate(_d(d.values), q, MechanismConfig("gdp", 0.5, noise_family=family, group_size=10**9))
            small = calibrate(d, q, MechanismConfig("gdp", 0.5, noise_family=family, group_size=d.n))
            assert (big.family, big.sensitivity_used, big.param) == \
                (small.family, small.sensitivity_used, small.param), q


def test_calibrate_smooth_scale():
    d = _d([0.0, 0.0, 0.0, 0.0, 1.0])
    cal = calibrate(d, QuerySpec.median(), MechanismConfig("dp_smooth", 1.0, gamma=2.0))
    assert cal.family == "admissible"
    # beta = eps/gamma = 0.5, S = exp(-0.5) here, scale = 4*gamma*S/eps
    assert cal.sensitivity_used == pytest.approx(math.exp(-0.5))
    assert cal.param == pytest.approx(8.0 * math.exp(-0.5))
    assert cal.gamma == 2.0


def test_calibrate_zero_sensitivity_is_exact():
    d = _d([0.0, 0.0, 0.0, 0.0, 1.0])
    cal = calibrate(d, QuerySpec.median(), MechanismConfig("idp_local", 1.0))
    assert cal.family == "exact"
    assert cal.param == 0.0


def test_calibrate_rejects_unbounded_and_mismatched_noise():
    d = Dataset(np.array([1.0, 2.0, 3.0]), DomainBounds())
    with pytest.raises(SensitivityError, match="finite"):
        calibrate(d, QuerySpec.median(), MechanismConfig("dp_global", 1.0))
    cfg = MechanismConfig("dp_global", 1.0, noise_family="discrete_laplace")
    with pytest.raises(ConfigError, match="integer-valued"):
        calibrate(_d([0.5]), QuerySpec.median(), cfg)


# ---------------------------------------------------------------------------
# calibration memo
# ---------------------------------------------------------------------------

MEMO_QUERIES = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum(),
                QuerySpec.range_count(0.2, 0.6), QuerySpec.histogram(np.linspace(0, 1, 11)))
MEMO_CONFIGS = (
    [MechanismConfig(r, e, noise_family=f) for r in ("dp_global", "idp_local")
     for f in ("laplace", "discrete_laplace") for e in (0.5, 1.0)]
    + [MechanismConfig("gdp", e, noise_family=f, group_size=g)
       for f in ("laplace", "discrete_laplace") for g in (2, 60) for e in (0.5, 1.0)]
    + [MechanismConfig("dp_smooth", e, gamma=g) for g in (2.0, 3.0) for e in (0.5, 1.0)]
)


def _memo_stream(datasets, seed, releases):
    # a seeded mix of every query kind under every config, as JSON text or the
    # error a release raised; datasets(i) gives the dataset for release i
    pick = np.random.default_rng(seed)
    rng = RandomSource(seed)
    ledger = _free_ledger()
    out = []
    for i in range(releases):
        q = MEMO_QUERIES[pick.integers(len(MEMO_QUERIES))]
        cfg = MEMO_CONFIGS[pick.integers(len(MEMO_CONFIGS))]
        try:
            out.append(json.dumps(answer(datasets(i), q, cfg, rng, ledger).to_json_dict()))
        except CuratorError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_memoized_calibration_releases_what_a_fresh_dataset_releases():
    values = np.round(np.random.default_rng(3).random(101), 1)  # ties at the median
    d = _d(values)
    reused = _memo_stream(lambda i: d, 11, 600)
    fresh = _memo_stream(lambda i: _d(values), 11, 600)
    assert reused == fresh
    assert 0 < len(d._memo) <= curator._MEMO_SIZE


def test_smooth_sensitivity_is_computed_once_per_beta(monkeypatch):
    calls = []
    smooth_rank = sensitivity._smooth_rank

    def counting(v, lower, upper, r, beta):
        calls.append(beta)
        return smooth_rank(v, lower, upper, r, beta)

    monkeypatch.setattr(sensitivity, "_smooth_rank", counting)
    d = _d([0.1, 0.2, 0.4, 0.5, 0.7, 0.8, 0.9])
    ledger = _free_ledger()
    # eps/gamma = 0.25 three times, then 0.5
    for eps, gamma in ((0.5, 2.0), (0.5, 2.0), (1.0, 4.0), (1.0, 2.0)):
        answer(d, QuerySpec.median(), MechanismConfig("dp_smooth", eps, gamma=gamma),
               RandomSource(1), ledger)
    assert calls == [0.25, 0.5]
    assert len(ledger.entries) == 4


def _block(rows, lower, upper):
    """A sorted block of same-size rows and its bound columns."""
    return np.sort(np.array(rows, dtype=float), axis=1), np.array(lower, float), np.array(upper, float)


def _row_calibration(cal, i):
    """Row i of a block calibration, as calibrate() gives it for that dataset."""
    sens = float(cal.sensitivity_used[i])
    if sens == 0.0:
        return curator.Calibration(float(cal.value[i]), "exact", 0.0, 0.0)
    return curator.Calibration(float(cal.value[i]), cal.family, sens, float(cal.param[i]), cal.gamma)


def _released_rows(cals, rng):
    """What release() publishes for a block whose rows calibrate to cals.

    Exact rows publish their value and draw nothing. Laplace rows are one
    lone release each, in row order, on one stream; admissible rows are the
    values plus one unit-scale draw of the noisy rows, scaled row by row.
    """
    noisy = [c for c in cals if c.family != "exact"]
    if noisy and noisy[0].family == "admissible":
        unit = sample_admissible(AdmissibleNoiseParams(noisy[0].gamma, 1.0), rng, len(noisy))
        draws = np.array([c.value for c in noisy]) + unit * np.array([c.param for c in noisy])
        draws = draws.tolist()
    else:
        draws = [curator.release(c, rng) for c in noisy]
    draws = iter(draws)
    return [c.value if c.family == "exact" else next(draws) for c in cals]


def _tie_rows(n, rng, count):
    # rows rounded to one decimal (ties at most medians), all-tied rows, and
    # rows with a run of ties over the median between spread values
    rows = [np.round(rng.random(n), 1) for _ in range(count)]
    rows[1::3] = [np.full(n, 0.3)] * len(rows[1::3])
    for row in rows[2::3]:
        row[: n // 2 + 1] = 0.5
    return rows


BLOCK_CONFIGS = ([MechanismConfig("idp_local", e) for e in (0.5, 1.0)]
                 + [MechanismConfig("dp_smooth", e, gamma=g) for e, g in ((0.5, 3.0), (1.0, 2.0))]
                 # beta = 1e-3 and 1e-4: rows leave the scan's first block
                 + [MechanismConfig("dp_smooth", 2e-3, gamma=2.0), MechanismConfig("dp_smooth", 3e-4, gamma=3.0)])


def test_calibrate_block_equals_one_calibrate_per_row(monkeypatch):
    scans = []
    scan = sensitivity._scan

    def recording(v, lower, upper, r, beta, start, first, best, k0):
        scans.append((start, k0))
        return scan(v, lower, upper, r, beta, start, first, best, k0)

    monkeypatch.setattr(sensitivity, "_scan", recording)
    exact, block_scans = 0, set()
    rng = np.random.default_rng(12)
    for n in (1, 3, 9, 99, 999):
        blocks = [synthesize_block(dist, n, rng, 7) for dist in SYNTH_DISTRIBUTIONS]
        blocks.append(_block(_tie_rows(n, rng, 7), [0.0] * 6 + [-1.0], [1.0] * 6 + [2.0]))
        blocks.append(synthesize_block("uniform01", n, rng, 1))
        for block, lower, upper in blocks:
            datasets = [Dataset(row, DomainBounds(lo, hi)) for row, lo, hi in zip(block, lower, upper)]
            for q in (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum()):
                for cfg in BLOCK_CONFIGS:
                    try:
                        loop = [calibrate(d, q, cfg) for d in datasets]
                    except CuratorError as exc:
                        with pytest.raises(type(exc), match=re.escape(str(exc))):
                            curator.calibrate_block(block, lower, upper, q, cfg)
                        continue
                    scans.clear()
                    cal = curator.calibrate_block(block, lower, upper, q, cfg)
                    block_scans.update(scans)
                    assert [_row_calibration(cal, i) for i in range(len(block))] == loop, (n, q, cfg)
                    assert all(type(c.value) is float for c in loop)
                    exact += sum(c.family == "exact" for c in loop)
                    assert curator.release(cal, RandomSource(n)) == \
                        _released_rows(loop, RandomSource(n)), (n, q, cfg)
    # exact rows were released, and block rows scanned on past the lockstep
    # block as well as alone from the start
    assert exact > 0 and (0, 0) in block_scans
    assert any(k0 > start == 0 for start, k0 in block_scans)
    assert any(k0 == start > 0 for start, k0 in block_scans)  # rows inside a run of ties


def test_calibrate_block_scans_the_block_once(monkeypatch):
    windows = []
    lag_maxima = sensitivity._lag_maxima

    def recording(W, h, ks, cap):
        windows.append(W.shape[:-1])
        return lag_maxima(W, h, ks, cap)

    monkeypatch.setattr(sensitivity, "_lag_maxima", recording)
    block, lower, upper = synthesize_block("uniform01", 99, 13, 5)
    cfg = MechanismConfig("dp_smooth", 1.0, gamma=2.0)
    curator.calibrate_block(block, lower, upper, QuerySpec.median(), cfg)
    assert windows == [(5,)]  # one lockstep window of all five rows
    windows.clear()
    curator.calibrate_block(block, lower, upper, QuerySpec.median(), MechanismConfig("idp_local", 1.0))
    assert windows == []  # idp_local reads three columns and scans nothing


def test_calibrate_block_raises_what_the_loop_raises_first():
    q = QuerySpec.median()
    smooth = MechanismConfig("dp_smooth", 1.0, gamma=2.0)
    rows = [[0.1, 0.5, 0.9], [1.0, 2.0, 3.0], [0.2, 0.4, 0.6], [1.0, 2.0, 3.0]]
    inf = math.inf
    cases = [
        (_block(rows, [0, -inf, 0, 0], [1, 3, 1, inf]), q, smooth),
        (_block(rows, [0, 0, 0, 0], [1, 3, 1, inf]), QuerySpec.maximum(), MechanismConfig("idp_local", 1.0)),
        (_block(rows, [0, 0, 0, -inf], [1, 3, 1, 3]), q, smooth),
        # beta = eps / gamma underflows to 0: the beta precondition comes first
        (_block(rows, [0, -inf, 0, 0], [1, 3, 1, 1]), q, MechanismConfig("dp_smooth", 5e-324, gamma=4.0)),
        (_block(rows, [0, 0, 0, 0], [1, 3, 1, 3]), q,
         MechanismConfig("idp_local", 1.0, noise_family="discrete_laplace")),
        # the first dataset refuses the noise family before a later one's infinite sensitivity
        (_block(rows, [0, 0, 0, 0], [1, 3, 1, inf]), QuerySpec.maximum(),
         MechanismConfig("idp_local", 1.0, noise_family="discrete_laplace")),
        (_block([r + [4.0] for r in rows], [0] * 4, [5] * 4), q, smooth),
        (_block([r + [4.0] for r in rows], [0] * 4, [5] * 4), q, MechanismConfig("idp_local", 1.0)),
        (_block([[0.5]] * 2, [0, 0], [1, 1]), q, MechanismConfig("idp_local", 1.0)),
        # a tiny epsilon: an infinite noise scale, after an exact row (x~_r in a run of ties)
        (_block([[0.5, 0.5, 0.5]] + rows[1:], [0, 0, 0, 0], [1, 3, 1, 3]), q, MechanismConfig("idp_local", 1e-320)),
        (_block(rows, [0, 0, 0, 0], [1, 3, 1, 3]), q, MechanismConfig("dp_smooth", 1e-320, gamma=3.0)),
    ]
    for (block, lower, upper), q, cfg in cases:
        with pytest.raises(CuratorError) as loop:
            [calibrate(Dataset(row, DomainBounds(lo, hi)), q, cfg) for row, lo, hi in zip(block, lower, upper)]
        with pytest.raises(CuratorError) as blocked:
            curator.calibrate_block(block, lower, upper, q, cfg)
        assert (type(blocked.value), str(blocked.value)) == (type(loop.value), str(loop.value))


def test_calibrate_block_refuses_a_block_of_no_datasets():
    block, lower, upper = np.empty((0, 9)), np.empty(0), np.empty(0)
    for cfg in (MechanismConfig("idp_local", 0.5), MechanismConfig("dp_smooth", 0.5, gamma=3.0)):
        with pytest.raises(PreconditionError, match="at least one dataset"):
            curator.calibrate_block(block, lower, upper, QuerySpec.median(), cfg)
    # the scan itself gives a block of no rows no column entries
    assert sensitivity.smooth_sensitivity_block(block, lower, upper, QuerySpec.median(), 0.5).shape == (0,)
    # a regime with no block row is refused by name
    block, lower, upper = synthesize_block("uniform01", 9, 5, 2)
    for cfg in (MechanismConfig("dp_global", 0.5), MechanismConfig("gdp", 0.5, group_size=2)):
        with pytest.raises(ConfigError, match=cfg.regime):
            curator.calibrate_block(block, lower, upper, QuerySpec.median(), cfg)


def test_memo_is_bounded_and_evicts_the_oldest():
    d = _d(np.linspace(0.0, 1.0, 11))
    q = QuerySpec.median()
    for k in range(10_000):
        calibrate(d, q, MechanismConfig("dp_smooth", 0.01 + k * 1e-4, gamma=2.0))
    assert len(d._memo) == curator._MEMO_SIZE
    betas = [key[2] for key in d._memo]
    assert betas == [(0.01 + k * 1e-4) / 2.0 for k in range(10_000 - curator._MEMO_SIZE, 10_000)]


def test_replaced_dataset_has_its_own_memo():
    d = _d([0.1, 0.2, 0.5, 0.6, 0.7])
    cfg = MechanismConfig("dp_smooth", 1.0, gamma=2.0)
    narrow = calibrate(d, QuerySpec.maximum(), cfg)
    wide_d = dataclasses.replace(d, bounds=DomainBounds(0.0, 10.0))
    wide = calibrate(wide_d, QuerySpec.maximum(), cfg)
    assert wide_d._memo is not d._memo
    assert wide.sensitivity_used == calibrate(
        _d(d.values, DomainBounds(0.0, 10.0)), QuerySpec.maximum(), cfg).sensitivity_used
    assert wide.sensitivity_used > narrow.sensitivity_used
    assert calibrate(d, QuerySpec.maximum(), cfg) == narrow


def test_memoized_histogram_counts_are_read_only():
    d = _d([0.1, 0.2, 0.5, 0.6, 0.7])
    q = QuerySpec.histogram([0, 0.5, 1])
    for cfg in (MechanismConfig("dp_global", 1.0), MechanismConfig("gdp", 1.0, group_size=2)):
        cal = calibrate(d, q, cfg)
        assert not cal.value.flags.writeable
        assert cal.value.tolist() == [2, 3]
        with pytest.raises(ValueError):
            cal.value[0] = 9
    ans = answer(d, q, MechanismConfig("dp_global", 1.0), RandomSource(2), _free_ledger())
    assert len(ans.value) == 2
    assert calibrate(d, q, MechanismConfig("dp_global", 1.0)).value.tolist() == [2, 3]


def test_threads_sharing_a_dataset_release_what_one_thread_does():
    values = np.random.default_rng(4).random(1001)
    expected = [_memo_stream(lambda i: _d(values), seed, 150) for seed in range(4)]
    shared = _d(values)
    results = [None] * 4

    def worker(seed):
        results[seed] = _memo_stream(lambda i: shared, seed, 150)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected


# ---------------------------------------------------------------------------
# answer
# ---------------------------------------------------------------------------


def test_answer_is_seed_deterministic():
    d = _d([0.1, 0.4, 0.5, 0.8, 0.9])
    cfg = MechanismConfig("dp_global", 1.0)
    a = answer(d, QuerySpec.median(), cfg, RandomSource(7), _free_ledger())
    b = answer(d, QuerySpec.median(), cfg, RandomSource(7), _free_ledger())
    c = answer(d, QuerySpec.median(), cfg, RandomSource(8), _free_ledger())
    assert a.value == b.value
    assert a.value != c.value
    assert a.noise_scale == 1.0
    assert isinstance(a.value, float)


def test_answer_exact_release_skips_noise():
    d = _d([0.0] * 9 + [1.0] * 90)  # median pinned at 1 for any one-record change
    out = answer(d, QuerySpec.median(), MechanismConfig("idp_local", 0.5),
                 RandomSource(0), _free_ledger())
    assert out.value == 1.0
    assert out.noise_scale == 0.0
    assert out.sensitivity_used == 0.0


def test_answer_discrete_count_is_integer():
    d = _d([0.0, 0.2, 0.6, 0.9])
    cfg = MechanismConfig("idp_local", 1.0, noise_family="discrete_laplace")
    out = answer(d, QuerySpec.range_count(0.5, 1.0), cfg, RandomSource(3), _free_ledger())
    assert isinstance(out.value, int)


def test_answer_histogram_is_one_charge():
    d = _d([0.1, 0.2, 0.6, 0.7, 0.9])
    q = QuerySpec.histogram([0.0, 0.5, 1.0])
    ledger = BudgetLedger(2.0)
    out = answer(d, q, MechanismConfig("dp_global", 0.75), RandomSource(1), ledger)
    assert isinstance(out.value, list) and len(out.value) == 2
    assert ledger.entries == (LedgerEntry(q.to_string(), 0.75),)
    assert ledger.spent() == 0.75
    # one vector release: every bin gets noise for L1 sensitivity 2
    assert out.sensitivity_used == 2.0
    assert out.noise_scale == pytest.approx(2.0 / 0.75)


def test_answer_histograms_with_different_edges_share_the_budget():
    # Ten histograms with different edges at eps 1 once all fit a budget of
    # 1.0, each priced as a disjoint split of the data. Under modify-one
    # neighbors that split gives no parallel composition, so each one counts.
    d = _d([0.1, 0.2, 0.6, 0.7, 0.9])
    ledger = BudgetLedger(1.0)
    cfg = MechanismConfig("dp_global", 1.0)
    answer(d, QuerySpec.histogram(np.linspace(0.0, 1.0, 2)), cfg, RandomSource(0), ledger)
    for bins in range(2, 11):
        with pytest.raises(BudgetExceededError):
            answer(d, QuerySpec.histogram(np.linspace(0.0, 1.0, bins + 1)), cfg,
                   RandomSource(0), ledger)
    assert len(ledger.entries) == 1
    assert ledger.spent() == 1.0


def test_answer_failure_leaves_ledger_untouched():
    ledger = BudgetLedger(1.0)
    unbounded = Dataset(np.array([1.0, 2.0, 3.0]), DomainBounds())
    with pytest.raises(SensitivityError):
        answer(unbounded, QuerySpec.median(), MechanismConfig("dp_global", 0.5),
               RandomSource(0), ledger)
    assert ledger.entries == ()

    d = _d([0.1, 0.5, 0.9])
    answer(d, QuerySpec.median(), MechanismConfig("dp_global", 0.8), RandomSource(0), ledger)
    with pytest.raises(BudgetExceededError):
        answer(d, QuerySpec.median(), MechanismConfig("dp_global", 0.3), RandomSource(0), ledger)
    assert len(ledger.entries) == 1
    assert ledger.spent() == pytest.approx(0.8)


def test_a_bad_noise_parameter_is_refused_before_the_charge():
    # at a tiny epsilon the Laplace scale is inf, and the discrete alpha
    # exp(-eps / sensitivity) rounds to 1.0: calibrate refuses both, so answer
    # neither charges the ledger nor draws
    d = _d([0.1, 0.4, 0.5, 0.8, 0.9])
    hist = QuerySpec.histogram([0.0, 0.5, 1.0])
    cases = [(hist, MechanismConfig("idp_local", 1e-320), "Laplace scale"),
             (hist, MechanismConfig("dp_global", 1e-320), "Laplace scale"),
             (QuerySpec.median(), MechanismConfig("gdp", 1e-320, group_size=2), "Laplace scale"),
             (QuerySpec.median(), MechanismConfig("dp_smooth", 1e-320, gamma=3.0), "scale"),
             (QuerySpec.range_count(0.5, 1.0),
              MechanismConfig("idp_local", 1e-17, noise_family="discrete_laplace"), "alpha"),
             (hist, MechanismConfig("dp_global", 1e-16, noise_family="discrete_laplace"), "alpha")]
    for q, cfg, refusal in cases:
        with pytest.raises(PreconditionError, match=refusal):
            calibrate(d, q, cfg)
        ledger, rng = BudgetLedger(1.0), RandomSource(3)
        with pytest.raises(PreconditionError, match=refusal):
            answer(d, q, cfg, rng, ledger)
        assert ledger.entries == () and ledger.spent() == 0.0, cfg
        assert rng.uniforms() == RandomSource(3).uniforms(), cfg


# dp_smooth noise at gamma = 1.01 overflows to -inf at these seeds on the
# five-value median example
OVERFLOW_SEEDS = (690, 979, 1616)


def test_answer_refuses_a_non_finite_release_and_keeps_the_charge():
    d = _d([0.1, 0.3, 0.5, 0.7, 0.9])
    cfg = MechanismConfig("dp_smooth", 0.5, gamma=1.01)
    ledger = BudgetLedger(10.0)
    for i, seed in enumerate(OVERFLOW_SEEDS, start=1):
        # the overflow is the refusal's cause, not a numerical accident to warn about
        with warnings.catch_warnings(), pytest.raises(ConfigError, match="non-finite"):
            warnings.simplefilter("error")
            answer(d, QuerySpec.median(), cfg, RandomSource(seed), ledger)
        assert len(ledger.entries) == i
        assert ledger.spent() == pytest.approx(0.5 * i)
    # a neighboring seed draws a finite value and releases it
    assert math.isfinite(answer(d, QuerySpec.median(), cfg, RandomSource(1), ledger).value)


def test_release_of_a_lone_calibration_is_what_answer_publishes():
    d = _d([0.1, 0.2, 0.6, 0.7, 0.9])
    cases = [(QuerySpec.median(), MechanismConfig("idp_local", 0.5)),
             (QuerySpec.median(), MechanismConfig("dp_smooth", 1.0, gamma=3.0)),
             (QuerySpec.histogram([0.0, 0.5, 1.0]), MechanismConfig("dp_global", 0.75)),
             (QuerySpec.range_count(0.5, 1.0),
              MechanismConfig("dp_global", 0.75, noise_family="discrete_laplace")),
             (QuerySpec.histogram([0.0, 0.5, 1.0]),
              MechanismConfig("dp_global", 0.75, noise_family="discrete_laplace"))]
    for q, cfg in cases:
        out = curator.release(calibrate(d, q, cfg), RandomSource(2))
        assert out == answer(d, q, cfg, RandomSource(2), _free_ledger()).value, (q, cfg)
    assert type(out) is list and len(out) == 2 and all(type(v) is int for v in out)
    # an exact calibration draws nothing
    exact = calibrate(_d([0.0] * 9 + [1.0] * 90), QuerySpec.median(), MechanismConfig("idp_local", 0.5))
    rng = RandomSource(2)
    assert exact.family == "exact" and curator.release(exact, rng) == 1.0
    assert rng.uniforms() == RandomSource(2).uniforms()


def _laplace_and_admissible_blocks():
    # a block of 8 median calibrations per noisy family, every row noisy
    block, lower, upper = synthesize_block("uniform01", 9, 5, 8)
    for cfg in (MechanismConfig("idp_local", 0.5), MechanismConfig("dp_smooth", 1.0, gamma=3.0)):
        cal = curator.calibrate_block(block, lower, upper, QuerySpec.median(), cfg)
        assert (cal.sensitivity_used != 0.0).all()
        yield cal


def test_a_float32_epsilon_draws_what_the_sampler_draws_at_its_scale():
    # a float32 epsilon or gamma gives a float32 scale; the unit draw times
    # that scale is still the sampler's own draw at it, computed in float64
    d = _d([0.1, 0.4, 0.5, 0.8, 0.9])
    q = QuerySpec.median()
    for cfg in (MechanismConfig("idp_local", np.float32(0.7)),
                MechanismConfig("dp_smooth", 0.7, gamma=3.0),  # caches gamma 3.0 first
                MechanismConfig("dp_smooth", np.float32(0.7), gamma=np.float32(3.0))):
        cal = calibrate(d, q, cfg)
        if cal.family == "laplace":
            noise = sample_laplace(LaplaceParams(0.0, cal.param), RandomSource(4))
        else:
            noise = sample_admissible(AdmissibleNoiseParams(cal.gamma, cal.param), RandomSource(4))
        assert answer(d, q, cfg, RandomSource(4), _free_ledger()).value == cal.value + noise, cfg


def test_release_of_a_block_draws_one_unit_draw_scaled_per_row():
    lap, smooth = _laplace_and_admissible_blocks()
    assert lap.family == "laplace" and len(set(lap.param.tolist())) > 1
    rng = RandomSource(11)
    lones = [curator.release(_row_calibration(lap, i), rng) for i in range(8)]
    assert curator.release(lap, RandomSource(11)) == lones
    assert smooth.family == "admissible"
    unit = sample_admissible(AdmissibleNoiseParams(3.0, 1.0), RandomSource(11), 8)
    assert curator.release(smooth, RandomSource(11)) == (smooth.value + unit * smooth.param).tolist()
    # exact rows keep their place and draw nothing: the noisy rows take the
    # stream in row order
    for cal in (lap, smooth):
        exact = np.arange(8) % 3 == 0
        mixed = dataclasses.replace(cal, sensitivity_used=np.where(exact, 0.0, cal.sensitivity_used),
                                    param=np.where(exact, 0.0, cal.param))
        out = curator.release(mixed, RandomSource(11))
        assert [out[i] for i in np.flatnonzero(exact)] == cal.value[exact].tolist()
        noisy = dataclasses.replace(cal, value=cal.value[~exact], sensitivity_used=cal.sensitivity_used[~exact],
                                    param=cal.param[~exact])
        assert [out[i] for i in np.flatnonzero(~exact)] == curator.release(noisy, RandomSource(11))
        all_exact = dataclasses.replace(mixed, sensitivity_used=np.zeros(8), param=np.zeros(8))
        assert curator.release(all_exact, rng) == cal.value.tolist()
    assert all(type(v) is float for v in out)


def test_release_refuses_a_bad_scale_and_a_discrete_block():
    for cal in _laplace_and_admissible_blocks():
        # every row's scale passes the sampler's parameter check, not only the first
        for scale in (math.inf, math.nan, 0.0, -1.0):
            bad = dataclasses.replace(cal, param=np.where(np.arange(8) == 5, scale, cal.param))
            with pytest.raises(PreconditionError, match="scale"):
                curator.release(bad, RandomSource(0))
            with pytest.raises(PreconditionError, match="scale"):
                curator.release(_row_calibration(bad, 5), RandomSource(0))
    # calibrate_block refuses discrete Laplace, and release refuses a block
    # of it built by hand, by name: each row would need its own alpha
    block, lower, upper = synthesize_block("uniform01", 9, 5, 2)
    with pytest.raises(ConfigError, match="discrete_laplace"):
        curator.calibrate_block(block, lower, upper, QuerySpec.median(),
                                MechanismConfig("idp_local", 0.5, noise_family="discrete_laplace"))
    discrete = curator.Calibration(np.array([2.0, 3.0]), "discrete_laplace", np.ones(2), np.full(2, 0.5))
    with pytest.raises(PreconditionError, match="alpha"):
        curator.release(discrete, RandomSource(0))
    assert "release" not in privcurator.__all__


def test_answer_json_shape():
    d = _d([0.0, 0.0, 0.0, 0.0, 1.0])
    out = answer(d, QuerySpec.median(), MechanismConfig("dp_smooth", 1.0, gamma=3.0),
                 RandomSource(5), _free_ledger())
    doc = out.to_json_dict()
    assert doc["query"] == "median"
    assert doc["regime"] == "dp_smooth"
    assert doc["gamma"] == 3.0
    assert "noise" not in doc
    json.dumps(doc)  # must be serializable as-is

    out = answer(d, QuerySpec.median(), MechanismConfig("idp_local", 1.0), RandomSource(5),
                 _free_ledger())
    assert out.to_json_dict()["noise"] == "laplace"


# the names a run-time tracer wraps on the curator module (perfbench/spans.py)
TRACED = ("sample_laplace", "sample_discrete_laplace", "sample_admissible", "smooth_sensitivity",
          "group_local_sensitivity", "global_sensitivity", "evaluate", "calibrate")


def test_answer_looks_every_traced_name_up_on_the_module(monkeypatch):
    # a wrapper set on the module must see every call, so no table row may
    # hold a reference taken at import; fresh datasets make every memo a miss
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED:
        monkeypatch.setattr(curator, name, counting(name, getattr(curator, name)))
    median = QuerySpec.median()
    smooth = MechanismConfig("dp_smooth", 1.0, gamma=3.0)
    gdp = MechanismConfig("gdp", 1.0, group_size=2)
    cases = [(median, MechanismConfig("dp_global", 1.0), {"global_sensitivity", "sample_laplace"}),
             (median, smooth, {"smooth_sensitivity", "sample_admissible"}),
             (median, MechanismConfig("idp_local", 1.0), {"sample_laplace"}),
             (median, gdp, {"group_local_sensitivity", "sample_laplace"})]
    samplers = (("laplace", "sample_laplace"), ("discrete_laplace", "sample_discrete_laplace"))
    for q in (QuerySpec.range_count(0.5, 1.0), QuerySpec.histogram([0.0, 0.5, 1.0])):
        cases.append((q, smooth, {"evaluate", "global_sensitivity", "sample_admissible"}))
        for family, sampler in samplers:
            for regime, group_size in (("dp_global", None), ("idp_local", None), ("gdp", 2)):
                cfg = MechanismConfig(regime, 1.0, noise_family=family, group_size=group_size)
                cases.append((q, cfg, {"evaluate", "global_sensitivity", sampler}))
    for q, cfg, used in cases:
        calls.clear()
        answer(_d([0.1, 0.4, 0.5, 0.8, 0.9]), q, cfg, RandomSource(0), _free_ledger())
        assert set(calls) == used | {"calibrate"}, (q, cfg)


def test_answer_json_hides_smooth_sensitivity():
    # sensitivity_used is S(D) and noise_scale is 4*gamma*S(D)/eps: publishing
    # either lets a reader recover the data-dependent S(D)
    d = _d([0.0, 0.0, 0.0, 0.0, 1.0])
    out = answer(d, QuerySpec.median(), MechanismConfig("dp_smooth", 1.0, gamma=3.0),
                 RandomSource(5), _free_ledger())
    doc = out.to_json_dict()
    assert "sensitivity_used" not in doc
    assert "noise_scale" not in doc
    assert out.sensitivity_used == pytest.approx(math.exp(-1.0 / 3.0))  # kept in memory

    out = answer(d, QuerySpec.median(), MechanismConfig("idp_local", 1.0), RandomSource(5),
                 _free_ledger())
    assert out.to_json_dict()["sensitivity_used"] == 0.0


# ---------------------------------------------------------------------------
# ledger accounting
# ---------------------------------------------------------------------------


def test_ledger_sequential_charges_sum():
    ledger = BudgetLedger(1.0)
    ledger.charge(0.25).charge(0.25)
    assert ledger.spent() == pytest.approx(0.5)
    assert ledger.remaining() == pytest.approx(0.5)


def test_ledger_boundary_charge_is_accepted():
    ledger = BudgetLedger(1.0)
    ledger.charge(0.6)
    ledger.charge(0.4)  # lands exactly on the budget
    assert ledger.spent() == 1.0
    with pytest.raises(BudgetExceededError):
        ledger.charge(1e-9)


def test_ledger_charge_many_is_atomic():
    ledger = BudgetLedger(1.0)
    ledger.charge(0.5)
    batch = [LedgerEntry("q", 0.2), LedgerEntry("q", 0.2), LedgerEntry("q", 0.2)]
    with pytest.raises(BudgetExceededError):
        ledger.charge_many(batch)
    assert len(ledger.entries) == 1
    assert ledger.spent() == pytest.approx(0.5)


def test_ledger_rejects_bad_epsilon_and_budget():
    ledger = BudgetLedger(1.0)
    for eps in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            ledger.charge(eps)
    with pytest.raises(PreconditionError):
        BudgetLedger(-1.0)
    with pytest.raises(BudgetExceededError):
        BudgetLedger(0.5, [LedgerEntry("q", 0.6)])


@pytest.mark.parametrize("eps", [0.0, -100.0, math.nan, math.inf, -math.inf])
def test_ledger_entries_are_checked_at_construction(eps):
    with pytest.raises(PreconditionError):
        BudgetLedger(math.inf, [LedgerEntry("q", 0.5), LedgerEntry("q", eps)])


def test_ledger_keeps_well_typed_entries_and_coerces_the_rest():
    kept = LedgerEntry("median", 0.5)
    ledger = BudgetLedger(2.0, [kept, LedgerEntry(7, np.float64(0.25)), LedgerEntry("max", 1)])
    assert ledger.entries[0] is kept
    assert ledger.entries[1:] == (LedgerEntry("7", 0.25), LedgerEntry("max", 1.0))
    assert all(type(e.query) is str and type(e.epsilon) is float for e in ledger.entries)


def test_ledger_concurrent_charges_never_overspend():
    ledger = BudgetLedger(10.0)
    accepted = []

    def worker():
        for _ in range(30):
            try:
                ledger.charge(0.5)
                accepted.append(1)
            except BudgetExceededError:
                pass

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ledger.spent() <= 10.0 + 1e-12
    assert len(accepted) == len(ledger.entries) == 20


def test_ledger_spent_model_randomized():
    # mirror the accounting with a plain list and compare after every charge
    rng = np.random.default_rng(11)
    for _ in range(50):
        ledger = BudgetLedger(5.0)
        accepted = []
        for _ in range(40):
            eps = float(rng.uniform(0.01, 0.8))
            try:
                ledger.charge(eps)
                accepted.append(eps)
            except BudgetExceededError:
                pass
            assert ledger.spent() == math.fsum(accepted)
            assert ledger.spent() <= 5.0


@pytest.mark.parametrize("values, budget", [
    # a plain running += loses each 1.0 against 1e16 (half an ulp, ties to even)
    ([1e16] + [1.0] * 12 + [1e-17] * 5 + [3.0], 1e16 + 8.0),
    # the 0.1 series: ten of them sum to exactly 1.0, a running += to 0.9999999999999999
    ([0.1] * 14, 1.0),
    # subnormals next to normal epsilons, and past the budget
    ([1e-310, 5e-324, 0.5, 1e-310, 1e-17, 2.2250738585072014e-308, 0.5, 1e-310, 0.1], 1.0),
    ([1e-310] * 6 + [1e16, 1.0, 1.0, 1e-17, 0.1, 1.0, 1.0], 1e16 + 2.0),
])
def test_ledger_spent_is_the_exact_sum_after_every_charge(values, budget):
    ledger = BudgetLedger(budget)
    accepted, rejected = [], 0
    for eps in values:
        try:
            ledger.charge(eps)
            accepted.append(eps)
        except BudgetExceededError:
            rejected += 1
        assert ledger.spent() == math.fsum(accepted)
        assert ledger.remaining() == budget - math.fsum(accepted)
        assert ledger.spent() <= budget
    assert rejected and len(accepted) == len(ledger.entries)
    assert BudgetLedger(budget, ledger.entries).spent() == ledger.spent()


@pytest.mark.parametrize("budget", [math.inf, 1.7976931348623157e308])
def test_ledger_refuses_a_total_past_the_largest_float(budget):
    ledger = BudgetLedger(budget).charge(1e308)
    with pytest.raises(BudgetExceededError):
        ledger.charge(1e308)
    with pytest.raises(BudgetExceededError):
        ledger.charge_many([LedgerEntry("q", 1.0), LedgerEntry("q", 1.7e308)])
    assert ledger.entries == (LedgerEntry("", 1e308),)
    assert ledger.spent() == 1e308
    ledger.charge(1e307)  # the ledger still takes a charge that fits
    assert ledger.spent() == 1.1e308
    with pytest.raises(BudgetExceededError):
        BudgetLedger(math.inf, [LedgerEntry("q", 1e308)] * 2)


def test_ledger_charges_take_linear_time():
    # linear cost gives a ratio near 4 for 4x the charges, quadratic near 16
    def best_of_three(k):
        times = []
        for _ in range(3):
            ledger = BudgetLedger(math.inf)
            start = time.perf_counter()
            for _ in range(k):
                ledger.charge(0.1)
            times.append(time.perf_counter() - start)
        return min(times)

    ratio = best_of_three(80_000) / best_of_three(20_000)
    assert ratio < 8.0, f"4x the charges took {ratio:.1f}x the time"


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------


def test_session_round_trip(tmp_path):
    path = tmp_path / "session.json"
    ledger = BudgetLedger(2.0)
    ledger.charge(0.5, query="median")
    ledger.charge(0.25, query="hist:0,1")
    save_session(ledger, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["entries"][1] == {"query": "hist:0,1", "epsilon": 0.25}
    loaded = load_session(path)
    assert loaded == ledger
    assert loaded.spent() == pytest.approx(0.75)


def test_session_file_is_compact_and_indented_files_still_load(tmp_path):
    ledger = BudgetLedger(2.0).charge(0.5, query="median").charge(0.1, query="max")
    doc = {
        "version": 1,
        "total_budget": 2.0,
        "entries": [{"query": "median", "epsilon": 0.5}, {"query": "max", "epsilon": 0.1}],
    }
    path = tmp_path / "session.json"
    save_session(ledger, path)
    assert path.read_text(encoding="utf-8") == json.dumps(doc) + "\n"

    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    assert load_session(indented) == ledger


def _torn_write(real_write_text):
    def write_text(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")
    return write_text


def _failing_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("fault", ["torn_write", "failed_replace"])
def test_failed_save_keeps_the_previous_session(tmp_path, monkeypatch, fault):
    path = tmp_path / "session.json"
    ledger = BudgetLedger(2.0).charge(0.5, query="median")
    save_session(ledger, path)
    before = load_session(path)
    ledger.charge(0.25, query="max")

    if fault == "torn_write":
        monkeypatch.setattr(Path, "write_text", _torn_write(Path.write_text))
    else:
        monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises(OSError):
        save_session(ledger, path)
    monkeypatch.undo()

    assert load_session(path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["session.json"]
    save_session(ledger, path)
    assert load_session(path) == ledger


def test_session_with_old_tagged_entries_counts_every_entry(tmp_path):
    # Older files carry a per-entry tag, and histogram bins shared one charge
    # through it. Every entry now counts in full, which is never less than
    # before, so a file that then exceeds its budget is refused.
    def entry(tag, eps=0.5):
        return {"query": "hist:0,0.5,1", "epsilon": eps, "partition": tag}

    fits = tmp_path / "fits.json"
    fits.write_text(json.dumps({
        "version": 1,
        "total_budget": 2.0,
        "entries": [entry("whole"), entry("hist:0,0.5,1#bin0", 0.25)],
    }), encoding="utf-8")
    ledger = load_session(fits)
    assert ledger.spent() == 0.75
    save_session(ledger, fits)
    assert "partition" not in fits.read_text(encoding="utf-8")

    over = tmp_path / "over.json"
    over.write_text(json.dumps({
        "version": 1,
        "total_budget": 0.5,
        "entries": [entry("hist:0,0.5,1#bin0"), entry("hist:0,0.5,1#bin1")],
    }), encoding="utf-8")
    with pytest.raises(SessionError, match="budget"):
        load_session(over)


@pytest.mark.parametrize("bad", ["NaN", "-100", "0"])
def test_session_with_a_bad_epsilon_is_refused(tmp_path, bad):
    # json.loads accepts NaN; a NaN total would let every later charge through
    path = tmp_path / "session.json"
    path.write_text('{"version": 1, "total_budget": 1.0, "entries": '
                    f'[{{"query": "median", "epsilon": {bad}}}]}}', encoding="utf-8")
    with pytest.raises(SessionError, match="positive"):
        ledger = load_session(path)
        for _ in range(5):
            ledger.charge(0.9, query="median")


def test_session_round_trip_infinite_budget(tmp_path):
    path = tmp_path / "session.json"
    save_session(BudgetLedger(math.inf), path)
    assert load_session(path).total_budget == math.inf


def test_session_error_paths(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SessionError, match="not valid JSON"):
        load_session(bad)

    versioned = tmp_path / "v2.json"
    versioned.write_text(json.dumps({"version": 2, "total_budget": 1, "entries": []}),
                         encoding="utf-8")
    with pytest.raises(SessionError, match="version"):
        load_session(versioned)

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"version": 1, "entries": []}), encoding="utf-8")
    with pytest.raises(SessionError, match="malformed"):
        load_session(malformed)

    overspent = tmp_path / "overspent.json"
    overspent.write_text(json.dumps({
        "version": 1,
        "total_budget": 0.1,
        "entries": [{"query": "q", "epsilon": 0.5}],
    }), encoding="utf-8")
    with pytest.raises(SessionError, match="budget"):
        load_session(overspent)


@pytest.mark.parametrize("field, doc", [
    ("version", {"version": True, "total_budget": 1.0, "entries": []}),
    ("version", {"version": 1.0, "total_budget": 1.0, "entries": []}),
    ("total_budget", {"version": 1, "total_budget": True, "entries": []}),
    ("total_budget", {"version": 1, "total_budget": "2", "entries": []}),
    ("total_budget", {"version": 1, "total_budget": 10 ** 400, "entries": []}),
    ("epsilon", {"version": 1, "total_budget": 1.0, "entries": [{"query": "median", "epsilon": True}]}),
    ("epsilon", {"version": 1, "total_budget": 1.0, "entries": [{"query": "median", "epsilon": "0.5"}]}),
    ("query", {"version": 1, "total_budget": 1.0, "entries": [{"query": 5, "epsilon": 0.5}]}),
    ("entries", {"version": 1, "total_budget": 1.0, "entries": {}}),
    ("entries", {"version": 1, "total_budget": 1.0, "entries": "median"}),
])
def test_session_fields_of_the_wrong_json_type_are_refused(tmp_path, field, doc):
    # a bool would read as 1.0, a numeric string would parse, a number would
    # become a query string and an object or a string would read as no
    # entries: none of them is what save_session writes
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SessionError, match=field):
        load_session(path)


def test_every_golden_session_text_loads_and_saves_back_unchanged(tmp_path):
    golden = json.loads((Path(__file__).parent / "golden" / "outputs.json").read_text(encoding="utf-8"))
    texts = [v["session"] for k, v in golden["entries"].items() if k.startswith("session/")]
    assert len(texts) == 3 and any("Infinity" in t for t in texts)
    path = tmp_path / "session.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        save_session(load_session(path), path)
        assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("content", [b"[1, 2]", b'"x"', b"3", b"null", b"\xff\xfe{}"])
def test_session_that_is_not_a_utf8_json_object_is_refused(tmp_path, content):
    path = tmp_path / "session.json"
    path.write_bytes(content)
    with pytest.raises(SessionError, match="not valid JSON|not a JSON object"):
        load_session(path)
