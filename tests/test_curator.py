"""Mechanism configuration, calibration, budget accounting, and sessions."""

import json
import math
import os
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

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
