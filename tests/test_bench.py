"""Benchmark runners: shapes, determinism, and sanity of the numbers."""

import csv
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest
from scipy.integrate import trapezoid  # np.trapezoid needs numpy 2

from privcurator import bench, curator
from privcurator import (
    AdmissibleNoiseParams,
    BudgetLedger,
    ConfigError,
    Dataset,
    DomainBounds,
    ExperimentPlan,
    MechanismConfig,
    PreconditionError,
    QuerySpec,
    RandomSource,
    answer,
    calibrate,
    evaluate,
    sample_admissible,
    synthesize,
    default_profile_grid,
    run_ci_table,
    run_error_grid,
    run_noise_profile,
    run_verification,
    write_csv,
)


def test_plan_validation():
    plan = ExperimentPlan()
    assert plan.sizes == (10, 100, 1000)
    assert plan.epsilons == (0.5, 0.75, 1.0)
    with pytest.raises(PreconditionError, match="distribution"):
        ExperimentPlan(distributions=("cauchy",))
    with pytest.raises(PreconditionError, match="size"):
        ExperimentPlan(sizes=(50,))
    with pytest.raises(PreconditionError, match="epsilon"):
        ExperimentPlan(epsilons=(0.3,))
    with pytest.raises(PreconditionError, match="epsilon"):
        ExperimentPlan(epsilons=(1.5,))
    with pytest.raises(PreconditionError, match="at least one"):
        ExperimentPlan(epsilons=())
    with pytest.raises(PreconditionError, match="trials"):
        ExperimentPlan(trials=0)
    with pytest.raises(PreconditionError, match="gamma"):
        ExperimentPlan(gamma=1.0)
    with pytest.raises(PreconditionError, match="seed"):
        ExperimentPlan(seed=-1)


def test_plan_refuses_bools_fractions_and_a_non_finite_gamma():
    # these used to pass construction and then fail or misreport mid-run
    for name in ("trials", "seed"):
        for bad in (True, np.True_, 2.5, 1.0, "3"):
            with pytest.raises(PreconditionError, match=name):
                ExperimentPlan(**{name: bad})
    for bad in (math.inf, math.nan):
        with pytest.raises(PreconditionError, match="gamma"):
            ExperimentPlan(gamma=bad)
    for bad in (10.9, 10.0, True):
        with pytest.raises(PreconditionError, match="size"):
            ExperimentPlan(sizes=(bad,))
    plan = ExperimentPlan(trials=np.int64(7), seed=np.uint8(3))
    assert (plan.trials, plan.seed) == (7, 3)
    assert type(plan.trials) is int and type(plan.seed) is int


def test_plan_refuses_non_real_epsilons_and_gammas():
    # float() used to turn True into epsilon 1.0 and "0.5" into 0.5, and a
    # str gamma died in a raw comparison
    for bad in (True, np.True_, "0.5", None, 1j):
        with pytest.raises(PreconditionError, match="epsilon must be a real number"):
            ExperimentPlan(epsilons=(bad,))
    for bad in ("3", None, True, 3j):
        with pytest.raises(PreconditionError, match="gamma must be a real number"):
            ExperimentPlan(gamma=bad)
    plan = ExperimentPlan(epsilons=(1, np.float32(0.5), np.float64(0.75)), gamma=np.int64(2))
    assert plan.epsilons == (1.0, 0.5, 0.75) and plan.gamma == 2.0
    assert all(type(e) is float for e in plan.epsilons + (plan.gamma,))


def test_ci_table_shapes_and_ordering():
    rows = run_ci_table(1.0, 1.0, trials=100_000, seed=0)
    assert [r["family"] for r in rows] == ["laplace", "admissible_gamma2", "admissible_gamma3"]
    widths = {r["family"]: r["half_width"] for r in rows}
    # heavier tails spread the central interval; gamma=2 is the heaviest
    assert widths["laplace"] < widths["admissible_gamma3"] < widths["admissible_gamma2"]
    for r in rows:
        assert r["low"] < 0.0 < r["high"]


def test_ci_table_rejects_bad_arguments():
    with pytest.raises(PreconditionError, match="trials"):
        run_ci_table(1.0, 1.0, trials=10_000)
    with pytest.raises(PreconditionError, match="epsilon"):
        run_ci_table(0.0, 1.0)
    with pytest.raises(PreconditionError, match="sensitivity"):
        run_ci_table(1.0, 0.0)


def test_error_grid_rows_and_reproducibility():
    plan = ExperimentPlan(distributions=("uniform01",), sizes=(10,),
                          epsilons=(0.5, 1.0), trials=8, seed=1)
    rows = run_error_grid(plan)
    assert len(rows) == 4  # 2 epsilons x 2 regimes
    for r in rows:
        assert list(r.keys()) == ["distribution", "n", "epsilon", "regime", "mae", "trials"]
        assert r["n"] == 9  # even sizes round down so the median is defined
        assert r["mae"] >= 0.0
        assert r["trials"] == 8
    assert rows == run_error_grid(plan)


def test_error_grid_seeds_each_cell_once(monkeypatch):
    # one RandomSource per regime per cell, however many trials the cell runs
    built = []

    class CountingSource(bench.RandomSource):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(bench, "RandomSource", CountingSource)
    for trials in (4, 40):
        built.clear()
        plan = ExperimentPlan(distributions=("uniform01",), sizes=(10,),
                              epsilons=(1.0,), trials=trials, seed=5)
        assert len(run_error_grid(plan)) == 2
        assert len(built) == 2


def test_error_grid_builds_no_object_per_trial(monkeypatch):
    # a cell calibrates its trials as one block: no Dataset, DomainBounds or
    # memo write at all, and one Calibration per regime, however many trials
    made = Counter()

    def counting(kind, original):
        def wrapper(*args, **kwargs):
            made[kind] += 1
            return original(*args, **kwargs)
        return wrapper

    class CountingMemo(dict):
        def __setitem__(self, key, value):
            made["memo write"] += 1
            super().__setitem__(key, value)

    def seal(d, values, original=Dataset._seal):
        made["Dataset"] += 1
        original(d, values)
        object.__setattr__(d, "_memo", CountingMemo())

    monkeypatch.setattr(Dataset, "_seal", seal)
    monkeypatch.setattr(DomainBounds, "__post_init__", counting("DomainBounds", DomainBounds.__post_init__))
    monkeypatch.setattr(curator, "Calibration", counting("Calibration", curator.Calibration))
    monkeypatch.setattr(bench, "Calibration", counting("Calibration", bench.Calibration))
    for dist in ("uniform01", "standard_normal"):
        for trials in (4, 40):
            made.clear()
            plan = ExperimentPlan(distributions=(dist,), sizes=(100,), epsilons=(0.5,),
                                  trials=trials, seed=5)
            assert len(run_error_grid(plan)) == 2
            assert made == {"Calibration": 2}, (dist, trials)


def _reference_grid(plan):
    """The grid cell by cell: idp_local as one answer() per trial, dp_smooth
    as one calibration per trial and one size-T admissible draw."""
    median = QuerySpec.median()
    rows = []
    cells = product(plan.distributions, plan.sizes, plan.epsilons)
    for ci, (dist, size, eps) in enumerate(cells):
        n = size if size % 2 == 1 else size - 1
        data_seq, local_seq, smooth_seq = np.random.SeedSequence((plan.seed, ci)).spawn(3)
        data_rng = np.random.default_rng(data_seq)
        local_rng = RandomSource(local_seq)
        local_cfg = MechanismConfig("idp_local", eps)
        smooth_cfg = MechanismConfig("dp_smooth", eps, gamma=plan.gamma)
        local_errors, smooth_cals = [], []
        for _ in range(plan.trials):
            d = synthesize(dist, n, data_rng)
            truth = evaluate(d, median)
            out = answer(d, median, local_cfg, local_rng, BudgetLedger(math.inf))
            local_errors.append(abs(out.value - truth))
            smooth_cals.append(calibrate(d, median, smooth_cfg))
        assert all(c.family == "admissible" for c in smooth_cals)
        z = sample_admissible(AdmissibleNoiseParams(plan.gamma, 1.0),
                              RandomSource(smooth_seq), size=plan.trials)
        smooth_errors = [abs((c.value + c.param * float(zi)) - c.value)
                         for c, zi in zip(smooth_cals, z)]
        for regime, errors in (("idp_local", local_errors), ("dp_smooth", smooth_errors)):
            rows.append({"distribution": dist, "n": n, "epsilon": eps, "regime": regime,
                         "mae": math.fsum(errors) / plan.trials, "trials": plan.trials})
    return rows


@pytest.mark.parametrize("trials", [1, 7, 30])
def test_error_grid_equals_the_reference_loop(trials):
    plan = ExperimentPlan(sizes=(10, 100), epsilons=(0.5, 1.0), trials=trials, seed=trials)
    rows = run_error_grid(plan)
    assert len(rows) == 3 * 2 * 2 * 2
    assert rows == _reference_grid(plan)


@pytest.mark.parametrize("sampler", ["sample_laplace", "sample_admissible"])
def test_error_grid_refuses_a_non_finite_draw(monkeypatch, sampler):
    def overflowing(params, rng, size=None):
        return math.inf if size is None else np.full(size, math.inf)

    monkeypatch.setattr(curator, sampler, overflowing)
    plan = ExperimentPlan(distributions=("uniform01",), sizes=(10,), epsilons=(1.0,), trials=5)
    with pytest.raises(ConfigError, match="non-finite"):
        run_error_grid(plan)


def test_error_grid_local_beats_smooth():
    plan = ExperimentPlan(distributions=("uniform01",), sizes=(10,),
                          epsilons=(1.0,), trials=60, seed=3)
    mae = {r["regime"]: r["mae"] for r in run_error_grid(plan)}
    assert mae["idp_local"] < mae["dp_smooth"]


def test_noise_profile_values():
    xs = np.array([-50.0, 0.0, 50.0])
    rows = run_noise_profile(1.0, 1.0, xs)
    assert [r["x"] for r in rows] == [-50.0, 0.0, 50.0]
    center = rows[1]
    assert center["laplace"] == pytest.approx(0.5)
    assert center["admissible_gamma2"] == pytest.approx(1.0 / (8.0 * math.pi))
    assert center["admissible_gamma2"] > rows[2]["admissible_gamma2"] > 0.0
    # symmetric densities
    assert rows[0]["admissible_gamma3"] == pytest.approx(rows[2]["admissible_gamma3"])


def test_noise_profile_rejects_bad_arguments():
    with pytest.raises(PreconditionError, match="grid"):
        run_noise_profile(1.0, 1.0, np.array([1.0]))
    with pytest.raises(PreconditionError, match="epsilon"):
        run_noise_profile(-1.0, 1.0, np.array([0.0, 1.0]))
    with pytest.raises(PreconditionError, match="sensitivity"):
        run_noise_profile(1.0, math.nan, np.array([0.0, 1.0]))


def test_profile_densities_integrate_to_one():
    grid = default_profile_grid()
    rows = run_noise_profile(1.0, 1.0, grid)
    for column in ("laplace", "admissible_gamma2", "admissible_gamma3"):
        total = trapezoid([r[column] for r in rows], grid)
        assert total == pytest.approx(1.0, abs=1e-3), column


def test_write_csv_round_trip(tmp_path):
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back == [{"a": "1", "b": "x"}, {"a": "2", "b": "y"}]
    with pytest.raises(PreconditionError, match="no rows"):
        write_csv([], tmp_path / "empty.csv")


def test_verification_battery_passes():
    rows = run_verification()
    assert len(rows) == 17
    assert len({r["check"] for r in rows}) == 17
    for r in rows:
        assert r["passed"], r
        assert r["detail"]
