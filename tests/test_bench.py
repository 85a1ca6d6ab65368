"""Benchmark runners: shapes, determinism, and sanity of the numbers."""

import csv
import math

import numpy as np
import pytest

from privcurator import (
    ExperimentPlan,
    PreconditionError,
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
        total = np.trapezoid([r[column] for r in rows], grid)
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
