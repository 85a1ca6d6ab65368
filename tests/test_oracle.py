"""Brute-force sensitivity and exact ratio verification on small grids."""

import math

import numpy as np
import pytest

from privcurator import (
    ConfigError,
    Dataset,
    DomainBounds,
    GridDomain,
    MechanismConfig,
    PreconditionError,
    QuerySpec,
    brute_local_sensitivity,
    brute_smooth_sensitivity,
    calibrate,
    local_sensitivity,
    multiset_distance,
    smooth_sensitivity,
    verify_ratio_bound,
)

G2 = GridDomain((0.0, 1.0), 5)


def _on_grid(values, grid):
    return Dataset(np.array(values, dtype=float), grid.bounds())


def test_grid_domain_validation():
    g = GridDomain((0.0, 1.0), 3)
    assert g.bounds() == DomainBounds(0.0, 1.0)
    assert len(list(g.datasets())) == 4  # multisets of size 3 over 2 points
    GridDomain((2.5,), 2)  # a single grid point is legal
    GridDomain((0, 1, 2, 3, 4, 5), 7)  # largest allowed enumeration
    with pytest.raises(PreconditionError, match="1 to 6"):
        GridDomain((0, 1, 2, 3, 4, 5, 6), 3)
    with pytest.raises(PreconditionError, match="strictly increasing"):
        GridDomain((0.0, 0.0), 3)
    with pytest.raises(PreconditionError, match="size"):
        GridDomain((0.0, 1.0), 8)


def test_multiset_distance():
    assert multiset_distance((0, 1, 1), (1, 1, 0)) == 0
    assert multiset_distance((0, 0, 1), (0, 1, 1)) == 1
    assert multiset_distance((0, 0), (1, 1)) == 2
    assert multiset_distance((0.0, 0.5, 1.0), (0.5, 0.5, 0.5)) == 2


def test_brute_local_sensitivity_hand_checked():
    grid = GridDomain((0.0, 1.0), 3)
    assert brute_local_sensitivity(_on_grid([0, 0, 1], grid), QuerySpec.median(), grid) == 1.0
    assert brute_local_sensitivity(_on_grid([0, 0, 0], grid), QuerySpec.median(), grid) == 0.0
    assert brute_local_sensitivity(_on_grid([0, 0, 1], grid), QuerySpec.maximum(), grid) == 1.0
    # a duplicated maximum survives any single change
    assert brute_local_sensitivity(_on_grid([0, 1, 1], grid), QuerySpec.maximum(), grid) == 0.0


def test_brute_agrees_with_closed_forms_exhaustively():
    grid = GridDomain((0.0, 0.5, 1.0), 5)
    for q in (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum(),
              QuerySpec.range_count(0.5, 1.0)):
        for values in grid.datasets():
            d = _on_grid(values, grid)
            assert brute_local_sensitivity(d, q, grid) == pytest.approx(
                local_sensitivity(d, q), abs=1e-12)
            assert brute_smooth_sensitivity(d, q, 0.7, grid) == pytest.approx(
                smooth_sensitivity(d, q, 0.7), abs=1e-12)


def test_brute_force_rejects_bad_inputs():
    grid = GridDomain((0.0, 1.0), 3)
    off = Dataset(np.array([0.0, 0.3, 1.0]), grid.bounds())
    with pytest.raises(PreconditionError, match="grid points"):
        brute_local_sensitivity(off, QuerySpec.median(), grid)
    small = Dataset(np.array([0.0, 1.0]), grid.bounds())
    with pytest.raises(PreconditionError, match="does not match"):
        brute_local_sensitivity(small, QuerySpec.maximum(), grid)
    ok = _on_grid([0, 0, 1], grid)
    with pytest.raises(PreconditionError, match="beta"):
        brute_smooth_sensitivity(ok, QuerySpec.median(), 0.0, grid)


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
def test_brute_smooth_refuses_a_non_finite_beta(beta):
    # exp(-inf * 0) is NaN, and max(0.0, LS * NaN) silently kept 0.0 on this
    # data, where the beta -> inf limit is LS(D) = 0.5
    grid = GridDomain((0.0, 0.5, 1.0), 3)
    d = _on_grid([0.0, 0.5, 1.0], grid)
    with pytest.raises(PreconditionError, match="beta"):
        brute_smooth_sensitivity(d, QuerySpec.median(), beta, grid)


def test_verify_ratio_bound_validation():
    d = _on_grid([0, 0, 0, 0, 1], G2)
    with pytest.raises(PreconditionError, match="distance"):
        verify_ratio_bound(d, QuerySpec.median(), MechanismConfig("dp_global", 1.0), G2, 0)
    with pytest.raises(ConfigError, match="laplace"):
        verify_ratio_bound(d, QuerySpec.median(),
                           MechanismConfig("dp_smooth", 1.0, gamma=2.0), G2, 1)


def test_verify_neighborhood_size():
    # multisets over {0,1} differ only in their count of ones, so the
    # neighborhood of (0,0,0,0,1) holds exactly |k - 1| <= distance, k != 1
    d = _on_grid([0, 0, 0, 0, 1], G2)
    cfg = MechanismConfig("dp_global", 1.0)
    assert verify_ratio_bound(d, QuerySpec.median(), cfg, G2, 1).checked == 2
    assert verify_ratio_bound(d, QuerySpec.median(), cfg, G2, 2).checked == 3
    assert verify_ratio_bound(d, QuerySpec.median(), cfg, G2, 5).checked == 5


def test_idp_holds_at_distance_one_everywhere():
    grid = GridDomain((0.0, 0.5, 1.0), 5)
    cfg = MechanismConfig("idp_local", 1.0)
    for values in grid.datasets():
        report = verify_ratio_bound(_on_grid(values, grid), QuerySpec.median(), cfg, grid, 1)
        assert report.passed, values


def test_idp_discrete_count_sits_on_the_bound():
    d = _on_grid([0, 0, 1, 1, 1], G2)
    cfg = MechanismConfig("idp_local", 0.7, noise_family="discrete_laplace")
    report = verify_ratio_bound(d, QuerySpec.range_count(0.5, 1.0), cfg, G2, 1)
    assert report.passed
    assert report.worst_ratio == pytest.approx(math.exp(0.7))
    assert report.worst_bound == pytest.approx(math.exp(0.7))
    assert report.worst_dataset is not None


def test_histogram_ratio_bound_in_every_regime():
    # One modified record can leave one bin and enter another, so per-bin
    # noise sized for sensitivity 1 showed ratio exp(2 eps) against exp(eps).
    # Edge sets include one bin and bins that leave grid values uncovered.
    laplace_cfgs = (
        MechanismConfig("dp_global", 0.5),
        MechanismConfig("idp_local", 0.5),
        MechanismConfig("gdp", 0.5, group_size=3),
    )
    cfgs = laplace_cfgs + tuple(
        MechanismConfig(c.regime, 0.5, noise_family="discrete_laplace", group_size=c.group_size)
        for c in laplace_cfgs
    )
    edge_sets = ([0.0, 0.5, 1.0], [0.0, 1.0], [0.0, 0.25, 0.75], [0.25, 0.5, 0.75, 1.0])
    for grid in (GridDomain((0.0, 1.0), 3), GridDomain((0.0, 0.5, 1.0), 3)):
        for values in grid.datasets():
            d = _on_grid(values, grid)
            for edges in edge_sets:
                for cfg in cfgs:
                    for dist in range(1, 4 if cfg.regime == "gdp" else 2):
                        report = verify_ratio_bound(d, QuerySpec.histogram(edges), cfg, grid, dist)
                        assert report.passed, (values, edges, cfg, dist)


def test_idp_exact_release_leaks_beyond_distance_one():
    # LS = 0 makes the release exact; two modifications move the median,
    # so the distance-2 ratio is infinite and the check must say so
    d = _on_grid([0, 0, 0, 0, 1], G2)
    cfg = MechanismConfig("idp_local", 1.0)
    assert verify_ratio_bound(d, QuerySpec.median(), cfg, G2, 1).passed
    report = verify_ratio_bound(d, QuerySpec.median(), cfg, G2, 2)
    assert not report.passed
    assert math.isinf(report.worst_ratio)


def test_per_dataset_recalibration_differs_across_neighbors():
    # the point-mass release on D and the Laplace density on its neighbor
    # cannot bound each other; verify_ratio_bound holds the calibration fixed
    cfg = MechanismConfig("idp_local", 1.0)
    q = QuerySpec.median()
    here = calibrate(_on_grid([0, 0, 0, 0, 1], G2), q, cfg)
    there = calibrate(_on_grid([0, 0, 0, 1, 1], G2), q, cfg)
    assert here.family == "exact"
    assert there.family == "laplace"


def test_dp_global_holds_at_any_distance():
    cfg = MechanismConfig("dp_global", 1.0)
    for values in G2.datasets():
        report = verify_ratio_bound(_on_grid(values, G2), QuerySpec.median(), cfg, G2, 3)
        assert report.passed, values


def test_gdp_schedule_is_tight_at_the_group_size():
    d = _on_grid([0, 0, 0, 0, 1], G2)
    cfg = MechanismConfig("gdp", 0.5, group_size=2)
    for dist in (1, 2):
        report = verify_ratio_bound(d, QuerySpec.median(), cfg, G2, dist)
        assert report.passed, dist
    report = verify_ratio_bound(d, QuerySpec.median(), cfg, G2, 2)
    # two changes flip the median; the ratio meets exp(2 * eps) exactly
    assert report.worst_ratio == pytest.approx(math.e)
    assert report.worst_bound == pytest.approx(math.e)
    # a histogram meets its bound at distance 1 and at distance 2; the report
    # must name a distance-2 neighbor, where the ratio reaches exp(2 * eps)
    g3 = GridDomain((0.0, 0.5, 1.0), 3)
    d = _on_grid([0, 0, 0], g3)
    report = verify_ratio_bound(d, QuerySpec.histogram([0.0, 0.5, 1.0]), cfg, g3, 2)
    assert report.passed
    assert report.worst_ratio == pytest.approx(math.e)
    assert report.worst_bound == pytest.approx(math.e)
    assert multiset_distance((0.0, 0.0, 0.0), report.worst_dataset) == 2
