"""End-to-end acceptance checks for the release bar.

Each test prints one [PASS]/[FAIL] line with the measured numbers, so the
captured output doubles as the acceptance checklist. Tolerances are pinned
here on purpose; loosening them is a release decision, not a test fix.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from privcurator import (
    AdmissibleNoiseParams,
    BudgetExceededError,
    BudgetLedger,
    Dataset,
    DiscreteLaplaceParams,
    DomainBounds,
    ExperimentPlan,
    GridDomain,
    LaplaceParams,
    MechanismConfig,
    QuerySpec,
    RandomSource,
    answer,
    brute_local_sensitivity,
    brute_smooth_sensitivity,
    dl_cdf,
    dl_pmf,
    laplace_cdf,
    local_sensitivity,
    run_ci_table,
    run_error_grid,
    sample_admissible,
    sample_discrete_laplace,
    sample_laplace,
    smooth_sensitivity,
    verify_ratio_bound,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name} -- {detail}")
    assert ok, f"{name}: {detail}"


def _grid_dataset(values, grid):
    return Dataset(np.asarray(values, dtype=float), grid.bounds())


# 1. empirical 95% interval half-widths of the calibrated noise families


def test_interval_table_matches_targets():
    targets = {"laplace": 3.0, "admissible_gamma2": 101.7, "admissible_gamma3": 34.2}
    start = time.monotonic()
    rows = run_ci_table(1.0, 1.0, trials=1_000_000, seed=0)
    elapsed = time.monotonic() - start
    rel = {r["family"]: abs(r["half_width"] - targets[r["family"]]) / targets[r["family"]]
           for r in rows}
    widths = {r["family"]: r["half_width"] for r in rows}
    ok = max(rel.values()) <= 0.02 and elapsed < 30.0
    _verdict(
        "interval half-widths at eps=1, sensitivity=1",
        ok,
        f"laplace {widths['laplace']:.3f}/3.0, gamma2 {widths['admissible_gamma2']:.2f}/101.7, "
        f"gamma3 {widths['admissible_gamma3']:.2f}/34.2; worst rel err "
        f"{max(rel.values()):.4f} (tol 0.02), {elapsed:.1f}s",
    )


# 2. median error grid: local calibration beats smooth in every cell


def test_median_error_grid_orders_regimes():
    start = time.monotonic()
    rows = run_error_grid(ExperimentPlan(trials=1000, gamma=3.0, seed=0))
    elapsed = time.monotonic() - start

    cells = {}
    for r in rows:
        cells.setdefault((r["distribution"], r["n"], r["epsilon"]), {})[r["regime"]] = r["mae"]
    assert len(cells) == 27

    losses = [key for key, mae in cells.items() if not mae["idp_local"] < mae["dp_smooth"]]
    margins = [mae["dp_smooth"] / mae["idp_local"] for mae in cells.values()]
    uniform_bad = [key for key, mae in cells.items()
                   if key[0] == "uniform01" and key[2] == 1.0 and not mae["idp_local"] < 1.0]
    ok = not losses and not uniform_bad and elapsed < 300.0
    _verdict(
        "median error grid, idp_local under dp_smooth in all 27 cells",
        ok,
        f"losing cells {losses or 'none'}, min advantage x{min(margins):.1f}, "
        f"uniform01 eps=1 cells over 1.0 MAE: {uniform_bad or 'none'}, {elapsed:.0f}s",
    )


# 3. closed-form sensitivities equal brute-force enumeration


def test_closed_form_sensitivities_match_brute_force():
    queries = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum(),
               QuerySpec.range_count(0.5, 1.0))
    betas = (0.3, 1.0)
    worst = 0.0
    checked = 0

    def check(d, grid):
        nonlocal worst, checked
        for q in queries:
            gap = abs(local_sensitivity(d, q) - brute_local_sensitivity(d, q, grid))
            for beta in betas:
                gap = max(gap, abs(smooth_sensitivity(d, q, beta)
                                   - brute_smooth_sensitivity(d, q, beta, grid)))
            worst = max(worst, gap)
            checked += 1

    for points in ((0.0, 1.0), (0.0, 0.5, 1.0)):
        for n in (3, 5):
            grid = GridDomain(points, n)
            for values in grid.datasets():
                check(_grid_dataset(values, grid), grid)

    rng = np.random.default_rng(2026)
    points = (0.0, 0.25, 0.5, 0.75, 1.0)
    grid = GridDomain(points, 7)
    for _ in range(100):
        values = sorted(rng.choice(points, size=7))
        check(_grid_dataset(values, grid), grid)

    _verdict(
        "local and smooth sensitivities vs exhaustive enumeration",
        worst <= 1e-12,
        f"{checked} (dataset, query) pairs, worst gap {worst:.3e} (tol 1e-12)",
    )


# 4. discrete-Laplace count release meets its ratio bound exactly


def test_count_ratio_bound_discrete_laplace():
    grid = GridDomain((0.0, 1.0), 5)
    cfg = MechanismConfig("idp_local", 0.5, noise_family="discrete_laplace")
    q = QuerySpec.range_count(0.5, 1.0)
    reports = [verify_ratio_bound(_grid_dataset(v, grid), q, cfg, grid, 1, tolerance=1e-9)
               for v in grid.datasets()]
    worst = max(r.worst_ratio for r in reports)
    bound = math.exp(0.5)
    ok = all(r.passed for r in reports) and worst <= bound * (1.0 + 1e-9)
    _verdict(
        "count ratio under discrete Laplace at distance 1",
        ok,
        f"{len(reports)} datasets, worst ratio {worst:.9f} vs exp(0.5) = {bound:.9f}",
    )


# 5. group schedule holds through the group size; plain local leaks beyond it


def test_group_schedule_bounds_and_local_leakage():
    grid = GridDomain((0.0, 1.0), 5)
    q = QuerySpec.median()
    gdp = MechanismConfig("gdp", 0.5, group_size=2)
    datasets = [_grid_dataset(v, grid) for v in grid.datasets()]

    gdp_ok = all(verify_ratio_bound(d, q, gdp, grid, dist).passed
                 for d in datasets for dist in (1, 2))

    idp = MechanismConfig("idp_local", 0.5)
    leaks = [d for d in datasets if not verify_ratio_bound(d, q, idp, grid, 2).passed]

    ok = gdp_ok and len(leaks) > 0
    _verdict(
        "group schedule at distances 1-2, with the distance-2 leak of idp_local visible",
        ok,
        f"gdp passed all {2 * len(datasets)} checks: {gdp_ok}; "
        f"idp_local distance-2 failures {len(leaks)}/{len(datasets)} (must be > 0)",
    )


# 6. worked examples: sensitivity values and the exact-release shortcut


def test_worked_examples():
    b01 = DomainBounds(0.0, 1.0)
    median = QuerySpec.median()
    ls_a = local_sensitivity(Dataset(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), b01), median)
    ls_b = local_sensitivity(Dataset(np.array([0.0, 0.0, 0.0, 1.0, 1.0]), b01), median)

    big = Dataset(np.array([0.0] * 9 + [1.0] * 90), b01)
    idp_out = answer(big, median, MechanismConfig("idp_local", 0.5),
                     RandomSource(1), BudgetLedger(math.inf))
    dp_out = answer(big, median, MechanismConfig("dp_global", 0.5),
                    RandomSource(1), BudgetLedger(math.inf))

    ok = (ls_a == 0.0 and ls_b == 1.0
          and idp_out.value == 1.0 and idp_out.noise_scale == 0.0
          and dp_out.noise_scale == 2.0)
    _verdict(
        "worked examples: median gaps and the pinned-median exact release",
        ok,
        f"LS {ls_a}/0, {ls_b}/1; idp value {idp_out.value} scale {idp_out.noise_scale}; "
        f"dp_global scale {dp_out.noise_scale} (= 1/eps)",
    )


# 7. ledger accounting equals an independent reference model


def test_ledger_matches_reference_model():
    rng = np.random.default_rng(7)
    charges = 0
    rejected = 0
    for _ in range(250):
        budget = float(rng.uniform(0.5, 3.0))
        ledger = BudgetLedger(budget)
        accepted: list[float] = []
        for _ in range(40):
            eps = float(rng.uniform(0.01, 1.0))
            before = len(ledger.entries)
            try:
                ledger.charge(eps)
                accepted.append(eps)
            except BudgetExceededError:
                rejected += 1
                assert len(ledger.entries) == before
            charges += 1
            assert ledger.spent() == math.fsum(accepted)
            assert ledger.spent() <= budget
    _verdict(
        "ledger vs reference model over random charge sequences",
        True,
        f"{charges} charges across 250 sessions, {rejected} rejected, "
        "spent tracked the sum of accepted epsilons throughout",
    )


# 8. samplers follow their stated distributions


def test_sampler_distribution_fidelity(admissible_reference_cdf):
    n = 1_000_000
    lap_rng, dl_rng, g2_rng, g3_rng = RandomSource(12).spawn(4)

    lap = LaplaceParams(0.0, 2.0)
    ks_lap = stats.kstest(sample_laplace(lap, lap_rng, n),
                          lambda x: laplace_cdf(x, lap)).statistic

    ks_adm = {}
    for gamma, rng in ((2.0, g2_rng), (3.0, g3_rng)):
        draws = sample_admissible(AdmissibleNoiseParams(gamma, 1.0), rng, n)
        ks_adm[gamma] = stats.kstest(draws, lambda x: admissible_reference_cdf(x, gamma)).statistic

    dl = DiscreteLaplaceParams(0.5)
    draws = sample_discrete_laplace(dl, dl_rng, n)
    freq_gap = max(abs(float(np.mean(draws == i)) - dl_pmf(i, 0.5)) for i in range(-5, 6))

    ok = ks_lap < 0.002 and max(ks_adm.values()) < 0.005 and freq_gap < 0.002
    _verdict(
        "sampler fidelity at 1e6 draws",
        ok,
        f"KS laplace {ks_lap:.5f} (tol 0.002), admissible gamma2 {ks_adm[2.0]:.5f} "
        f"gamma3 {ks_adm[3.0]:.5f} (tol 0.005), discrete freq gap {freq_gap:.5f} (tol 0.002)",
    )


# 9. post-processing and mixing preserve the ratio bound


def test_postprocessing_and_mixtures_stay_bounded():
    eps = 0.5
    alpha = math.exp(-eps)
    n = 5
    tol = 1e-9

    def clamped_pmf(center: int) -> np.ndarray:
        # release center + noise, then clamp into [0, n]
        interior = [dl_pmf(s - center, alpha) for s in range(1, n)]
        low = dl_cdf(-center, alpha)
        high = 1.0 - dl_cdf(n - 1 - center, alpha)
        return np.array([low] + interior + [high])

    worst_clamp = 0.0
    for c in range(n):
        p, q = clamped_pmf(c), clamped_pmf(c + 1)
        worst_clamp = max(worst_clamp, float(np.max(p / q)), float(np.max(q / p)))

    # mixing two mechanisms that both satisfy the bound: every pointwise
    # mixture ratio is at most the larger component ratio, so exp(0.5) caps
    # the tails analytically and the window scan confirms the interior
    alphas = (math.exp(-0.5), math.exp(-0.25))
    ks = np.arange(-200, 207)
    worst_mix = 0.0
    for p_mix in (0.0, 0.3, 1.0):
        def mix(center):
            return (p_mix * dl_pmf(ks - center, alphas[0])
                    + (1.0 - p_mix) * dl_pmf(ks - center, alphas[1]))
        a, b = mix(3), mix(4)
        worst_mix = max(worst_mix, float(np.max(a / b)), float(np.max(b / a)))

    bound = math.exp(eps)
    ok = worst_clamp <= bound * (1.0 + tol) and worst_mix <= bound * (1.0 + tol)
    _verdict(
        "clamping and mixtures never widen the output ratio",
        ok,
        f"clamp-to-[0,{n}] worst ratio {worst_clamp:.9f}, mixture worst ratio "
        f"{worst_mix:.9f}, bound exp(0.5) = {bound:.9f}",
    )
