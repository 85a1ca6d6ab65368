"""Benchmark harness: interval table, error grids, noise profiles.

Every runner returns plain row dictionaries ready for csv.DictWriter, so the
CLI stays a thin wrapper and tests can assert on the numbers directly. Rows
are deterministic for a fixed seed: the error grid derives three independent
streams per cell from (seed, cell index), one for the data and one per
regime's noise, and the trials of the cell continue those streams.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .curator import BudgetLedger, MechanismConfig, answer
from .dataset import SYNTH_DISTRIBUTIONS, Dataset, DomainBounds, synthesize
from .errors import BudgetExceededError, PreconditionError
from .noise import (
    AdmissibleNoiseParams,
    LaplaceParams,
    RandomSource,
    admissible_pdf,
    laplace_pdf,
    sample_admissible,
    sample_laplace,
)
from .oracle import (
    GridDomain,
    brute_local_sensitivity,
    brute_smooth_sensitivity,
    brute_value,
    verify_ratio_bound,
)
from .queries import QuerySpec, evaluate
from .sensitivity import local_sensitivity, smooth_sensitivity

PLAN_SIZES = (10, 100, 1000)
PLAN_EPSILONS = (0.5, 0.75, 1.0)

_MEDIAN = QuerySpec.median()


@dataclass(frozen=True)
class ExperimentPlan:
    """Grid of error experiments: distributions x sizes x epsilons."""

    distributions: tuple[str, ...] = SYNTH_DISTRIBUTIONS
    sizes: tuple[int, ...] = PLAN_SIZES
    epsilons: tuple[float, ...] = PLAN_EPSILONS
    trials: int = 1000
    gamma: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "distributions", tuple(self.distributions))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        for dist in self.distributions:
            if dist not in SYNTH_DISTRIBUTIONS:
                raise PreconditionError(f"unknown distribution {dist!r}")
        for size in self.sizes:
            if size not in PLAN_SIZES:
                raise PreconditionError(f"size must be one of {PLAN_SIZES}, got {size}")
        if not self.distributions or not self.sizes or not self.epsilons:
            raise PreconditionError("plan needs at least one distribution, size and epsilon")
        for eps in self.epsilons:
            if not 0.5 <= eps <= 1.0:
                raise PreconditionError(f"epsilon must lie in [0.5, 1], got {eps}")
        if self.trials < 1:
            raise PreconditionError(f"trials must be >= 1, got {self.trials}")
        if not self.gamma > 1.0:
            raise PreconditionError(f"gamma must be > 1, got {self.gamma}")
        if self.seed < 0:
            raise PreconditionError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# 95% central intervals of the calibrated noise families
# ---------------------------------------------------------------------------


def run_ci_table(epsilon: float, sensitivity: float, trials: int = 1_000_000, seed: int = 0) -> list[dict]:
    """Empirical central 95% intervals for the three calibrated families.

    Laplace at scale sensitivity/epsilon, and the admissible family at
    gamma = 2 (scale 8 sensitivity/epsilon) and gamma = 3 (scale
    12 sensitivity/epsilon).
    """
    if not epsilon > 0:
        raise PreconditionError(f"epsilon must be positive, got {epsilon}")
    if not sensitivity > 0:
        raise PreconditionError(f"sensitivity must be positive, got {sensitivity}")
    if trials < 100_000:
        raise PreconditionError(f"interval estimation needs >= 1e5 trials, got {trials}")

    lap_rng, g2_rng, g3_rng = RandomSource(seed).spawn(3)
    lap = LaplaceParams(0.0, sensitivity / epsilon)
    rows = [_ci_row("laplace", sample_laplace(lap, lap_rng, trials))]
    for gamma, rng in ((2.0, g2_rng), (3.0, g3_rng)):
        params = AdmissibleNoiseParams(gamma, 4.0 * gamma * sensitivity / epsilon)
        rows.append(_ci_row(f"admissible_gamma{int(gamma)}", sample_admissible(params, rng, trials)))
    return rows


def _ci_row(family: str, samples: np.ndarray) -> dict:
    low, high = np.percentile(samples, [2.5, 97.5])
    return {
        "family": family,
        "low": float(low),
        "high": float(high),
        "half_width": float((high - low) / 2.0),
    }


# ---------------------------------------------------------------------------
# absolute error of the median under idp_local vs dp_smooth
# ---------------------------------------------------------------------------


def run_error_grid(plan: ExperimentPlan) -> list[dict]:
    """Mean absolute error of the noisy median per (distribution, n, epsilon) cell.

    Each trial draws a fresh dataset (bounds recomputed per draw for the
    unbounded-support distributions) and both regimes answer the same data,
    each with a fresh ledger. A cell seeds three independent streams once,
    spawned from SeedSequence((plan.seed, cell index)): a Generator that every
    trial's dataset is drawn from, and one RandomSource per regime that every
    trial's release draws its noise from. Within a cell the trials are i.i.d.
    Even plan sizes drop to the nearest odd size so the median is defined;
    the CSV reports the size actually used.
    """
    rows = []
    cells = list(product(plan.distributions, plan.sizes, plan.epsilons))
    for ci, (dist, size, eps) in enumerate(cells):
        n = size if size % 2 == 1 else size - 1
        data_seq, local_seq, smooth_seq = np.random.SeedSequence((plan.seed, ci)).spawn(3)
        data_rng = np.random.default_rng(data_seq)
        regimes = (
            ("idp_local", MechanismConfig("idp_local", eps), RandomSource(local_seq)),
            ("dp_smooth", MechanismConfig("dp_smooth", eps, gamma=plan.gamma), RandomSource(smooth_seq)),
        )
        errors: dict[str, list[float]] = {regime: [] for regime, _, _ in regimes}
        for _ in range(plan.trials):
            d = synthesize(dist, n, data_rng)
            true_value = evaluate(d, _MEDIAN)
            for regime, cfg, rng in regimes:
                out = answer(d, _MEDIAN, cfg, rng, BudgetLedger(math.inf))
                errors[regime].append(abs(out.value - true_value))
        for regime, _, _ in regimes:
            rows.append({
                "distribution": dist,
                "n": n,
                "epsilon": eps,
                "regime": regime,
                "mae": math.fsum(errors[regime]) / plan.trials,
                "trials": plan.trials,
            })
    return rows


# ---------------------------------------------------------------------------
# analytic noise densities on a plotting grid
# ---------------------------------------------------------------------------


def run_noise_profile(epsilon: float, sensitivity: float, grid) -> list[dict]:
    """Analytic densities of the calibrated families evaluated on a grid."""
    if not epsilon > 0:
        raise PreconditionError(f"epsilon must be positive, got {epsilon}")
    if not sensitivity > 0:
        raise PreconditionError(f"sensitivity must be positive, got {sensitivity}")
    xs = np.asarray(grid, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise PreconditionError("grid must be a 1-d sequence with at least 2 points")

    lap = laplace_pdf(xs, LaplaceParams(0.0, sensitivity / epsilon))
    scale2 = 8.0 * sensitivity / epsilon
    scale3 = 12.0 * sensitivity / epsilon
    g2 = admissible_pdf(xs / scale2, 2.0) / scale2
    g3 = admissible_pdf(xs / scale3, 3.0) / scale3
    return [
        {
            "x": float(x),
            "laplace": float(a),
            "admissible_gamma2": float(b),
            "admissible_gamma3": float(c),
        }
        for x, a, b, c in zip(xs, lap, g2, g3)
    ]


def default_profile_grid() -> np.ndarray:
    """Dense near the origin with geometric tails, wide enough to integrate."""
    center = np.linspace(-50.0, 50.0, 2001)
    tail = np.geomspace(50.0, 1e6, 600)[1:]
    return np.unique(np.concatenate((-tail, center, tail)))


def write_csv(rows: list[dict], path: str | Path) -> None:
    """Write benchmark rows with columns in row-key order."""
    if not rows:
        raise PreconditionError("no rows to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# oracle battery behind `bench --verify`
# ---------------------------------------------------------------------------


def run_verification() -> list[dict]:
    """Cross-check the closed forms and the ratio bounds on small domains.

    Returns one row per check: {"check", "passed", "detail"}. A passing
    battery means the shipped sensitivities match brute-force enumeration and
    the shipped mechanisms respect their claimed output-ratio bounds,
    including the documented group-leakage counterexample for idp_local,
    and that the ledger and the published answer fields hold what they claim.
    """
    rows = _verify_closed_forms()
    rows.append(_verify_evaluation())
    rows.extend(_verify_ratio_bounds())
    rows.extend(_verify_histogram_ratio_bounds())
    rows.append(_verify_histogram_budget())
    rows.append(_verify_smooth_fields())
    return rows


def _oracle_queries() -> tuple[QuerySpec, ...]:
    return (
        QuerySpec.median(),
        QuerySpec.maximum(),
        QuerySpec.second_maximum(),
        QuerySpec.range_count(0.5, 1.0),
        QuerySpec.histogram([0.0, 0.5, 1.0]),
    )


def _oracle_grids() -> list[GridDomain]:
    # values sit exactly on the histogram and range edges 0, 0.5 and 1
    return [GridDomain(points, n) for points in ((0.0, 1.0), (0.0, 0.5, 1.0)) for n in (3, 5)]


def _verify_closed_forms(beta: float = 0.3, tolerance: float = 1e-12) -> list[dict]:
    rows = []
    for q in _oracle_queries():
        worst = 0.0
        checked = 0
        for grid in _oracle_grids():
            bounds = grid.bounds()
            for values in grid.datasets():
                d = Dataset(np.asarray(values), bounds)
                gap = abs(local_sensitivity(d, q) - brute_local_sensitivity(d, q, grid))
                gap = max(gap, abs(smooth_sensitivity(d, q, beta) - brute_smooth_sensitivity(d, q, beta, grid)))
                worst = max(worst, gap)
                checked += 1
        rows.append({
            "check": f"sensitivity closed forms vs brute force ({q.to_string()})",
            "passed": worst <= tolerance,
            "detail": f"{checked} datasets, worst gap {worst:.3e}",
        })
    return rows


def _verify_evaluation() -> dict:
    checked = mismatches = 0
    for grid in _oracle_grids():
        for values in grid.datasets():
            d = Dataset(np.asarray(values), grid.bounds())
            for q in _oracle_queries():
                checked += 1
                if not np.array_equal(np.atleast_1d(evaluate(d, q)), brute_value(values, q)):
                    mismatches += 1
    return {
        "check": "query evaluation vs definition",
        "passed": mismatches == 0,
        "detail": f"{checked} dataset-query pairs, {mismatches} mismatches",
    }


def _verify_ratio_bounds() -> list[dict]:
    grid = GridDomain((0.0, 1.0), 5)
    bounds = grid.bounds()
    datasets = [Dataset(np.asarray(v), bounds) for v in grid.datasets()]
    count_q = QuerySpec.range_count(0.5, 1.0)
    median_q = QuerySpec.median()
    rows = []

    idp_dl = MechanismConfig("idp_local", 0.5, noise_family="discrete_laplace")
    reports = [verify_ratio_bound(d, count_q, idp_dl, grid, 1) for d in datasets]
    rows.append(_ratio_row("idp_local discrete-laplace ratio at distance 1 (count:0.5:1)", reports))

    gdp = MechanismConfig("gdp", 0.5, group_size=2)
    for dist in (1, 2):
        reports = [verify_ratio_bound(d, median_q, gdp, grid, dist) for d in datasets]
        rows.append(_ratio_row(f"gdp g=2 ratio at distance {dist} (median)", reports))

    dp = MechanismConfig("dp_global", 0.5)
    reports = [verify_ratio_bound(d, median_q, dp, grid, 1) for d in datasets]
    rows.append(_ratio_row("dp_global ratio at distance 1 (median)", reports))

    # idp_local promises nothing beyond distance 1; the leak must be visible
    idp = MechanismConfig("idp_local", 0.5)
    failures = [d for d in datasets if not verify_ratio_bound(d, median_q, idp, grid, 2).passed]
    rows.append({
        "check": "idp_local group leakage detected at distance 2 (median)",
        "passed": len(failures) > 0,
        "detail": f"{len(failures)}/{len(datasets)} datasets exceed exp(eps), as expected",
    })
    return rows


def _verify_histogram_ratio_bounds() -> list[dict]:
    # one modified record can leave one bin and enter the other
    grid = GridDomain((0.0, 0.5, 1.0), 3)
    datasets = [Dataset(np.asarray(v), grid.bounds()) for v in grid.datasets()]
    q = QuerySpec.histogram([0.0, 0.5, 1.0])
    idp_dl = MechanismConfig("idp_local", 0.5, noise_family="discrete_laplace")
    gdp = MechanismConfig("gdp", 0.5, group_size=2)
    cases = (("dp_global laplace", MechanismConfig("dp_global", 0.5), 1),
             ("idp_local discrete-laplace", idp_dl, 1), ("gdp g=2", gdp, 1), ("gdp g=2", gdp, 2))
    return [_ratio_row(f"{name} ratio at distance {dist} ({q.to_string()})",
                       [verify_ratio_bound(d, q, cfg, grid, dist) for d in datasets])
            for name, cfg, dist in cases]


def _verify_histogram_budget(k: int = 10, eps: float = 0.5) -> dict:
    d = Dataset(np.linspace(0.0, 1.0, 5), DomainBounds(0.0, 1.0))
    ledger = BudgetLedger(eps)
    released = 0
    for bins in range(1, k + 1):
        try:
            answer(d, QuerySpec.histogram(np.linspace(0.0, 1.0, bins + 1)),
                   MechanismConfig("dp_global", eps), RandomSource(0), ledger)
            released += 1
        except BudgetExceededError:
            pass
    return {
        "check": f"{k} histograms with different edges at eps {eps} against budget {eps}",
        "passed": released == 1,
        "detail": f"{released} released (must be 1), spent {ledger.spent()}",
    }


def _verify_smooth_fields() -> dict:
    # sensitivity_used and noise_scale are both functions of the secret S(D)
    d = Dataset(np.array([0.0, 0.0, 0.0, 0.0, 1.0]), DomainBounds(0.0, 1.0))
    cfg = MechanismConfig("dp_smooth", 1.0, gamma=3.0)
    doc = answer(d, QuerySpec.median(), cfg, RandomSource(0), BudgetLedger(math.inf)).to_json_dict()
    leaked = sorted({"sensitivity_used", "noise_scale"} & doc.keys())
    return {
        "check": "dp_smooth answer publishes no field derived from S(D)",
        "passed": not leaked,
        "detail": f"published fields {sorted(doc)}",
    }


def _ratio_row(name: str, reports) -> dict:
    failed = [r for r in reports if not r.passed]
    worst = max(reports, key=lambda r: r.worst_ratio / r.worst_bound)
    return {
        "check": name,
        "passed": not failed,
        "detail": f"{len(reports)} datasets, worst ratio {worst.worst_ratio:.6f} "
                  f"vs bound {worst.worst_bound:.6f}",
    }
