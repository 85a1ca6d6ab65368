"""Brute-force ground truth on small discrete domains.

Sensitivities are recomputed here straight from their definitions by
exhaustive enumeration, and indistinguishability ratios are checked by exact
pmf/density arithmetic. The closed forms in the sensitivity module are
trusted only because they match this module on every small case.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .curator import _REGIMES, MechanismConfig, calibrate
from .dataset import Dataset, DomainBounds
from .errors import ConfigError, PreconditionError
from .noise import dl_pmf
from .queries import HISTOGRAM, MAXIMUM, MEDIAN, RANGE_COUNT, QuerySpec


@dataclass(frozen=True)
class GridDomain:
    """Finite value grid and dataset size small enough to enumerate fully."""

    points: tuple[float, ...]
    n: int

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 1 or len(pts) > 6:
            raise PreconditionError("grid needs 1 to 6 points")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise PreconditionError("grid points must be strictly increasing")
        if not 1 <= self.n <= 7:
            raise PreconditionError("grid dataset size must be 1..7")
        if len(pts) ** self.n > 300_000:
            raise PreconditionError("grid enumeration too large")
        object.__setattr__(self, "points", pts)

    def bounds(self) -> DomainBounds:
        return DomainBounds(self.points[0], self.points[-1])

    def datasets(self):
        """All sorted multisets of size n over the grid (queries ignore order)."""
        return combinations_with_replacement(self.points, self.n)


def _require_on_grid(d: Dataset, grid: GridDomain) -> tuple[float, ...]:
    values = tuple(float(x) for x in d.values)
    if d.n != grid.n:
        raise PreconditionError(f"dataset size {d.n} does not match grid size {grid.n}")
    if any(v not in grid.points for v in values):
        raise PreconditionError("dataset values must lie on the grid points")
    return values


def multiset_distance(a, b) -> int:
    """Records that must change to turn multiset a into multiset b."""
    diff = Counter(a)
    diff.subtract(Counter(b))
    return sum(abs(c) for c in diff.values()) // 2


def brute_value(values, q: QuerySpec) -> np.ndarray:
    """f(values) straight from the definition, as a float vector.

    Counts scan every value, so this stays independent of the binary search
    in `queries.evaluate`, which it is the reference for. `values` is sorted.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if q.kind == RANGE_COUNT:
        out = np.count_nonzero((v >= q.lo) & (v <= q.hi))
    elif q.kind == HISTOGRAM:
        out, _ = np.histogram(v, bins=np.asarray(q.edges))
    elif q.kind == MEDIAN:
        if n % 2 == 0:
            raise PreconditionError(f"median needs an odd number of records, got {n}")
        out = v[(n - 1) // 2]
    elif q.kind == MAXIMUM:
        out = v[-1]
    else:
        if n < 2:
            raise PreconditionError(f"second_maximum needs n >= 2, got {n}")
        out = v[-2]
    return np.atleast_1d(np.asarray(out, dtype=float))


# smooth-sensitivity enumeration revisits the same multisets many times
@lru_cache(maxsize=200_000)
def _ls_of(values, q: QuerySpec, grid: GridDomain) -> float:
    base = brute_value(values, q)
    worst = 0.0
    for i in range(len(values)):
        for p in grid.points:
            y = sorted(values[:i] + (p,) + values[i + 1:])
            worst = max(worst, float(np.sum(np.abs(brute_value(y, q) - base))))
    return worst


def brute_local_sensitivity(d: Dataset, q: QuerySpec, grid: GridDomain) -> float:
    """max |f(y) - f(D)| over all one-record modifications y on the grid."""
    return _ls_of(_require_on_grid(d, grid), q, grid)


def brute_smooth_sensitivity(d: Dataset, q: QuerySpec, beta: float, grid: GridDomain) -> float:
    """max over every grid dataset y of LS(y) * exp(-beta * d(D, y))."""
    if not (beta > 0 and math.isfinite(beta)):
        raise PreconditionError(f"beta must be positive and finite, got {beta}")
    base = _require_on_grid(d, grid)
    best = 0.0
    for y in grid.datasets():
        dist = multiset_distance(base, y)
        best = max(best, _ls_of(y, q, grid) * math.exp(-beta * dist))
    return best


# ---------------------------------------------------------------------------
# ratio verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    """Outcome of checking the output-distribution ratio over a neighborhood."""

    passed: bool
    checked: int
    worst_ratio: float
    worst_bound: float
    worst_dataset: tuple[float, ...] | None
    tolerance: float


def verify_ratio_bound(
    d: Dataset,
    q: QuerySpec,
    cfg: MechanismConfig,
    grid: GridDomain,
    distance: int,
    tolerance: float = 1e-9,
) -> RatioReport:
    """Check the two-sided output ratio against exp(eps_i) over a neighborhood.

    The mechanism is calibrated once from the actual dataset and the same
    noise distribution is applied to every neighbor, which is precisely the
    per-dataset guarantee being claimed. For each dataset D' within the given
    distance, the supremum over outputs of Pr[k(D) = s] / Pr[k(D') = s] and
    its inverse is compared to the ratio the regime's row claims at distance
    i: exp(i * eps) for the gdp schedule, or exp(eps) for every other regime
    regardless of distance (so group leakage of the local-sensitivity
    mechanism is visible, not excused).
    """
    if distance < 1:
        raise PreconditionError(f"distance must be >= 1, got {distance}")
    base = _require_on_grid(d, grid)
    cal = calibrate(d, q, cfg)
    sup_ratio = _SUP_RATIOS.get(cal.family)
    if sup_ratio is None:
        raise ConfigError("ratio verification supports laplace and discrete_laplace only")
    claimed = _REGIMES[cfg.regime].claimed

    f_base = brute_value(base, q)
    checked = 0
    worst_key = (0.0, 0)  # (excess, distance)
    worst = (1.0, math.exp(cfg.epsilon), None)

    for y in _neighborhood(base, grid, distance):
        dist = multiset_distance(base, y)
        if dist == 0:
            continue
        checked += 1
        bound = claimed(cfg.epsilon, dist)
        ratio = sup_ratio(cal.param, f_base - brute_value(y, q))
        excess = math.inf if math.isinf(ratio) else ratio / bound
        # on equal excess the farther neighbor wins, so a tight gdp bound at
        # the largest distance is the one reported
        if (excess, dist) > worst_key:
            worst_key = (excess, dist)
            worst = (ratio, bound, y)

    passed = worst_key[0] <= 1.0 + tolerance
    return RatioReport(
        passed=passed,
        checked=checked,
        worst_ratio=worst[0],
        worst_bound=worst[1],
        worst_dataset=worst[2],
        tolerance=tolerance,
    )


def _neighborhood(base, grid: GridDomain, distance: int):
    """Distinct sorted multisets reachable by modifying up to `distance` records."""
    seen = set()
    n = len(base)
    for r in range(1, distance + 1):
        for idxs in combinations(range(n), r):
            for repl in product(grid.points, repeat=r):
                y = list(base)
                for i, p in zip(idxs, repl):
                    y[i] = p
                key = tuple(sorted(y))
                if key not in seen:
                    seen.add(key)
                    yield key


def _l1(deltas: np.ndarray) -> float:
    return float(np.sum(np.abs(deltas)))


# Per family, the sup over outputs of the two-sided ratio of the output
# densities at centers f1 and f2, from the family's parameter and f1 - f2.
# Discrete Laplace components are independent pmfs that multiply, so the sup
# of the product ratio is the product of per-component sups.
_SUP_RATIOS = {
    "exact": lambda param, deltas: 1.0 if _l1(deltas) == 0.0 else math.inf,
    "laplace": lambda param, deltas: math.exp(_l1(deltas) / param),
    "discrete_laplace": lambda alpha, deltas: math.prod(
        _dl_component_sup(alpha, int(round(delta))) for delta in deltas),
}


def _dl_component_sup(alpha: float, delta: int) -> float:
    """Pointwise sup of the two-sided pmf ratio for centers 0 and delta.

    Scanned exactly over a window holding all but < 1e-15 of the mass of both
    pmfs; outside the window both tails decay geometrically at the same rate,
    so the pointwise ratio is the constant alpha^(-|delta|), which is included
    analytically.
    """
    if delta == 0:
        return 1.0
    k = int(math.ceil(math.log(1e-15 * (1.0 + alpha) / 2.0) / math.log(alpha))) + 1
    lo = min(0, delta) - k
    hi = max(0, delta) + k
    s = np.arange(lo, hi + 1)
    p1 = dl_pmf(s, alpha)
    p2 = dl_pmf(s - delta, alpha)
    scanned = float(max(np.max(p1 / p2), np.max(p2 / p1)))
    return max(scanned, alpha ** (-abs(delta)))
