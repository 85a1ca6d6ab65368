"""The four benchmark workloads: input generation, the closed loop, output checks.

Each workload is one client in a closed loop: it sends the next request only
after the previous one returned. Inputs come from the workload seed alone;
the package receives only the generated data, queries and configurations.

A workload exposes ``setup(seed, workdir) -> state`` (data generation and
warm-up, counted in setup_s) and ``run(state, seconds) -> Outcome``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import privcurator
from privcurator import bench, curator
from privcurator.errors import CuratorError

EPSILONS = (0.1, 0.25, 0.5, 1.0)
GAMMAS = (2.0, 3.0)
GROUPS = (2, 4)
REGIMES = ("dp_global", "dp_smooth", "idp_local", "gdp")
# Query kinds and their weight in one cycle of the mix. 100-bin histograms
# are 2 of 9, so a 1000-release session ends with over 20,000 ledger entries
# on the seed's per-bin accounting. The weights also put large_data's median
# and p90 latency inside runs of similar-cost requests, not on a gap between
# two clusters, where a small shift in the mix would move them a lot.
KIND_WEIGHTS = (("median", 2), ("max", 1), ("max2", 1), ("count", 1), ("hist10", 2), ("hist100", 2))


@dataclass
class Outcome:
    """What one measured window produced."""

    latencies_ns: list = field(default_factory=list)  # one per request
    releases: int = 0  # noisy answers released
    attempted: int = 0  # requests sent
    failed: int = 0  # requests (or end-of-run checks) that failed
    seconds: float = 0.0  # wall time of the window
    notes: list = field(default_factory=list)

    def record(self, start_ns: int) -> None:
        """Close the request that started at perf_counter_ns() == start_ns."""
        self.latencies_ns.append(time.perf_counter_ns() - start_ns)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)


# ---------------------------------------------------------------------------
# reference values and output checks (independent of the package's code)
# ---------------------------------------------------------------------------


class Reference:
    """True query answers from the benchmark's own sorted copy of the data."""

    def __init__(self, raw: np.ndarray):
        self.sorted = np.sort(raw)

    def value(self, kind: str, lo=None, hi=None, edges=None):
        s = self.sorted
        if kind == "median":
            return float(s[(s.size - 1) // 2])
        if kind == "max":
            return float(s[-1])
        if kind == "max2":
            return float(s[-2])
        if kind == "count":
            return int(np.searchsorted(s, hi, "right") - np.searchsorted(s, lo, "left"))
        # half-open bins, the last one closed
        cuts = np.searchsorted(s, edges, "left")
        cuts[-1] = np.searchsorted(s, edges[-1], "right")
        return [int(c) for c in np.diff(cuts)]


def check_value(value, kind: str, bins: int, discrete: bool) -> str | None:
    """Shape and type of a released value; returns a failure message or None."""
    if kind.startswith("hist"):
        if not isinstance(value, list) or len(value) != bins:
            return f"{kind}: expected {bins} per-bin values, got {type(value).__name__}"
        items = value
    else:
        if isinstance(value, (list, tuple, dict)) or isinstance(value, bool):
            return f"{kind}: expected a scalar, got {type(value).__name__}"
        items = [value]
    for x in items:
        if discrete and not (isinstance(x, int) and not isinstance(x, bool)):
            return f"{kind}: discrete_laplace released non-integer {x!r}"
        if not isinstance(x, (int, float)) or not math.isfinite(x):
            return f"{kind}: released non-finite or non-numeric {x!r}"
    return None


def check_ledger(ledger, non_hist_eps: list) -> str | None:
    """Invariants that hold under per-bin and under whole-dataset histogram charges."""
    spent = ledger.spent()
    if spent > ledger.total_budget:
        return f"ledger spent {spent} over its budget {ledger.total_budget}"
    floor = math.fsum(non_hist_eps)
    if spent < floor:
        return f"ledger spent {spent} below the non-histogram total {floor}"
    return None


# ---------------------------------------------------------------------------
# the query mix shared by large_data and long_session
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Release:
    data: int  # index into the workload's datasets
    kind: str
    query: object
    cfg: object
    lo: float | None = None
    hi: float | None = None
    edges: np.ndarray | None = None

    @property
    def discrete(self) -> bool:
        return self.cfg.noise_family == "discrete_laplace"


def _slots(n_data: int, tied: set[int]):
    slots = []
    for data in range(n_data):
        for kind, weight in KIND_WEIGHTS:
            for regime in REGIMES:
                # On tie-heavy data the smooth sensitivity of an order
                # statistic is so small (down to 1e-225) that the noise falls
                # below one ulp and the release equals the true value; such a
                # release fails the noise-free check, so dp_smooth reaches the
                # tied dataset only through counts, histograms, and the median
                # at the smallest beta (see _draw).
                if data in tied and regime == "dp_smooth" and kind in ("max", "max2"):
                    continue
                slots.extend([(data, kind, regime)] * weight)
    return slots


def release_stream(rng: np.random.Generator, datasets, tied: set[int]):
    """Endless seeded mix: each cycle is a shuffled pass over every slot."""
    slots = _slots(len(datasets), tied)
    while True:
        for i in rng.permutation(len(slots)):
            yield _draw(rng, datasets, tied, *slots[i])


def _draw(rng, datasets, tied, data, kind, regime) -> Release:
    d = datasets[data]
    lower, upper = d.bounds.lower, d.bounds.upper
    eps = float(rng.choice(EPSILONS))
    counting = kind in ("count", "hist10", "hist100")
    kwargs = {}
    if regime == "dp_smooth":
        kwargs["gamma"] = float(rng.choice(GAMMAS))
        if data in tied and kind == "median":
            # beta = 0.1/3 keeps S(D) near 6e-8 for a median 500 ties deep,
            # so the noise stays far above one ulp
            eps, kwargs["gamma"] = EPSILONS[0], 3.0
    elif counting and rng.random() < 0.5:
        kwargs["noise_family"] = "discrete_laplace"
    if regime == "gdp":
        kwargs["group_size"] = int(rng.choice(GROUPS))
    cfg = curator.MechanismConfig(regime, eps, **kwargs)

    if kind == "count":
        lo, hi = np.sort(rng.uniform(lower, upper, 2))
        return Release(data, kind, privcurator.QuerySpec.range_count(lo, hi), cfg, float(lo), float(hi))
    if kind.startswith("hist"):
        edges = np.linspace(lower, upper, int(kind[4:]) + 1)
        return Release(data, kind, privcurator.QuerySpec.histogram(edges), cfg, edges=edges)
    query = {
        "median": privcurator.QuerySpec.median,
        "max": privcurator.QuerySpec.maximum,
        "max2": privcurator.QuerySpec.second_maximum,
    }[kind]()
    return Release(data, kind, query, cfg)


def _answer_one(rel: Release, d, ref: Reference, rng, ledger, out: Outcome, non_hist: list) -> None:
    """Send one release, time it, and check what came back."""
    out.attempted += 1
    start = time.perf_counter_ns()
    try:
        ans = curator.answer(d, rel.query, rel.cfg, rng, ledger)
    except CuratorError as exc:
        out.record(start)
        out.fail(f"{rel.kind}/{rel.cfg.regime}: {type(exc).__name__}: {exc}")
        return
    out.record(start)
    out.releases += 1
    if not rel.kind.startswith("hist"):
        non_hist.append(rel.cfg.epsilon)
    bins = len(rel.edges) - 1 if rel.edges is not None else 1
    problem = check_value(ans.value, rel.kind, bins, rel.discrete)
    if problem is None and rel.cfg.regime == "dp_smooth":
        if ans.value == ref.value(rel.kind, rel.lo, rel.hi, rel.edges):
            problem = f"{rel.kind}/dp_smooth released the true value without noise"
    if problem:
        out.fail(problem)


def _warm_up(datasets, seed: int) -> None:
    """Answer every slot once so lazily built tables and caches are filled."""
    rng = privcurator.RandomSource(seed)
    for data, kind, regime in sorted(set(_slots(len(datasets), set()))):
        d = datasets[data]
        for gamma in GAMMAS if regime == "dp_smooth" else (None,):
            cfg = curator.MechanismConfig(regime, 1.0, gamma=gamma,
                                          group_size=2 if regime == "gdp" else None)
            q = _draw(np.random.default_rng(0), datasets, set(), data, kind, "dp_global").query
            curator.answer(d, q, cfg, rng, curator.BudgetLedger(math.inf))


# ---------------------------------------------------------------------------
# large_data: two n = 1,000,001 datasets, short sessions
# ---------------------------------------------------------------------------

LARGE_N = 1_000_001
SESSION_RELEASES = 20


def tied_integers(gen: np.random.Generator) -> np.ndarray:
    """LARGE_N integers on [0, 999], 1000 copies of each inner value, shuffled.

    The end values take the remainder (501 zeros, 1500 copies of 999) so the
    median sits in the middle of its run of 1000 ties on every seed: the
    smooth-median loop then does the same work whatever the seed.
    """
    counts = np.full(1000, 1000)
    counts[0], counts[-1] = 501, 1500
    return gen.permutation(np.repeat(np.arange(1000, dtype=np.float64), counts))


def _setup_large(seed, workdir):
    gen = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    raw = [gen.random(LARGE_N), tied_integers(gen)]
    datasets = [
        privcurator.Dataset(raw[0], privcurator.DomainBounds(0.0, 1.0), name="uniform"),
        privcurator.Dataset(raw[1], privcurator.DomainBounds(0.0, 999.0), name="integers"),
    ]
    refs = [Reference(r) for r in raw]
    _warm_up(datasets, seed)
    return {"datasets": datasets, "refs": refs, "seed": seed, "tied": {1}}


def _run_large(state, seconds):
    datasets, refs = state["datasets"], state["refs"]
    stream = release_stream(np.random.default_rng(np.random.SeedSequence((state["seed"], 2))),
                            datasets, state["tied"])
    rng = privcurator.RandomSource(np.random.SeedSequence((state["seed"], 3)))
    out = Outcome()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        batch = list(itertools.islice(stream, SESSION_RELEASES))
        budget = 2.0 * math.fsum(r.cfg.epsilon for r in batch)
        ledger = curator.BudgetLedger(budget)
        non_hist: list = []
        for rel in batch:
            _answer_one(rel, datasets[rel.data], refs[rel.data], rng, ledger, out, non_hist)
        problem = check_ledger(ledger, non_hist)
        if problem:
            out.fail(problem)
    out.seconds = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# long_session: one n = 1,001 dataset, sessions of 1000 releases on one ledger
# ---------------------------------------------------------------------------

LONG_N = 1_001
LONG_RELEASES = 1_000  # per session; ~25,000 ledger entries at its end on the seed
SAVE_EVERY = 100


def _setup_long(seed, workdir):
    gen = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    raw = gen.random(LONG_N)
    datasets = [privcurator.Dataset(raw, privcurator.DomainBounds(0.0, 1.0), name="uniform")]
    _warm_up(datasets, seed)
    return {"datasets": datasets, "refs": [Reference(raw)], "seed": seed,
            "session": os.path.join(workdir, "long_session.json")}


def _run_long(state, seconds):
    """Whole sessions until the window is over, so every run sees the same ledger sizes."""
    datasets, refs, path = state["datasets"], state["refs"], state["session"]
    stream = release_stream(np.random.default_rng(np.random.SeedSequence((state["seed"], 2))),
                            datasets, set())
    rng = privcurator.RandomSource(np.random.SeedSequence((state["seed"], 3)))
    out = Outcome()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        ledger = curator.BudgetLedger(2.0 * max(EPSILONS) * LONG_RELEASES)
        non_hist: list = []
        for i in range(1, LONG_RELEASES + 1):
            _answer_one(next(stream), datasets[0], refs[0], rng, ledger, out, non_hist)
            if i % SAVE_EVERY == 0:
                curator.save_session(ledger, path)
        reloaded = curator.load_session(path)
        if reloaded != ledger:
            out.fail("load_session did not round-trip the in-memory ledger")
        problem = check_ledger(reloaded, non_hist)
        if problem:
            out.fail(problem)
    out.seconds = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# error_grid: the paper's experiment, one grid cell per request
# ---------------------------------------------------------------------------

CELL_TRIALS = 10
# run_error_grid's default plan: distributions x sizes x epsilons, in its order
GRID_CELLS = list(itertools.product(("uniform01", "standard_normal", "exponential1"),
                                    (10, 100, 1000), (0.5, 0.75, 1.0)))


def _setup_grid(seed, workdir):
    bench.run_error_grid(bench.ExperimentPlan(trials=1, gamma=3.0, seed=seed))  # warm-up
    return {"seed": seed}


def _run_grid(state, seconds):
    """Cycle through the 27 cells of run_error_grid's default plan, one cell per
    request. Cells differ tenfold in cost, so the latency median moves smoothly
    with machine speed instead of jumping between two modes."""
    out = Outcome()
    totals: dict[tuple, float] = {}  # (distribution, n, epsilon, regime) -> summed |error|
    start = time.perf_counter()
    deadline = start + seconds
    for r in itertools.count():
        if time.perf_counter() >= deadline:
            break
        dist, size, eps = GRID_CELLS[r % len(GRID_CELLS)]
        seed = int(np.random.SeedSequence((state["seed"], r)).generate_state(1)[0])
        plan = bench.ExperimentPlan(distributions=(dist,), sizes=(size,), epsilons=(eps,),
                                    trials=CELL_TRIALS, gamma=3.0, seed=seed)
        out.attempted += 1
        t0 = time.perf_counter_ns()
        rows = bench.run_error_grid(plan)
        out.record(t0)
        out.releases += CELL_TRIALS * len(rows)  # one row per regime
        if len(rows) != 2 or not all(math.isfinite(row["mae"]) for row in rows):
            out.fail(f"cell {r}: expected 2 finite rows, got {len(rows)}")
            continue
        for row in rows:
            key = (row["distribution"], row["n"], row["epsilon"], row["regime"])
            totals[key] = totals.get(key, 0.0) + row["mae"] * row["trials"]
    out.seconds = time.perf_counter() - start

    # pooled over the run: idp_local must beat dp_smooth in every cell
    for (dist, n, eps, regime), err in sorted(totals.items()):
        if regime == "idp_local" and not err < totals.get((dist, n, eps, "dp_smooth"), -1.0):
            out.fail(f"cell {dist}/n={n}/eps={eps}: idp_local MAE not below dp_smooth")
    return out


# ---------------------------------------------------------------------------
# cli: sequential `python -m privcurator.cli answer` invocations
# ---------------------------------------------------------------------------

CLI_N = 200_001
CLI_CAP = 1_000
CLI_CYCLE = (("median", "idp"), ("median", "dp-smooth"), ("count", "gdp"),
             ("hist", "dp-global"), ("max2", "idp"))


def _setup_cli(seed, workdir):
    gen = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    raw = gen.random(CLI_N)
    csv_path = os.path.join(workdir, "values.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("value\n")
        fh.write("\n".join(map(repr, raw.tolist())))
        fh.write("\n")
    session = os.path.join(workdir, "cli_session.json")
    budget = 2.0 * max(EPSILONS) * CLI_CAP
    curator.save_session(curator.BudgetLedger(budget), session)
    return {"csv": csv_path, "session": session, "budget": budget, "seed": seed,
            "ref": Reference(raw)}


def cli_argv(state, i: int, params: np.random.Generator) -> tuple[list, str, float, str]:
    """Arguments of the i-th invocation, with its query kind, epsilon and query string."""
    kind, regime = CLI_CYCLE[i % len(CLI_CYCLE)]
    eps = float(params.choice(EPSILONS))
    argv = ["answer", "--data", state["csv"], "--lower", "0", "--upper", "1",
            "--regime", regime, "--epsilon", repr(eps), "--session", state["session"],
            "--seed", str(int(params.integers(0, 2**31))), "--budget", repr(state["budget"])]
    if kind == "count":
        lo, hi = np.sort(params.uniform(0.0, 1.0, 2)).tolist()
        query = f"count:{lo!r}:{hi!r}"
    elif kind == "hist":
        edges = np.linspace(0.0, 1.0, int(params.choice((11, 101)))).tolist()
        query = "hist:" + ",".join(map(repr, edges))
    else:
        query = kind
    argv += ["--query", query]
    if regime == "dp-smooth":
        argv += ["--gamma", repr(float(params.choice(GAMMAS)))]
    if regime == "gdp":
        argv += ["--group", str(int(params.choice(GROUPS)))]
    return argv, kind, eps, query


def _run_cli(state, seconds, launcher=None):
    """Invocations inherit PYTHONPATH=src. launcher(argv, i) gives the command
    line; the default runs the package's own module."""
    params = np.random.default_rng(np.random.SeedSequence((state["seed"], 2)))
    ref = state["ref"]
    non_hist: list = []
    out = Outcome()
    start = time.perf_counter()
    deadline = start + seconds
    for i in itertools.count():
        if time.perf_counter() >= deadline or i >= CLI_CAP:
            break
        argv, kind, eps, query = cli_argv(state, i, params)
        cmd = launcher(argv, i) if launcher else [sys.executable, "-m", "privcurator.cli", *argv]
        out.attempted += 1
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        out.record(t0)
        if proc.returncode != 0:
            out.fail(f"invocation {i} exited {proc.returncode}: {proc.stderr.strip()[-200:]}")
            continue
        try:
            value = json.loads(proc.stdout)["value"]
        except (ValueError, KeyError, TypeError):
            out.fail(f"invocation {i} printed no JSON with a value")
            continue
        out.releases += 1
        if kind != "hist":
            non_hist.append(eps)
        bins = query.count(",") if kind == "hist" else 1
        problem = check_value(value, kind, bins, discrete=False)
        if problem is None and "dp-smooth" in argv and value == ref.value(kind):
            problem = "median/dp-smooth released the true value without noise"
        if problem:
            out.fail(f"invocation {i}: {problem}")
    out.seconds = time.perf_counter() - start

    problem = check_ledger(curator.load_session(state["session"]), non_hist)
    if problem:
        out.fail(problem)
    return out


WORKLOADS = {
    "large_data": (_setup_large, _run_large),
    "long_session": (_setup_long, _run_long),
    "error_grid": (_setup_grid, _run_grid),
    "cli": (_setup_cli, _run_cli),
}

# Tail percentile per workload, fixed so that it does not move with
# throughput and the seed leaves at least ten samples beyond it. p99 spread
# up to 0.35 (large_data) and 0.17 (long_session) of its median across runs,
# p90 at most 0.13 (NOTES.md). cli fits about 20 invocations in a window, too
# few for any percentile above the median.
TAIL_PERCENTILE = {"large_data": 90.0, "long_session": 90.0, "error_grid": 90.0, "cli": 50.0}
