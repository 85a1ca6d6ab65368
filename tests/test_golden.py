"""Committed golden outputs: seeded results that must not move by accident.

tests/golden/outputs.json holds, as float hex, the rows of a small error
grid, S(D) of the order statistics on mixed data shapes, seeded library
answer() records over regime x query kind x noise family x epsilon (gdp
also at group sizes 51, 52 and 1000), the exact save_session text of three
seeded ledgers, and the rows of the bench --verify battery. The test
rebuilds every entry and compares it with the file: bit for bit when the
installed numpy is the one that wrote the file (its header records the
version), and within GOLDEN_ULPS units in the last place otherwise, since
numpy's log1p, exp and tan may round differently across versions and SIMD
paths. The test's name says which comparison ran, and it prints the share of
entries that moved.

A change that moves outputs on purpose regenerates the file:

    PYTHONPATH=src python tests/test_golden.py

and names in its change notes which entries moved and why.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from privcurator import (
    BudgetLedger,
    CuratorError,
    Dataset,
    DomainBounds,
    ExperimentPlan,
    MechanismConfig,
    QuerySpec,
    RandomSource,
    answer,
    run_error_grid,
    run_verification,
    save_session,
    smooth_sensitivity,
)

GOLDEN_PATH = Path(__file__).with_name("golden") / "outputs.json"
GOLDEN_ULPS = 4

_B01 = DomainBounds(0.0, 1.0)
_SIZES = (1, 3, 99, 1001)
_BETAS = (0.5, 1.0 / 6.0, 1.0 / 30.0, 1e-3)
_ORDER_QUERIES = (QuerySpec.median(), QuerySpec.maximum(), QuerySpec.second_maximum())
_ANSWER_QUERIES = _ORDER_QUERIES + (QuerySpec.range_count(0.25, 0.75),
                                    QuerySpec.histogram([0.0, 0.25, 0.5, 0.75, 1.0]))


def _shape(name: str, n: int) -> Dataset:
    """One deterministic dataset of a named shape; rng seeded by (shape, n)."""
    rng = np.random.default_rng([sum(map(ord, name)), n])
    if name == "uniform":
        return Dataset(rng.random(n), _B01)
    if name == "normal":
        return Dataset(rng.standard_normal(n), DomainBounds(-8.0, 8.0))
    if name == "ties":  # five values, so every statistic sits in a run of ties
        return Dataset(rng.integers(0, 5, n) / 4.0, _B01)
    if name == "modal":  # just over half the records at the median value 0.5
        modal = n // 2 + 1
        return Dataset(np.concatenate((np.full(modal, 0.5), rng.random(n - modal))), _B01)
    return Dataset(np.full(n, 0.5), _B01)  # "tied": every record equal


_SHAPES = ("uniform", "normal", "ties", "modal", "tied")


def _encode(value):
    """A result as JSON: floats as hex, ints as they are, lists elementwise."""
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, bool) or isinstance(value, int):
        return value
    return float(value).hex()


def _guarded(compute):
    try:
        return compute()
    except CuratorError as exc:
        return {"error": type(exc).__name__}


def _session_text(ledger: BudgetLedger) -> dict[str, str]:
    """The exact text save_session writes for a ledger."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.json"
        save_session(ledger, path)
        return {"session": path.read_bytes().decode("utf-8")}


def _sessions() -> dict[str, BudgetLedger]:
    """Three seeded ledgers: empty, a mix of released queries, and epsilons
    whose exact total needs more than one Shewchuk partial."""
    empty = BudgetLedger(2.5)
    d = _shape("uniform", 101)
    mixed = BudgetLedger(math.inf)
    queries = _ANSWER_QUERIES + (QuerySpec.histogram(np.linspace(0.0, 1.0, 101)),)
    rng = np.random.default_rng(13)
    for seed, q in enumerate(queries):
        for regime in ("dp_global", "idp_local"):
            cfg = MechanismConfig(regime, float(rng.uniform(0.05, 1.0)))
            answer(d, q, cfg, RandomSource(seed), mixed)
    partials = BudgetLedger(4.0)
    for eps in rng.uniform(0.0, 1.0, 6):
        partials.charge(float(eps) * 2.0 ** -int(rng.integers(0, 80)), "median")
    assert len(partials._partials) > 1
    return {"empty": empty, "mixed": mixed, "partials": partials}


def build() -> dict[str, object]:
    """Every golden entry, keyed by a readable name."""
    out: dict[str, object] = {}
    for row in run_error_grid(ExperimentPlan(trials=7, seed=9)):
        key = f"grid/{row['distribution']}/n={row['n']}/eps={row['epsilon']}/{row['regime']}"
        out[key] = _encode(row["mae"])
    for shape in _SHAPES:
        for n in _SIZES:
            d = _shape(shape, n)
            for q in _ORDER_QUERIES:
                for beta in _BETAS:
                    out[f"smooth/{shape}/n={n}/{q.to_string()}/beta={beta!r}"] = _guarded(
                        lambda: _encode(smooth_sensitivity(d, q, beta)))
    configs = []
    for eps in (0.5, 1.0):
        configs.append(MechanismConfig("dp_smooth", eps, gamma=3.0))
        configs.append(MechanismConfig("dp_smooth", eps, gamma=2.0))
        for family in ("laplace", "discrete_laplace"):
            for regime, group in (("dp_global", None), ("idp_local", None), ("gdp", 3)):
                configs.append(MechanismConfig(regime, eps, noise_family=family, group_size=group))
    seed = _answer_entries(out, configs, 0)
    # gdp on either side of ceil(n/2) = 51, where a count's ladder stops
    # following i, and past n = 101, where every order statistic's rung is flat
    _answer_entries(out, [MechanismConfig("gdp", 0.5, noise_family=family, group_size=g)
                          for g in (51, 52, 1000) for family in ("laplace", "discrete_laplace")], seed)
    for name, ledger in _sessions().items():
        out[f"session/{name}"] = _session_text(ledger)
    # the bench --verify rows, as dicts: a bare string would be read as float hex
    for row in run_verification():
        out[f"verify/{row['check']}"] = dict(row)
    return out


def _answer_entries(out: dict, configs, seed: int) -> int:
    """Seeded answer() records of every answer query under each config on the
    two n = 101 shapes, one seed each from seed on; returns the next seed."""
    for shape in ("uniform", "ties"):
        d = _shape(shape, 101)
        for cfg in configs:
            for q in _ANSWER_QUERIES:
                def record(d=d, q=q, cfg=cfg, seed=seed):
                    a = answer(d, q, cfg, RandomSource(seed), BudgetLedger(math.inf))
                    return [_encode(a.value), _encode(a.sensitivity_used), _encode(a.noise_scale)]
                name = "/".join(f"{k}={v}" for k, v in cfg.to_json_dict().items())
                out[f"answer/{shape}/{q.to_string()}/{name}/seed={seed}"] = _guarded(record)
                seed += 1
    return seed


def _ulps(a: float, b: float) -> float:
    # distance in units in the last place of the larger magnitude
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _moved(expected, actual, ulps: int) -> bool:
    if isinstance(expected, list) or isinstance(actual, list):
        return (not isinstance(expected, list) or not isinstance(actual, list)
                or len(expected) != len(actual)
                or any(_moved(e, a, ulps) for e, a in zip(expected, actual)))
    if isinstance(expected, str) and isinstance(actual, str):
        return _ulps(float.fromhex(expected), float.fromhex(actual)) > ulps
    return expected != actual


def _compare(ulps: int) -> None:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    expected, actual = golden["entries"], build()
    assert sorted(expected) == sorted(actual), "the golden file and build() name other entries"
    moved = [key for key in expected if _moved(expected[key], actual[key], ulps)]
    print(f"golden outputs: {len(moved)} of {len(expected)} entries moved "
          f"({len(moved) / len(expected):.1%}), tolerance {ulps} ulps")
    for key in moved[:20]:
        print(f"  {key}: {expected[key]} -> {actual[key]}")
    assert not moved


def _recorded_numpy() -> str | None:
    if not GOLDEN_PATH.exists():  # not written yet: the test fails on the missing file
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["numpy"]


if _recorded_numpy() == np.__version__:
    def test_golden_outputs_match_bit_for_bit():
        _compare(0)
else:
    def test_golden_outputs_match_within_4_ulps_on_another_numpy():
        _compare(GOLDEN_ULPS)


def write() -> None:
    """Regenerate the golden file from the current code and numpy."""
    entries = build()
    doc = {"numpy": np.__version__, "entries": {key: entries[key] for key in sorted(entries)}}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['entries'])} entries to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    write()
