"""Response mechanisms and the per-session privacy budget ledger.

Four regimes assemble query, sensitivity, and noise into a sanitized answer:

  dp_global   Laplace (or discrete Laplace for counts) scaled to the global
              sensitivity; the classic worst-case guarantee.
  dp_smooth   heavy-tailed admissible noise scaled to the smooth sensitivity
              (scale 4*gamma*S/eps with smoothing rate beta = eps/gamma).
              Known gaps (ROADMAP items 1 and 2): an S(D) that underflows
              to 0 on tie-heavy or modal-median data releases the exact
              value, and the float lattice of the noisy output leaks, as it
              does for Laplace releases.
  idp_local   Laplace or discrete Laplace scaled to the local sensitivity;
              the ratio bound holds between the actual dataset and its
              neighbors rather than between all pairs.
  gdp         Laplace scale chosen so every distance-i neighborhood satisfies
              the linear schedule eps_i = i*eps up to the configured group
              size.

Zero sensitivity releases the exact value: when no neighbor can change the
answer there is nothing to hide.

calibrate() fixes one dataset's noise plan and calibrate_block() a block of
datasets' plans as columns; release() is the one path from either to the
published values, and answer() charges the ledger between the two. What
differs by regime or by noise family is one row of _REGIMES or _FAMILIES.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .dataset import Dataset
from .errors import (
    BudgetExceededError,
    ConfigError,
    PreconditionError,
    SensitivityError,
    SessionError,
)
from .noise import (
    DiscreteLaplaceParams,
    LaplaceParams,
    AdmissibleNoiseParams,
    RandomSource,
    _check_alpha,
    _check_scale,
    _real,
    sample_admissible,
    sample_discrete_laplace,
    sample_laplace,
)
from .queries import QuerySpec, _rank, evaluate
from .sensitivity import (
    _around,
    _ladder_rank,
    _rung,
    global_sensitivity,
    group_local_sensitivity,
    smooth_sensitivity,
    smooth_sensitivity_block,
)


@dataclass(frozen=True)
class MechanismConfig:
    """Privacy regime plus its parameters; regime-specific fields are
    validated to be present exactly when the regime uses them."""

    regime: str
    epsilon: float
    gamma: float | None = None
    noise_family: str | None = None
    group_size: int | None = None

    def __post_init__(self) -> None:
        row = _REGIMES.get(self.regime) if isinstance(self.regime, str) else None
        if row is None:
            raise ConfigError(f"unknown regime {self.regime!r}; choose one of {tuple(_REGIMES)}")
        if type(self.epsilon) is bool or not isinstance(self.epsilon, numbers.Real):
            raise ConfigError(f"epsilon must be a real number, got {self.epsilon!r}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        for regime, other in _REGIMES.items():  # each own field is checked by its row only
            if other.own is not None:
                name, check = other.own
                if regime == self.regime:
                    object.__setattr__(self, name, check(getattr(self, name)))
                elif getattr(self, name) is not None:
                    raise ConfigError(f"{name} applies to {regime} only, not {self.regime}")
        if row.family is not None:
            if self.noise_family is not None:
                raise ConfigError(f"{self.regime} always uses the {row.family} noise family")
        elif self.noise_family is None:
            object.__setattr__(self, "noise_family", _CONFIG_FAMILIES[0])
        elif self.noise_family not in _CONFIG_FAMILIES:
            raise ConfigError(f"unknown noise family {self.noise_family!r}")

    def to_json_dict(self) -> dict:
        out = {"regime": self.regime, "epsilon": self.epsilon}
        if self.noise_family is not None:
            out["noise"] = self.noise_family
        own = _REGIMES[self.regime].own
        if own is not None:
            out[own[0]] = getattr(self, own[0])
        return out


@dataclass(frozen=True)
class NoisyAnswer:
    """A sanitized query answer plus the calibration that produced it.

    noise_scale is the Laplace b or the admissible-noise scale; when the
    noise family is discrete_laplace it records alpha = exp(-eps/sensitivity)
    instead. Exact releases (zero sensitivity) record noise_scale 0. For a
    histogram sensitivity_used is the L1 sensitivity of the whole vector. For
    dp_smooth both fields reveal the secret S(D), so the JSON form omits them.
    """

    value: float | int | list
    query: QuerySpec
    mechanism: MechanismConfig
    sensitivity_used: float
    noise_scale: float

    def to_json_dict(self) -> dict:
        out = {"value": self.value, "query": self.query.to_string()}
        out.update(self.mechanism.to_json_dict())
        if _REGIMES[self.mechanism.regime].publishes:
            out["sensitivity_used"] = self.sensitivity_used
            out["noise_scale"] = self.noise_scale
        return out


# ---------------------------------------------------------------------------
# budget ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LedgerEntry:
    query: str
    epsilon: float


class BudgetLedger:
    """Session record of spent epsilon under sequential composition.

    Every release is one entry and spent budget is the sum of all entries'
    epsilons. Nothing composes in parallel: under the modify-one-record
    neighbor relation a split of the data chosen per query does not qualify.

    The ledger keeps the exact running total as Shewchuk's non-overlapping
    partials (the algorithm behind math.fsum), so a charge costs O(1)
    amortized however many entries the session holds, and spent() is the
    correctly rounded exact sum: bit for bit math.fsum of the entries.

    charge is check-then-append under a lock, so concurrent sessions can
    share a ledger; a rejected charge leaves the ledger unchanged. Entries
    given at construction pass the same positive-and-finite check as charges.
    A budget or an epsilon must be a real number and not a bool.
    """

    def __init__(self, total_budget: float, entries=()):
        total_budget = _real("total budget", total_budget)
        if math.isnan(total_budget) or total_budget < 0:
            raise PreconditionError(f"total budget must be >= 0, got {total_budget}")
        self.total_budget = total_budget
        self._lock = threading.Lock()
        self._entries = _checked_entries(entries)
        self._partials = _add_partials([], (e.epsilon for e in self._entries))
        if self.spent() > self.total_budget:
            raise BudgetExceededError(
                f"entries already spend {self.spent()}, over the budget {self.total_budget}"
            )

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def spent(self) -> float:
        return math.fsum(self._partials)

    def remaining(self) -> float:
        return self.total_budget - self.spent()

    def charge(self, epsilon: float, query: str = "") -> "BudgetLedger":
        return self.charge_many([LedgerEntry(query, epsilon)])

    def charge_many(self, new_entries: list[LedgerEntry]) -> "BudgetLedger":
        """Atomically append all entries or none, at O(1) amortized cost per entry.

        Raises BudgetExceededError when the exact total would pass the budget
        or would not be representable as a float.
        """
        new_entries = _checked_entries(new_entries)
        with self._lock:
            partials = _add_partials(self._partials, (e.epsilon for e in new_entries))
            would_spend = math.fsum(partials)
            if would_spend > self.total_budget:
                raise BudgetExceededError(
                    f"charge would spend {would_spend} of budget {self.total_budget}"
                )
            self._entries.extend(new_entries)
            self._partials = partials
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, BudgetLedger):
            return NotImplemented
        return self.total_budget == other.total_budget and self._entries == other._entries

    def __repr__(self) -> str:
        return (
            f"BudgetLedger(total_budget={self.total_budget}, "
            f"spent={self.spent()}, entries={len(self._entries)})"
        )


def _json_number(value, name: str) -> float:
    # an int or a float as json.loads parses it, never a bool (an int to
    # isinstance), a string, or an int past the float range
    if type(value) is float or type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    raise TypeError(f"{name} must be a JSON number in the float range, got {value!r}")


def _checked_entries(entries) -> list[LedgerEntry]:
    """Entries with a str query and a positive, finite float epsilon.

    An entry already of that shape is kept as it is; any other is rebuilt
    with its fields coerced. A bool or non-real epsilon is refused, and so
    is a NaN or non-positive one, which would poison the exact total,
    whether charged or loaded.
    """
    checked = []
    for e in entries:
        if type(e) is not LedgerEntry or type(e.query) is not str or type(e.epsilon) is not float:
            e = LedgerEntry(str(e.query), _real("charged epsilon", e.epsilon))
        if not (e.epsilon > 0 and math.isfinite(e.epsilon)):
            raise PreconditionError(f"charged epsilon must be positive, got {e.epsilon}")
        checked.append(e)
    return checked


def _add_partials(partials: list[float], values) -> list[float]:
    """Return new non-overlapping partials whose exact sum is sum(partials) + sum(values).

    Shewchuk's grow-expansion (DCG 1997), as in math.fsum: each step is an
    exact two-sum, so no rounding is lost. The input list is not modified.
    All ledger values are positive, so a two-sum that overflows means the
    exact total is past the largest float; that total is refused.
    """
    partials = list(partials)
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        if math.isinf(x):  # an overflowed two-sum stays infinite to the end
            raise BudgetExceededError("the exact epsilon total would pass the largest float")
        partials[i:] = [x]
    return partials


def save_session(ledger: BudgetLedger, path: str | Path) -> None:
    """Write the ledger as compact JSON by atomic replace.

    The document goes to a temporary file beside the target, which then
    replaces it in one rename, so a crash leaves either the old session or
    the new one, never a torn file. Indented files written before still load.
    """
    path = Path(path)
    doc = {
        "version": 1,
        "total_budget": ledger.total_budget,
        "entries": [{"query": e.query, "epsilon": e.epsilon} for e in ledger.entries],
    }
    # one temporary file per writing thread, so concurrent saves never share one
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        tmp.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_session(path: str | Path) -> BudgetLedger:
    """The ledger of a session file. Each field must have the JSON type
    save_session writes; a bool, a numeric string or a number for a query is
    refused with a SessionError naming the field, never coerced."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise SessionError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SessionError(f"{path}: malformed session document: not a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != 1:
        raise SessionError(f"{path}: unsupported session version {doc.get('version')!r}")
    try:
        total = _json_number(doc["total_budget"], "total_budget")
        listed = doc.get("entries", [])
        if type(listed) is not list:
            raise TypeError(f"entries must be a JSON array, got {listed!r}")
        entries = []
        for e in listed:
            if type(e["query"]) is not str:
                raise TypeError(f"query must be a JSON string, got {e['query']!r}")
            entries.append(LedgerEntry(e["query"], _json_number(e["epsilon"], "epsilon")))
    except (KeyError, TypeError) as exc:
        raise SessionError(f"{path}: malformed session document: {exc}") from exc
    try:
        return BudgetLedger(total, entries)
    except (BudgetExceededError, PreconditionError) as exc:
        raise SessionError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# mechanisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    """Resolved noise plan for one (dataset, query, config) triple.

    family is "laplace", "discrete_laplace", "admissible", or "exact" (zero
    sensitivity); param is the Laplace b, the discrete alpha, or the
    admissible scale multiplier.

    calibrate_block returns one Calibration for a whole block of datasets:
    value, sensitivity_used and param are then columns with one entry per
    dataset, family and gamma are those of the datasets that draw noise, and
    a dataset whose sensitivity is 0 is exact, with param 0. release()
    publishes either kind.
    """

    value: object
    family: str
    sensitivity_used: float
    param: float
    gamma: float | None = None


def calibrate(d: Dataset, q: QuerySpec, cfg: MechanismConfig) -> Calibration:
    """Compute the exact answer and the noise parameters, without sampling.

    Shared by answer() and by the ratio-verification oracle, which needs the
    mechanism fixed from the actual dataset before probing its neighbors.

    A count moves by at most min(2, n_bins) whatever the data, so every
    regime calibrates it to that constant (gdp's max_i ladder_i / i is that,
    at i = 1); only the family differs, admissible under dp_smooth.

    The costly inputs are pure functions of the dataset and the public query,
    so they are memoized on the dataset (see Dataset): histogram counts, kept
    as a read-only array, plus S(D) of median, max and max2 per beta and their
    gdp scale per group size; counts need no memo for their sensitivity. The
    memo holds at most 128 entries per dataset, oldest evicted first. It keeps
    S(D) in the curator's memory only: S(D) is never published, pickled or
    written to a session. A hit only skips recomputation: the calibration is
    the same, and answer() still charges the ledger and draws fresh noise on
    every release. A hit versus a miss shows only whether this query, at this
    beta or group size, was asked of this dataset before. A dataset must not
    be mutated.
    """
    row = _REGIMES[cfg.regime]
    family = row.family or cfg.noise_family
    if q.integer_valued:
        if q.vector_valued:
            value = _memoized(d, ("value", q), lambda: _read_only(evaluate(d, q)))
        else:
            value = evaluate(d, q)
        return _calibration(value, global_sensitivity(q, d.bounds, d.n), family, q, cfg)
    v = d.values
    r = _rank(q, v.size)  # evaluate's precondition
    x = float(v[r - 1])
    return _calibration(x, row.lone(d, q, cfg, r, x), family, q, cfg)


def calibrate_block(block: np.ndarray, lower: np.ndarray, upper: np.ndarray, q: QuerySpec,
                    cfg: MechanismConfig) -> Calibration:
    """calibrate() of every dataset of a sorted block, as one Calibration of columns.

    Row i of the (T, n) block holds the sorted values of dataset i, whose
    bounds are lower[i] and upper[i] (see dataset.synthesize_block); q is an
    order statistic and cfg of a regime with a block row (idp_local or
    dp_smooth), any other is refused with ConfigError. Entry i of each column
    is what calibrate() gives dataset i, and the first dataset calibrate()
    refuses raises what it raises; a block of no datasets is refused. The
    preconditions are checked once; x~_{r-1}, x~_r and x~_{r+1} are three
    column reads, and dp_smooth's S(D) is one smooth_sensitivity_block scan.
    The noise parameters are checked by their extremes, the smallest and the
    largest of the column, which pass exactly when every row's does; a block
    with an exact or a refused row checks them as a column.
    Nothing is memoized.
    """
    T, n = block.shape
    if T < 1:
        raise PreconditionError("a block needs at least one dataset")
    r = _rank(q, n)  # evaluate's precondition
    row = _REGIMES[cfg.regime]
    if row.block is None:
        raise ConfigError(f"{cfg.regime} has no block calibration")
    family, eps, gamma = row.family or cfg.noise_family, cfg.epsilon, cfg.gamma
    noise = _FAMILIES[family]
    x, sens = row.block(block, lower, upper, q, cfg, r)
    if noise.unit is None:
        _calibration(float(x[0]), float(sens[0]), family, q, cfg)  # raises for dataset 0
    # a scale is monotone in sens, so these are the extremes of the scale
    # column; an infinite sensitivity gives an infinite scale
    lo, hi = float(np.minimum.reduce(sens)), float(np.maximum.reduce(sens))
    if 0.0 < noise.scale(lo, eps, gamma) <= noise.scale(hi, eps, gamma) < math.inf:
        scale = noise.scale(sens, eps, gamma)
    else:
        # an exact row (sensitivity 0, scale 0) passes; every other row's scale
        # must be positive and finite, as the Laplace and admissible checks ask
        with np.errstate(over="ignore"):
            scale = noise.scale(sens, eps, gamma)
        refused = (sens != 0.0) & ~((scale > 0.0) & (scale < math.inf))
        if refused.any():
            i = int(refused.argmax())
            _calibration(float(x[i]), float(sens[i]), family, q, cfg)  # raises for dataset i
    # a copy of the values, so that the calibration does not keep the block alive
    return Calibration(x.copy(), family, sens, scale, gamma)


def _calibration(value, sens: float, family: str, q: QuerySpec, cfg: MechanismConfig) -> Calibration:
    # the noise plan for one dataset's value at sensitivity sens
    if math.isinf(sens):
        raise SensitivityError(
            f"{cfg.regime} needs a finite sensitivity for {q.to_string()}; "
            "declare finite domain bounds"
        )
    row = _FAMILIES[family]
    if row.unit is None and not q.integer_valued:
        raise ConfigError(f"{family} masks integer-valued queries only, not {q.to_string()}")
    if sens == 0.0:
        return Calibration(value, "exact", 0.0, 0.0)
    param = row.scale(sens, cfg.epsilon, cfg.gamma)
    row.check(param)  # before answer() charges the ledger
    return Calibration(value, family, sens, param, cfg.gamma)


# Entries per dataset memo. A curator answering a fixed set of standard
# queries fills a few dozen; the cap bounds what random queries can add.
_MEMO_SIZE = 128
# Guards every memo write: eviction iterates the dict, which must not change
# size meanwhile. A read is one dict lookup and needs no lock. The lock is
# never held while a value is computed, so two threads may both compute a
# missing value; they store equal values.
_memo_lock = threading.Lock()
_MISSING = object()


def _memoized(d: Dataset, key, compute):
    """d's memoized value for key, computed and stored (FIFO) when missing."""
    value = d._memo.get(key, _MISSING)
    if value is _MISSING:
        value = compute()
        with _memo_lock:
            memo = d._memo
            memo[key] = value
            while len(memo) > _MEMO_SIZE:
                del memo[next(iter(memo))]
    return value


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def answer(
    d: Dataset,
    q: QuerySpec,
    cfg: MechanismConfig,
    rng: RandomSource,
    ledger: BudgetLedger,
) -> NoisyAnswer:
    """Answer a query under the configured regime, charging the ledger.

    The ledger is charged only after the calibration succeeds, and sampling
    happens only after the charge is accepted, so a rejected budget or an
    infinite sensitivity leaves both the ledger and the noise stream intact.
    Every answer, a histogram included, is one release and one ledger entry
    of epsilon.

    A noisy value that is not finite is refused with ConfigError, and its
    charge stays spent. It happens when the heavy-tailed dp_smooth noise
    overflows the float range (gamma close to 1 draws Z = +-inf about once in
    a thousand at gamma = 1.01). The refusal is a function of the value that
    would have been published, so it reveals nothing beyond what publishing
    +-inf would; where Z itself is infinite the event depends on the draw
    alone, not on the data or the noise scale.
    """
    cal = calibrate(d, q, cfg)
    ledger.charge(cfg.epsilon, q.to_string())

    return NoisyAnswer(
        value=release(cal, rng),
        query=q,
        mechanism=cfg,
        sensitivity_used=cal.sensitivity_used,
        noise_scale=cal.param,
    )


def release(cal: Calibration, rng: RandomSource):
    """The published value of a calibration, from one sampler call.

    Each family draws as its row of _FAMILIES says, after its parameter
    check. A unit-scale draw times the scale is bit for bit the draw at that
    scale: both such samplers end in scale * (unit draw).

    A lone calibration (see calibrate) publishes a number, or a list for a
    histogram, with size None for a scalar, so answer() does no array work;
    an exact one draws nothing. A block calibration (see calibrate_block)
    publishes a list of one value per row, in row order: a row of
    sensitivity 0 publishes its value and draws nothing, and the other rows
    share one unit draw, element i times its row's scale. A size-k Laplace
    draw is also the stream that k lone releases consume; the admissible
    sampler lays a size-k draw out in blocks instead, so the same stream
    gives other, identically distributed, values.

    A noisy value that is not finite is refused with ConfigError (see answer).
    """
    row = _FAMILIES.get(cal.family)  # None for an exact calibration
    if not isinstance(cal.sensitivity_used, np.ndarray):
        if row is None:  # only an order statistic can be exact: a float
            return cal.value
        row.check(cal.param)
        return _add_noise(cal.value, row, cal.param, cal.gamma, rng)
    if row.unit is None:
        raise PreconditionError("discrete Laplace is drawn at its own alpha, one dataset at a time; "
                                "a block of it is refused")
    noisy = cal.sensitivity_used != 0.0
    every = noisy.all()
    if not (every or noisy.any()):
        return cal.value.tolist()
    values, scales = (cal.value, cal.param) if every else (cal.value[noisy], cal.param[noisy])
    # Each check accepts an interval of scales, so all pass once the extremes
    # do; min and max propagate a NaN.
    row.check(float(np.minimum.reduce(scales)))
    row.check(float(np.maximum.reduce(scales)))
    flat = _add_noise(values, row, scales, cal.gamma, rng)
    if every:
        return flat
    out = cal.value.tolist()
    for i, y in zip(noisy.nonzero()[0].tolist(), flat):
        out[i] = y
    return out


def _add_noise(value, family: _Family, param, gamma: float | None, rng: RandomSource):
    """value plus one draw of the family at the checked param, as published.

    param is the discrete alpha, or a scale (a float, or one per element of
    value) that multiplies a unit draw; a scalar draw takes it as a Python
    float, so that a float32 scale multiplies in float64, as in the samplers.
    """
    size = value.size if isinstance(value, np.ndarray) else None
    if family.unit is None:
        noise = sample_discrete_laplace(DiscreteLaplaceParams(param), rng, size)
    else:
        noise = family.unit(gamma, rng, size) * (float(param) if size is None else param)

    noisy = value + noise
    if size is None:
        finite = math.isfinite(noisy)
    else:  # int64 counts under discrete noise are always finite
        finite = noisy.dtype.kind != "f" or bool(np.isfinite(noisy).all())
    if not finite:
        raise ConfigError("the noisy value overflowed to a non-finite value and is refused; "
                          "its epsilon stays spent")
    if size is None:
        return int(noisy) if isinstance(noise, int) else float(noisy)
    return noisy.tolist()  # int64 counts stay ints under discrete noise


# ---------------------------------------------------------------------------
# the mechanism tables: one row per noise family and one per regime. Rows look
# the samplers and sensitivities up as module globals at call time, so that a
# wrapper set on this module (a tracer) sees every call.
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    """A noise family's row of _FAMILIES, keyed by the name Calibration.family holds."""

    scale: Callable  # (sens, epsilon, gamma): its parameter; a column of sens gives a column
    check: Callable  # the check its parameter object makes, run before a charge and a draw
    # (gamma, rng, size): a unit-scale draw, which times a scale is the draw at
    # that scale; None: drawn at its own parameter, lone and counts only
    unit: Callable | None


class _Regime(NamedTuple):
    """A regime's row of _REGIMES, keyed by MechanismConfig.regime. Counts need
    none: every regime calibrates them to their global sensitivity."""

    lone: Callable  # (d, q, cfg, r, x): the sensitivity of an order statistic x = x~_r
    block: Callable | None  # (block, lower, upper, q, cfg, r): (x, sens) columns; None: no block path
    family: str | None  # the family it always draws; None: the config's
    own: tuple[str, Callable] | None  # the config field only it sets, and that field's check
    publishes: bool  # whether its record may publish sensitivity_used and noise_scale
    claimed: Callable  # (epsilon, i): the output ratio it claims at distance i


# unit-scale noise parameters; frozen, so shared
_UNIT_LAPLACE = LaplaceParams(0.0, 1.0)


@functools.lru_cache(maxsize=16, typed=True)  # typed: a float32 gamma draws in float32
def _unit_admissible(gamma: float) -> AdmissibleNoiseParams:
    return AdmissibleNoiseParams(gamma, 1.0)


_FAMILIES = MappingProxyType({
    "laplace": _Family(lambda sens, eps, gamma: sens / eps, lambda b: _check_scale(b, "Laplace scale"),
                       lambda gamma, rng, size: sample_laplace(_UNIT_LAPLACE, rng, size)),
    "discrete_laplace": _Family(lambda sens, eps, gamma: math.exp(-eps / sens), _check_alpha, None),
    "admissible": _Family(lambda sens, eps, gamma: 4.0 * gamma * sens / eps, _check_scale,
                          lambda gamma, rng, size: sample_admissible(_unit_admissible(gamma), rng, size)),
})
_CONFIG_FAMILIES = ("laplace", "discrete_laplace")  # a config's choices, its default first


def _smooth_stat(d: Dataset, q: QuerySpec, cfg: MechanismConfig, r: int, x: float) -> float:
    beta = cfg.epsilon / cfg.gamma
    return _memoized(d, ("smooth", q, beta), lambda: smooth_sensitivity(d, q, beta))


def _smooth_block(block: np.ndarray, lower, upper, q: QuerySpec, cfg: MechanismConfig, r: int):
    return block[:, r - 1], smooth_sensitivity_block(block, lower, upper, q, cfg.epsilon / cfg.gamma)


def _local(v: np.ndarray, lower, upper, q: QuerySpec, cfg: MechanismConfig, r: int):
    # x~_r and rung 1 of its ladder, of sorted values v or of each row of a block
    _ladder_rank(q, v.shape[-1])  # the local sensitivity's
    below, x, above = _around(v, lower, upper, r)
    if v.ndim == 1:
        return x, _rung(x, above, below)
    with np.errstate(over="ignore"):  # a gap past the largest float is inf, refused as for floats
        return x, _rung(x, above, below)


def _group_stat(d: Dataset, q: QuerySpec, cfg: MechanismConfig, r: int, x: float) -> float:
    # the smallest scale meeting every distance-i constraint of the linear
    # schedule; from i = n on x~_{r+i} and x~_{r-i} are clamped, so rung / i only falls
    g = cfg.group_size
    return _memoized(d, ("gdp", q, g), lambda: max(
        b / i for i, b in enumerate(group_local_sensitivity(d, q, min(g, d.n)), start=1)))


def _gamma(gamma):
    if gamma is not None and (type(gamma) is bool or not isinstance(gamma, numbers.Real)):
        raise ConfigError(f"gamma must be a real number, got {gamma!r}")
    if gamma is None or not (gamma > 1.0 and math.isfinite(gamma)):
        raise ConfigError(f"dp_smooth needs a finite gamma > 1, got {gamma}")
    return gamma


def _group_size(group_size) -> int:
    try:
        g = 0 if isinstance(group_size, (bool, np.bool_)) else operator.index(group_size)
    except TypeError:
        g = 0
    if g < 1:
        raise ConfigError(f"gdp needs an integer group_size >= 1, got {group_size!r}")
    return g


def _flat_claim(epsilon: float, i: int) -> float:
    return math.exp(epsilon)  # whatever the distance, so group leakage is not excused


# each row: lone, block, family, own, publishes, claimed
_REGIMES = MappingProxyType({
    "dp_global": _Regime(lambda d, q, cfg, r, x: global_sensitivity(q, d.bounds, d.n), None,
                         None, None, True, _flat_claim),
    "dp_smooth": _Regime(_smooth_stat, _smooth_block, "admissible", ("gamma", _gamma), False, _flat_claim),
    "idp_local": _Regime(lambda d, q, cfg, r, x: _local(d.values, d.bounds.lower, d.bounds.upper,
                                                        q, cfg, r)[1], _local, None, None, True, _flat_claim),
    # the linear schedule eps_i = i * eps, up to the group size
    "gdp": _Regime(_group_stat, None, None, ("group_size", _group_size), True,
                   lambda epsilon, i: math.exp(i * epsilon)),
})
