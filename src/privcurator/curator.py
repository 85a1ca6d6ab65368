"""Response mechanisms and the per-session privacy budget ledger.

Four regimes assemble query, sensitivity, and noise into a sanitized answer:

  dp_global   Laplace (or discrete Laplace for counts) scaled to the global
              sensitivity; the classic worst-case guarantee.
  dp_smooth   heavy-tailed admissible noise scaled to the smooth sensitivity
              (scale 4*gamma*S/eps with smoothing rate beta = eps/gamma).
  idp_local   Laplace or discrete Laplace scaled to the local sensitivity;
              the ratio bound holds between the actual dataset and its
              neighbors rather than between all pairs.
  gdp         Laplace scale chosen so every distance-i neighborhood satisfies
              the linear schedule eps_i = i*eps up to the configured group
              size.

Zero sensitivity releases the exact value: when no neighbor can change the
answer there is nothing to hide.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

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
    sample_admissible,
    sample_discrete_laplace,
    sample_laplace,
)
from .queries import QuerySpec, evaluate
from .sensitivity import (
    global_sensitivity,
    group_local_sensitivity,
    local_sensitivity,
    smooth_sensitivity,
)

REGIMES = ("dp_global", "dp_smooth", "idp_local", "gdp")
NOISE_FAMILIES = ("laplace", "discrete_laplace")


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
        if self.regime not in REGIMES:
            raise ConfigError(f"unknown regime {self.regime!r}; choose one of {REGIMES}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.regime == "dp_smooth":
            if self.gamma is None or not self.gamma > 1.0:
                raise ConfigError("dp_smooth needs gamma > 1")
            if self.noise_family is not None:
                raise ConfigError("dp_smooth always uses the admissible noise family")
        else:
            if self.gamma is not None:
                raise ConfigError(f"gamma applies to dp_smooth only, not {self.regime}")
            family = self.noise_family if self.noise_family is not None else "laplace"
            if family not in NOISE_FAMILIES:
                raise ConfigError(f"unknown noise family {self.noise_family!r}")
            object.__setattr__(self, "noise_family", family)
        if self.regime == "gdp":
            if self.group_size is None or self.group_size < 1:
                raise ConfigError("gdp needs group_size >= 1")
        elif self.group_size is not None:
            raise ConfigError(f"group_size applies to gdp only, not {self.regime}")

    def to_json_dict(self) -> dict:
        out = {"regime": self.regime, "epsilon": self.epsilon}
        if self.gamma is not None:
            out["gamma"] = self.gamma
        if self.noise_family is not None:
            out["noise"] = self.noise_family
        if self.group_size is not None:
            out["group_size"] = self.group_size
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
        if self.mechanism.regime != "dp_smooth":
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
    """

    def __init__(self, total_budget: float, entries=()):
        if math.isnan(total_budget) or total_budget < 0:
            raise PreconditionError(f"total budget must be >= 0, got {total_budget}")
        self.total_budget = float(total_budget)
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


def _checked_entries(entries) -> list[LedgerEntry]:
    """Entries with a str query and a positive, finite float epsilon.

    An entry already of that shape is kept as it is; any other is rebuilt
    with its fields coerced. A NaN or non-positive epsilon would poison the
    exact total, so it is refused here, whether charged or loaded.
    """
    checked = []
    for e in entries:
        if type(e) is not LedgerEntry or type(e.query) is not str or type(e.epsilon) is not float:
            e = LedgerEntry(str(e.query), float(e.epsilon))
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
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SessionError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != 1:
        raise SessionError(f"{path}: unsupported session version {doc.get('version')!r}")
    try:
        total = float(doc["total_budget"])
        entries = [LedgerEntry(str(e["query"]), float(e["epsilon"]))
                   for e in doc.get("entries", [])]
    except (KeyError, TypeError, ValueError) as exc:
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
    """
    value = evaluate(d, q)
    eps = cfg.epsilon

    if cfg.regime == "dp_global":
        sens = global_sensitivity(q, d.bounds, d.n)
        family = cfg.noise_family
    elif cfg.regime == "idp_local":
        sens = local_sensitivity(d, q)
        family = cfg.noise_family
    elif cfg.regime == "gdp":
        ladder = group_local_sensitivity(d, q, cfg.group_size)
        # smallest scale meeting every distance-i constraint of the linear schedule
        sens = max(b / i for i, b in enumerate(ladder.per_distance, start=1))
        family = cfg.noise_family
    else:
        beta = eps / cfg.gamma
        sens = smooth_sensitivity(d, q, beta)
        family = "admissible"

    if math.isinf(sens):
        raise SensitivityError(
            f"{cfg.regime} needs a finite sensitivity for {q.to_string()}; "
            "declare finite domain bounds"
        )
    if family == "discrete_laplace" and not q.integer_valued:
        raise ConfigError(
            f"discrete_laplace masks integer-valued queries only, not {q.to_string()}"
        )

    if sens == 0.0:
        return Calibration(value, "exact", 0.0, 0.0)
    if family == "laplace":
        param = sens / eps
    elif family == "discrete_laplace":
        param = math.exp(-eps / sens)
    else:
        param = 4.0 * cfg.gamma * sens / eps
    return Calibration(value, family, sens, param, cfg.gamma)


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

    value = _sample_value(cal, rng)
    return NoisyAnswer(
        value=value,
        query=q,
        mechanism=cfg,
        sensitivity_used=cal.sensitivity_used,
        noise_scale=cal.param,
    )


def _sample_value(cal: Calibration, rng: RandomSource):
    vector = isinstance(cal.value, np.ndarray)
    if cal.family == "exact":
        return cal.value.tolist() if vector else cal.value

    size = cal.value.size if vector else None
    if cal.family == "laplace":
        noise = sample_laplace(LaplaceParams(0.0, cal.param), rng, size)
    elif cal.family == "discrete_laplace":
        noise = sample_discrete_laplace(DiscreteLaplaceParams(cal.param), rng, size)
    else:
        noise = sample_admissible(AdmissibleNoiseParams(cal.gamma, cal.param), rng, size)

    noisy = cal.value + noise
    if vector:  # int64 counts under discrete noise are always finite
        finite = noisy.dtype.kind != "f" or bool(np.isfinite(noisy).all())
    else:
        finite = math.isfinite(noisy)
    if not finite:
        raise ConfigError("the noisy value overflowed to a non-finite value and is refused; "
                          "its epsilon stays spent")
    if vector:
        return noisy.tolist()  # int64 counts stay ints under discrete noise
    return int(noisy) if isinstance(noise, int) else float(noisy)
