"""In-memory span tracer that wraps privcurator's public functions at run time.

Each wrapped name records one span: its name (``layer.operation``, with the
query kind or sampler shape appended where the metrics split on it), its
duration, its self time (duration minus the time its child spans cover), the
request it belongs to, and a few counts. Nothing in the package is edited:
``install`` swaps module attributes for wrappers and ``restore`` puts the
originals back. A name missing from the package is skipped with a warning,
so the benchmark survives API changes in later versions.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
import warnings

_KIND = {
    "median": "median",
    "maximum": "max",
    "second_maximum": "max2",
    "range_count": "count",
    "histogram": "hist",
}
_EVAL_GROUP = {"median": "order", "max": "order", "max2": "order", "count": "count", "hist": "hist"}
_SAMPLERS = {
    "sample_laplace": "noise.laplace",
    "sample_discrete_laplace": "noise.dlaplace",
    "sample_admissible": "noise.admissible",
}


def _query_kind(q, d=None) -> str:
    kind = _KIND.get(getattr(q, "kind", None), "other")
    if kind == "median" and d is not None:
        v = d.values
        m = (v.size - 1) // 2
        if 0 < m < v.size - 1 and (v[m - 1] == v[m] or v[m] == v[m + 1]):
            return "median_tied"
    return kind


class Tracer:
    """Collects finished spans as tuples (name, dur_ns, self_ns, end_ns, request, info)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = 0
        self._stack: list[list] = []  # open spans: [name, start_ns, child_ns, info]

    def call(self, name: str, fn, args, kwargs, info=None):
        if not self._stack:
            self.request += 1  # a span with no parent starts a new request
        frame = [name, 0, 0, info]
        self._stack.append(frame)
        frame[1] = start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][2] += dur
            self.spans.append((name, dur, dur - frame[2], end, self.request, frame[3]))

    def mark_noise(self) -> None:
        """Flag the innermost open answer span as having drawn noise."""
        for frame in reversed(self._stack):
            if frame[0] == "curator.answer":
                frame[3]["noise"] = True
                return

    # -- wrapper factories ------------------------------------------------

    def _plain(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _answer(self, fn):
        def wrapper(*args, **kwargs):
            cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
            info = {"regime": getattr(cfg, "regime", "?"), "noise": False}
            return self.call("curator.answer", fn, args, kwargs, info)
        return wrapper

    def _evaluate(self, fn):
        def wrapper(*args, **kwargs):
            kind = _query_kind(args[1] if len(args) > 1 else kwargs.get("q"))
            return self.call(f"queries.evaluate.{_EVAL_GROUP.get(kind, kind)}", fn, args, kwargs)
        return wrapper

    def _sensitivity(self, name, fn):
        def wrapper(*args, **kwargs):
            d = args[0] if args else kwargs.get("d")
            q = args[1] if len(args) > 1 else kwargs.get("q")
            return self.call(f"{name}.{_query_kind(q, d)}", fn, args, kwargs)
        return wrapper

    def _sampler(self, name, fn):
        def wrapper(*args, **kwargs):
            size = args[2] if len(args) > 2 else kwargs.get("size")
            self.mark_noise()
            return self.call("noise.vector" if size is not None else name, fn, args, kwargs)
        return wrapper

    def _charge(self, fn):
        def wrapper(ledger, *args, **kwargs):
            info = {"entries": len(ledger.entries), "accepted": False}
            result = self.call("curator.charge", fn, (ledger,) + args, kwargs, info)
            info["accepted"] = True
            return result
        return wrapper

    def _save(self, fn):
        def wrapper(*args, **kwargs):
            info = {}
            result = self.call("curator.save_session", fn, args, kwargs, info)
            path = args[1] if len(args) > 1 else kwargs.get("path")
            info["bytes"] = os.path.getsize(path)
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def _targets(self):
        """(module, attribute path, wrapper factory) for every traced name."""
        out = []
        for mod in ("privcurator.curator", "privcurator.bench", "privcurator.cli"):
            out.append((mod, "answer", self._answer))
        for mod in ("privcurator.curator", "privcurator.sensitivity", "privcurator.bench"):
            out.append((mod, "evaluate", self._evaluate))
        for fn_name in ("local_sensitivity", "smooth_sensitivity", "group_local_sensitivity"):
            short = fn_name.replace("_sensitivity", "").replace("_local", "")
            out.append(("privcurator.curator", fn_name,
                        lambda f, n=f"sensitivity.{short}": self._sensitivity(n, f)))
        out.append(("privcurator.curator", "global_sensitivity",
                    lambda f: self._plain("sensitivity.global", f)))
        for fn_name, span in _SAMPLERS.items():
            out.append(("privcurator.curator", fn_name, lambda f, n=span: self._sampler(n, f)))
        out.append(("privcurator.curator", "calibrate", lambda f: self._plain("curator.calibrate", f)))
        out.append(("privcurator.curator", "BudgetLedger.charge_many", self._charge))
        for mod in ("privcurator.curator", "privcurator.cli"):
            out.append((mod, "save_session", self._save))
            out.append((mod, "load_session", lambda f: self._plain("curator.load_session", f)))
        out.append(("privcurator.dataset", "Dataset.__post_init__",
                    lambda f: self._plain("dataset.build", f)))
        out.append(("privcurator.cli", "load_csv", lambda f: self._plain("dataset.load_csv", f)))
        out.append(("privcurator.bench", "synthesize", lambda f: self._plain("dataset.synthesize", f)))
        out.append(("privcurator.bench", "run_error_grid", lambda f: self._plain("bench.error_grid", f)))
        out.append(("privcurator.cli", "main", lambda f: self._plain("cli.main", f)))
        return out

    def install(self):
        """Wrap every target that exists; return a function that restores them."""
        undo = []
        for mod_name, path, factory in self._targets():
            try:
                owner = importlib.import_module(mod_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                warnings.warn(f"trace: {mod_name}.{path} not found; its span is dropped")
                continue
            setattr(owner, attr, factory(original))
            undo.append((owner, attr, original))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return restore


# ---------------------------------------------------------------------------
# per-layer metrics from finished spans
# ---------------------------------------------------------------------------

SENSITIVITY_KINDS = {
    "local": ("median", "median_tied", "max", "max2"),
    "smooth": ("median", "median_tied", "max", "max2"),
    "group": ("median", "median_tied", "max", "max2", "count", "hist"),
}
REGIMES = ("dp_global", "dp_smooth", "idp_local", "gdp")


def _p50(values, scale):
    return statistics.median(values) / scale if values else 0.0


def layer_metrics(spans) -> dict:
    """Reduce spans to the per-layer metrics, as {name: (value, unit)}.

    Times are medians over calls; a layer not exercised by the workload
    reports 0.
    """
    by_name: dict[str, list[int]] = {}
    for name, _dur, self_ns, *_ in spans:
        by_name.setdefault(name, []).append(self_ns)

    def us(name):
        return (_p50(by_name.get(name, []), 1e3), "us")

    def ms(name):
        return (_p50(by_name.get(name, []), 1e6), "ms")

    out = {
        "dataset.load_csv_ms": ms("dataset.load_csv"),
        "dataset.build_ms": ms("dataset.build"),
        "dataset.synthesize_us": us("dataset.synthesize"),
    }
    for group in ("order", "count", "hist"):
        out[f"queries.evaluate_us.{group}"] = us(f"queries.evaluate.{group}")
    for which, kinds in SENSITIVITY_KINDS.items():
        for kind in kinds:
            out[f"sensitivity.{which}_us.{kind}"] = us(f"sensitivity.{which}.{kind}")
    for name in ("laplace", "dlaplace", "admissible", "vector"):
        out[f"noise.{name}_us"] = us(f"noise.{name}")
    out["curator.answer_self_us"] = us("curator.answer")
    out["curator.calibrate_self_us"] = us("curator.calibrate")

    charges = [s for s in spans if s[0] == "curator.charge"]
    charges.sort(key=lambda s: s[3])
    tenth = max(1, len(charges) // 10)
    first = [s[2] for s in charges[:tenth]]
    last = [s[2] for s in charges[-tenth:]]
    out["curator.charge_us"] = (_p50([s[2] for s in charges], 1e3), "us")
    out["curator.charge_us_end"] = (_p50(last, 1e3), "us")
    out["curator.charge_growth"] = (_p50(last, 1) / _p50(first, 1) if charges else 0.0, "x")
    out["curator.ledger_entries"] = (max((s[5]["entries"] for s in charges), default=0), "count")
    out["curator.charges_attempted"] = (len(charges), "count")
    out["curator.charges_accepted"] = (sum(1 for s in charges if s[5]["accepted"]), "count")

    saves = [s for s in spans if s[0] == "curator.save_session"]
    out["curator.save_session_ms"] = ms("curator.save_session")
    out["curator.load_session_ms"] = ms("curator.load_session")
    out["curator.session_bytes"] = (max((s[5].get("bytes", 0) for s in saves), default=0), "B")

    exact = {r: 0 for r in REGIMES}
    for s in spans:
        if s[0] == "curator.answer" and not s[5]["noise"]:
            exact[s[5]["regime"]] = exact.get(s[5]["regime"], 0) + 1
    for regime in REGIMES:
        out[f"curator.exact_releases.{regime}"] = (exact[regime], "count")

    out["bench.error_grid_self_ms"] = ms("bench.error_grid")
    out["cli.main_self_ms"] = ms("cli.main")
    return out
