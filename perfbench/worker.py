"""One workload in a fresh interpreter: set up, then measure (or stop after set-up).

Usage, from the root of a privcurator checkout with PYTHONPATH=src:
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``READY`` once set-up is done, ``# ...`` information lines, and as its
last line a JSON object with the run's counts and metrics. perfbench/run.py
drives it; the set-up time is measured there, from spawn to ``READY``.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

import numpy as np

import privcurator
import spans
import workloads

OUT_DIR = Path("perfbench") / "out"


def provenance() -> dict:
    """Where the package came from and what it ran on; exits if not from ./src."""
    src = Path("src").resolve()
    origin = Path(privcurator.__file__).resolve()
    if not origin.is_relative_to(src):
        sys.exit(f"privcurator was imported from {origin}, not from this checkout's {src}")
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "privcurator": str(origin.relative_to(Path.cwd().resolve())),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def end_to_end(workload: str, out, tail_pct: float, child_rss: bool) -> dict:
    lat_ms = np.asarray(out.latencies_ns, dtype=np.float64) / 1e6
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if child_rss else resource.RUSAGE_SELF)
    tail = float(np.percentile(lat_ms, tail_pct))
    print(f"# {workload}: {lat_ms.size} requests, release_ms_tail is p{tail_pct:g} with "
          f"{np.count_nonzero(lat_ms > tail)} samples beyond it; {out.releases} releases "
          f"in {out.seconds:.3f} s; p90/p99/max "
          + "/".join(f"{x:.3f}" for x in np.percentile(lat_ms, (90, 99, 100))) + " ms")
    return {
        "release_ms_p50": (float(np.median(lat_ms)), "ms"),
        "release_ms_tail": (tail, "ms"),
        "releases_per_s": (out.releases / out.seconds, "1/s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),  # ru_maxrss is in KiB on Linux
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    prov = provenance()
    setup, run = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        (workdir / "plain").mkdir(parents=True)
        state = setup(args.seed, str(workdir / "plain"))
        print("READY", flush=True)
        if args.setup_only:
            return 0
        print("# provenance " + json.dumps(prov))
        if not args.trace:
            out = run(state, args.seconds)
            metrics = end_to_end(args.workload, out, workloads.TAIL_PERCENTILE[args.workload],
                                 child_rss=args.workload == "cli")
            outcomes = [out]
        else:
            metrics, outcomes = traced(args, setup, run, state, workdir, prov)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for out in outcomes:
        for note in out.notes:
            print(f"# {args.workload}: {note}")
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced(args, setup, run, state, workdir, prov):
    """Half the window untraced, then half traced after a fresh set-up; per-layer metrics."""
    half = args.seconds / 2.0
    plain = run(state, half)

    (workdir / "traced").mkdir()
    state = setup(args.seed, str(workdir / "traced"))
    child_spans = workdir / "spans"
    child_spans.mkdir()
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        if args.workload == "cli":
            script = str(Path(__file__).parent / "cli_traced.py")
            out = run(state, half, launcher=lambda argv, i: [
                sys.executable, script, str(child_spans / f"{i}.json"), *argv])
        else:
            out = run(state, half)
    finally:
        restore()
    for path in sorted(child_spans.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            tracer.spans.extend((*s[:4], f"{path.stem}.{s[4]}", s[5]) for s in json.load(fh))

    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.overhead_releases_per_s"] = (
        out.releases / out.seconds - plain.releases / plain.seconds, "1/s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "provenance": prov,
                   "columns": ["name", "dur_ns", "self_ns", "end_ns", "request", "info"],
                   "spans": tracer.spans}, fh)
    print(f"# traced: {len(tracer.spans)} spans; releases/s untraced "
          f"{plain.releases / plain.seconds:.1f}, traced {out.releases / out.seconds:.1f}; "
          f"charge time grew x{metrics['curator.charge_growth'][0]:.2f} "
          f"up to {metrics['curator.ledger_entries'][0]} ledger entries")
    return metrics, [plain, out]


if __name__ == "__main__":
    raise SystemExit(main())
