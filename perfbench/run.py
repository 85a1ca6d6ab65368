"""Release benchmark for privcurator: one workload, one run, one JSON result line.

Usage, from the root of a privcurator checkout (the package is taken from ./src):
    python3 perfbench/run.py --workload {large_data,long_session,error_grid,cli}
                             --seed N --seconds S --trace {0,1}

With --trace 0 the last line of standard output holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a traced run (spans are also
written to perfbench/out/spans-<workload>.json). The exit code is 0 only when
every output check passed. perfbench/NOTES.md explains the workloads and
which per-layer metric should move which end-to-end metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("large_data", "long_session", "error_grid", "cli")
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
PROBE_SAMPLES = 5  # interpreter start-ups per traced run for the cli.* probes
TIME_LIMIT_S = 170.0  # the whole run, set-ups included
WORKER = str(Path(__file__).parent / "worker.py")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline: float, setup_only: bool) -> tuple[float, list[str], int]:
    """Start a worker; return (seconds from spawn to READY, its stdout lines, exit code)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env())
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if ready is None:
        code = code or 1
    return ready, lines, code


def probe_ms(code: str, report: bool) -> float:
    """Median over PROBE_SAMPLES fresh interpreters running `code`: of the time the
    snippet prints when `report`, else of the interpreter's whole wall time."""
    times = []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=_env(), timeout=60, check=True)
        times.append(float(out.stdout) if report else time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path("src/privcurator/__init__.py").is_file():
        print("error: run from the root of a privcurator checkout (src/privcurator is missing)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
        ready, lines, code = run_worker(args, deadline, setup_only=True)
        if code != 0:
            print("\n".join(lines), file=sys.stderr)
            print(f"error: set-up of {args.workload} failed (exit {code})", file=sys.stderr)
            return 1
        setups.append(ready)

    ready, lines, code = run_worker(args, deadline, setup_only=False)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or code != 0:
        print("\n".join(lines), file=sys.stderr)
        print(f"error: {args.workload} run failed (exit {code})", file=sys.stderr)
        return 1
    setups.append(ready)

    if args.trace:
        result["metrics"]["cli.python_ms"] = {"value": probe_ms("pass", report=False), "unit": "ms"}
        result["metrics"]["cli.import_ms"] = {"value": probe_ms(
            "import time; t = time.perf_counter(); import privcurator;"
            " print(time.perf_counter() - t)", report=True), "unit": "ms"}
    else:
        print(f"# setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
