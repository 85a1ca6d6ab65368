"""Command-line front end over the curator, sensitivity and benchmark APIs."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    ExperimentPlan,
    default_profile_grid,
    run_ci_table,
    run_error_grid,
    run_noise_profile,
    run_verification,
    write_csv,
)
from .curator import BudgetLedger, MechanismConfig, answer, load_session, save_session
from .dataset import DomainBounds, encode_bound, load_csv
from .errors import ConfigError, CuratorError
from .noise import RandomSource
from .queries import QuerySpec
from .sensitivity import build_report, group_local_sensitivity

# external spellings -> internal names
REGIMES = {"dp-global": "dp_global", "dp-smooth": "dp_smooth", "idp": "idp_local", "gdp": "gdp"}
NOISE = {"laplace": "laplace", "dlaplace": "discrete_laplace"}

BENCH_TABLES = ("ci-table", "error-grid", "noise-profile")


def _add_data_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", required=True, help="CSV file, one value per line")
    sub.add_argument("--query", required=True, help="median | max | max2 | count:LO:HI | hist:E1,E2,...")
    sub.add_argument("--lower", default="unbounded", help="domain lower bound or 'unbounded'")
    sub.add_argument("--upper", default="unbounded", help="domain upper bound or 'unbounded'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privcurator",
        description="Answer numerical queries under differential-privacy noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("answer", help="answer a query and charge the session budget")
    _add_data_args(p)
    p.add_argument("--regime", required=True, choices=sorted(REGIMES))
    p.add_argument("--epsilon", required=True, type=float)
    p.add_argument("--gamma", type=float, default=None,
                   help="tail exponent for dp-smooth (default 3)")
    p.add_argument("--group", type=int, default=None, help="group size for gdp")
    p.add_argument("--noise", choices=sorted(NOISE), default=None,
                   help="noise family (default laplace)")
    p.add_argument("--session", required=True, help="budget session file (JSON)")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--budget", type=float, default=1.0,
                   help="total budget when the session file does not exist yet")
    p.set_defaults(handler=_cmd_answer)

    p = sub.add_parser("sensitivity", help="print sensitivity figures for a dataset and query")
    _add_data_args(p)
    p.add_argument("--beta", type=float, default=1.0, help="smooth-sensitivity decay rate")
    p.add_argument("--group", type=int, default=None,
                   help="also report per-distance group sensitivities up to this size")
    p.set_defaults(handler=_cmd_sensitivity)

    p = sub.add_parser("bench", help="run benchmark tables or the verification battery")
    p.add_argument("table", nargs="?", choices=BENCH_TABLES)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--verify", action="store_true",
                   help="cross-check closed forms and ratio bounds against brute force")
    p.set_defaults(handler=_cmd_bench)

    return parser


def _load_inputs(args) -> tuple:
    bounds = DomainBounds.from_strings(args.lower, args.upper)
    return load_csv(args.data, bounds), QuerySpec.parse(args.query)


def _cmd_answer(args) -> int:
    d, q = _load_inputs(args)
    regime = REGIMES[args.regime]
    gamma = args.gamma
    if regime == "dp_smooth" and gamma is None:
        gamma = 3.0
    cfg = MechanismConfig(
        regime,
        args.epsilon,
        gamma=gamma,
        noise_family=NOISE[args.noise] if args.noise else None,
        group_size=args.group,
    )
    session = Path(args.session)
    ledger = load_session(session) if session.exists() else BudgetLedger(args.budget)
    spent = ledger.spent()
    try:
        out = answer(d, q, cfg, RandomSource(args.seed), ledger)
    finally:
        if ledger.spent() != spent:  # charged, even when the release was then refused
            save_session(ledger, session)
    print(json.dumps(out.to_json_dict(), indent=2))
    return 0


def _cmd_sensitivity(args) -> int:
    d, q = _load_inputs(args)
    payload = build_report(d, q, args.beta).to_json_dict()
    if args.group is not None:
        ladder = group_local_sensitivity(d, q, args.group)
        payload["group"] = [encode_bound(v) for v in ladder.per_distance]
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_bench(args) -> int:
    if args.verify:
        rows = run_verification()
        for row in rows:
            mark = "ok" if row["passed"] else "FAIL"
            print(f"[{mark}] {row['check']}: {row['detail']}")
        if args.out:
            write_csv(rows, args.out)
        return 0 if all(r["passed"] for r in rows) else 1

    if args.table is None:
        raise ConfigError("choose one of ci-table, error-grid, noise-profile, or pass --verify")
    if args.out is None:
        raise ConfigError("--out FILE.csv is required")

    if args.table == "ci-table":
        rows = run_ci_table(args.epsilon, args.sensitivity, args.trials or 1_000_000, args.seed)
    elif args.table == "error-grid":
        plan = ExperimentPlan(trials=args.trials or 1000, gamma=args.gamma, seed=args.seed)
        rows = run_error_grid(plan)
    else:
        rows = run_noise_profile(args.epsilon, args.sensitivity, default_profile_grid())
    write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CuratorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
