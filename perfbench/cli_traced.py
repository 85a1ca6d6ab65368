"""Traced stand-in for ``python -m privcurator.cli``, used by the cli workload's traced run.

Usage: python3 perfbench/cli_traced.py SPANS.json <privcurator cli arguments...>

Wraps the package's public functions with the span tracer, runs the CLI's
``main`` on the remaining arguments, and writes the finished spans to
SPANS.json. Exits with the CLI's own exit code.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import privcurator.cli

    tracer = Tracer()
    restore = tracer.install()
    try:
        code = privcurator.cli.main(argv)
    finally:
        restore()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
