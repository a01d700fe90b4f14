"""``repro-stats`` — inspect and convert telemetry snapshots.

Subcommands:

- ``demo``: run a few ``db.vector_search`` calls over a small four-segment
  database with telemetry enabled and print the metrics table plus the
  last query's trace tree.
  This is the zero-setup way to see what the instruments look like.
- ``show SNAPSHOT.json``: render a saved JSON snapshot as the human table.
- ``prom SNAPSHOT.json``: convert a saved JSON snapshot to Prometheus text.
"""

from __future__ import annotations

import argparse
import sys

from .export import format_snapshot, from_json, to_json, to_prometheus
from .runtime import Telemetry, use_telemetry
from .tracing import format_span_tree

__all__ = ["main"]


def _read_snapshot(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from ..serve.cli import build_demo_db

    db = build_demo_db(num_vectors=512, dim=16, seed=args.seed, segment_size=128)
    rng = np.random.default_rng(args.seed + 1)
    queries = rng.standard_normal((args.queries, 16), dtype=np.float32)
    telemetry = Telemetry(slow_query_seconds=0.0)
    with use_telemetry(telemetry):
        for query in queries:
            db.vector_search(["Item.emb"], query, 10)
    db.close()
    snapshot = telemetry.registry.snapshot()
    if args.json:
        print(to_json(snapshot))
    else:
        print(format_snapshot(snapshot))
        trace = telemetry.last_trace()
        if trace is not None:
            print()
            print("last trace:")
            print(format_span_tree(trace, indent=1))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(format_snapshot(_read_snapshot(args.snapshot)))
    return 0


def _cmd_prom(args: argparse.Namespace) -> int:
    sys.stdout.write(to_prometheus(_read_snapshot(args.snapshot)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-stats", description="telemetry snapshot tooling"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a tiny instrumented workload")
    demo.add_argument("--queries", type=int, default=20)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--json", action="store_true", help="emit JSON snapshot")
    demo.set_defaults(func=_cmd_demo)

    show = sub.add_parser("show", help="render a JSON snapshot as a table")
    show.add_argument("snapshot")
    show.set_defaults(func=_cmd_show)

    prom = sub.add_parser("prom", help="convert a JSON snapshot to Prometheus text")
    prom.add_argument("snapshot")
    prom.set_defaults(func=_cmd_prom)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early; not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
