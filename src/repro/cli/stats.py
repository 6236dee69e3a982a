"""``stats``: a telemetry registry snapshot, optionally rebuilt from
archived JSONL traces.
"""

from __future__ import annotations

import json
import sys


def cmd_stats(args) -> int:
    from repro.telemetry.registry import MetricsRegistry, get_registry
    from repro.telemetry.runio import import_run_jsonl
    from repro.telemetry.summary import record_run

    if args.traces:
        registry = MetricsRegistry(enabled=True)
        for path in args.traces:
            try:
                run = import_run_jsonl(path)
            except Exception as exc:  # noqa: BLE001 - CLI boundary
                print(f"error: cannot read trace {path}: {exc}", file=sys.stderr)
                return 2
            record_run(run, registry)
    else:
        # No traces: expose whatever the in-process default registry
        # holds (usually empty unless the host process enabled telemetry).
        registry = get_registry()
    if args.format == "prom":
        sys.stdout.write(registry.render_prometheus())
    else:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    return 0



def register(sub) -> None:
    """Add ``stats`` to the top-level subparsers."""
    stats_parser = sub.add_parser(
        "stats",
        help=(
            "print a telemetry registry snapshot, optionally rebuilt "
            "from archived JSONL traces"
        ),
    )
    stats_parser.add_argument(
        "traces",
        nargs="*",
        help="JSONL traces written by run-commit --trace-out",
    )
    stats_parser.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="snapshot format: JSON (default) or Prometheus text",
    )
    stats_parser.set_defaults(fn=cmd_stats)

