"""``trace export | summarize | critical-path``: read a span trace
recorded with ``--trace-spans``.
"""

from __future__ import annotations

import json
import sys


def _load_span_trace(path: str):
    """Read a span trace for the trace subcommands.

    Returns ``(trace, records, exit_code)``; ``trace`` is ``None`` when
    the file is unreadable/invalid (exit 2) or empty (exit 4).
    """
    from repro.errors import AnalysisError
    from repro.telemetry.runio import read_jsonl_records
    from repro.trace.export import trace_from_records

    try:
        records = read_jsonl_records(path)
        trace = trace_from_records(records)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, 2
    if trace.empty:
        print(
            f"no spans recorded in {path}: the traced command produced "
            f"no spans or events",
            file=sys.stderr,
        )
        return None, None, 4
    return trace, records, 0


def cmd_trace_export(args) -> int:
    trace, records, code = _load_span_trace(args.trace)
    if trace is None:
        return code
    if args.format == "chrome":
        from repro.trace.export import write_chrome_trace

        path = write_chrome_trace(trace, args.out)
    else:
        from repro.telemetry.runio import write_jsonl_records

        path = write_jsonl_records(records, args.out)
    print(f"{args.format} trace written to {path}")
    return 0


def cmd_trace_summarize(args) -> int:
    trace, _records, code = _load_span_trace(args.trace)
    if trace is None:
        return code
    from repro.trace.export import summarize_trace

    summary = summarize_trace(trace)
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return 0
    print(
        f"span trace {args.trace}: {summary['spans']} spans, "
        f"{summary['events']} events, {summary['edges']} causal edges"
    )
    print(f"  tracks: {', '.join(summary['tracks'])}")
    for kind, count in summary["spans_by_kind"].items():
        print(f"  spans {kind}: {count}")
    for name, count in summary["events_by_name"].items():
        print(f"  events {name}: {count}")
    if summary["max_decision_round"] is not None:
        print(
            f"  trials: {summary['trials']} "
            f"(max decision round {summary['max_decision_round']})"
        )
    else:
        print(f"  trials: {summary['trials']}")
    return 0


def cmd_trace_critical_path(args) -> int:
    trace, records, code = _load_span_trace(args.trace)
    if trace is None:
        return code
    from repro.trace.critical_path import critical_paths_from_records

    paths = critical_paths_from_records(records)
    if args.json:
        print(
            json.dumps([path.to_dict() for path in paths], sort_keys=True)
        )
        return 0
    if not paths:
        print(
            "no decide events in the trace; nothing to attribute "
            "(was the traced run undecided?)"
        )
        return 0
    for path in paths:
        trial = f"trial {path.trial} " if path.trial is not None else ""
        gap = (
            f", timer gap {path.timer_gap}"
            if path.timer_gap is not None
            else ""
        )
        decision_round = (
            path.decision_round
            if path.decision_round is not None
            else "?"
        )
        print(
            f"{trial}[{path.track}] p{path.pid} decided "
            f"{path.decision!r}: chain of {path.length} hops, "
            f"round span {path.round_span}, "
            f"decision round {decision_round}{gap}"
        )
        if args.hops:
            for hop in path.hops:
                label = (
                    f"r{hop.round}" if hop.round is not None else "r?"
                )
                print(
                    f"    {label} m{hop.message} "
                    f"p{hop.sender} -> p{hop.recipient} "
                    f"(sent {hop.send_time}, delivered "
                    f"{hop.receive_time})"
                )
    round_spans = [p.round_span for p in paths]
    decision_rounds = [
        p.decision_round for p in paths if p.decision_round is not None
    ]
    if decision_rounds:
        print(
            f"run: max chain round span {max(round_spans)}, "
            f"max decision round {max(decision_rounds)}"
        )
    return 0



def register(sub) -> None:
    """Add ``trace`` to the top-level subparsers."""
    trace_parser = sub.add_parser(
        "trace",
        help="inspect span traces recorded with --trace-spans",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)

    export_parser = trace_sub.add_parser(
        "export",
        help=(
            "convert a span trace to Chrome trace-event JSON (Perfetto / "
            "chrome://tracing) or re-validated span-trace JSONL"
        ),
    )
    export_parser.add_argument("trace", help="span-trace JSONL (--trace-spans)")
    export_parser.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="output format (default: chrome)",
    )
    export_parser.add_argument(
        "--out", required=True, help="output path for the converted trace"
    )
    export_parser.set_defaults(fn=cmd_trace_export)

    summarize_parser = trace_sub.add_parser(
        "summarize",
        help="print record counts, span kinds, and event totals",
    )
    summarize_parser.add_argument(
        "trace", help="span-trace JSONL (--trace-spans)"
    )
    summarize_parser.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    summarize_parser.set_defaults(fn=cmd_trace_summarize)

    critical_parser = trace_sub.add_parser(
        "critical-path",
        help=(
            "extract the longest causal message chain ending at each "
            "decision and attribute the decision round to it"
        ),
    )
    critical_parser.add_argument(
        "trace", help="span-trace JSONL (--trace-spans)"
    )
    critical_parser.add_argument(
        "--hops",
        action="store_true",
        help="list every send→deliver hop along each chain",
    )
    critical_parser.add_argument(
        "--json", action="store_true", help="emit the paths as JSON"
    )
    critical_parser.set_defaults(fn=cmd_trace_critical_path)

