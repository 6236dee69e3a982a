"""What the command modules share: argument parsers for votes and pids,
the ``--trace-spans`` / ``--serve-metrics`` plumbing, and the
``--sim-core`` / ``--model`` options with their process-wide installers.
"""

from __future__ import annotations

import argparse
import sys


def _parse_votes(text: str) -> list[int]:
    try:
        votes = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"votes must be comma-separated bits, got {text!r}"
        ) from None
    if not votes or any(v not in (0, 1) for v in votes):
        raise argparse.ArgumentTypeError(
            f"votes must be comma-separated bits, got {text!r}"
        )
    return votes


def _parse_pids(text: str) -> list[int]:
    if not text:
        return []
    return [int(v) for v in text.split(",")]


# -- observability plumbing (--trace-spans / --serve-metrics) ----------------


def _start_metrics_server(args):
    """Start the background /metrics endpoint when requested."""
    port = getattr(args, "serve_metrics", None)
    if port is None:
        return None
    from repro.telemetry.registry import enable_telemetry
    from repro.telemetry.server import MetricsServer

    enable_telemetry()
    server = MetricsServer(port=port).start()
    print(
        f"serving metrics on {server.url}/metrics "
        f"(health: {server.url}/healthz)",
        file=sys.stderr,
    )
    return server


def _start_tracing(args):
    """Install a span recorder when --trace-spans was requested."""
    if not getattr(args, "trace_spans", None):
        return None
    from repro.trace.spans import enable_tracing

    return enable_tracing()


def _finish_tracing(recorder, args) -> None:
    """Uninstall the recorder and write the span-trace file."""
    if recorder is None:
        return
    from repro.trace.export import write_span_trace
    from repro.trace.spans import disable_tracing

    disable_tracing()
    path = write_span_trace(recorder, args.trace_spans)
    if not getattr(args, "json", False):
        counts = recorder.counts()
        print(
            f"span trace written to {path} "
            f"({counts['spans']} spans, {counts['events']} events, "
            f"{counts['edges']} edges)"
        )


def _with_observability(args, body) -> int:
    """Run a command body under the requested tracing/metrics plumbing.

    The span trace is written (and the metrics server stopped) even when
    the body raises, so partial traces of failed runs survive.
    """
    server = _start_metrics_server(args)
    recorder = _start_tracing(args)
    try:
        return body()
    finally:
        _finish_tracing(recorder, args)
        if server is not None:
            server.stop()


def _add_observability_args(parser) -> None:
    parser.add_argument(
        "--trace-spans",
        default=None,
        metavar="PATH",
        help=(
            "record a causal span trace (repro.span-trace JSONL) of "
            "this run; analyze with the trace subcommands"
        ),
    )
    parser.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "serve live /metrics (Prometheus text) and /healthz on "
            "this port for the duration of the command (0 picks a "
            "free port; implies telemetry)"
        ),
    )


def _install_sim_core(core: str | None) -> None:
    """Install ``--sim-core`` process-wide (the engine ships the resolved
    core to its workers with every chunk)."""
    if core is not None:
        from repro.sim.coreselect import set_default_sim_core

        set_default_sim_core(core)


def _add_sim_core_arg(parser) -> None:
    from repro.sim.coreselect import CORE_NAMES

    parser.add_argument(
        "--sim-core",
        choices=CORE_NAMES,
        default=None,
        dest="sim_core",
        help=(
            "simulation execution core: reference (default) or fast "
            "(byte-identical results, slimmed hot path; engine workers "
            "run the same core)"
        ),
    )


def _install_timing_model(name: str | None) -> None:
    """Install ``--model`` process-wide (the engine ships the resolved
    model to its workers with every chunk)."""
    if name is not None:
        from repro.models import set_default_timing_model

        set_default_timing_model(name)


def _add_model_arg(parser) -> None:
    parser.add_argument(
        "--model",
        default=None,
        metavar="NAME",
        help=(
            "timing model from the zoo (see: repro models list); "
            "default realistic, the paper's model"
        ),
    )

