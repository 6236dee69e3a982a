"""Causal span tracing across every executable track.

Where :mod:`repro.telemetry` answers "how much / how often" with
aggregate counters, this package answers "*why did this run take the
time it took*": it records **spans** (trial → round → phase), **point
events** (send, deliver, decide, crash, retransmit, violation), and
**causal edges** (send → deliver, carried on message ids) into a
:class:`~repro.trace.spans.SpanRecorder`, then analyzes and exports
them.

Four layers:

* :mod:`repro.trace.spans` — the span/event/edge model, the recorder,
  and the process-wide activation plumbing (``enable_tracing`` /
  ``disable_tracing`` / ``active_recorder``), mirroring the telemetry
  registry: **off by default**, one attribute read when disabled, and
  trace-neutral when enabled (simulator runs stay byte-identical —
  pinned by ``tests/telemetry/test_overhead.py``);
* :mod:`repro.trace.build` — derives the sim track's full span tree
  (trial span, asynchronous-round spans, per-processor phase spans,
  send→deliver edges, decide/crash points) post-hoc from a completed
  :class:`~repro.sim.trace.Run`, which is what the scheduler feeds the
  active recorder;
* :mod:`repro.trace.critical_path` — extracts the longest causal
  message chain ending at each decision and attributes the decision
  round to it (chain round span + timer gap);
* :mod:`repro.trace.export` — schema-versioned JSONL
  (``repro.span-trace`` v1) and Chrome trace-event JSON loadable in
  Perfetto / ``chrome://tracing``.

CLI: ``--trace-spans PATH`` on ``run-commit`` / ``faults campaign`` /
``mc explore`` records a run, and ``repro trace export | summarize |
critical-path`` consumes the file.  See ``docs/OBSERVABILITY.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "build": ("record_run",),
        "critical_path": (
            "CriticalPath",
            "Hop",
            "critical_path_from_run",
            "critical_paths_from_records",
        ),
        "export": (
            "CHROME_SCHEMA_NOTE",
            "SPAN_TRACE_SCHEMA",
            "SPAN_TRACE_VERSION",
            "SpanTrace",
            "read_span_trace",
            "recorder_to_records",
            "summarize_trace",
            "to_chrome_trace",
            "trace_from_records",
            "write_chrome_trace",
            "write_span_trace",
        ),
        "spans": (
            "CausalEdge",
            "PointEvent",
            "Span",
            "SpanRecorder",
            "active_recorder",
            "disable_tracing",
            "enable_tracing",
            "tracing_enabled",
            "use_recorder",
        ),
    },
)

__all__ = [
    "CHROME_SCHEMA_NOTE",
    "CausalEdge",
    "CriticalPath",
    "Hop",
    "PointEvent",
    "SPAN_TRACE_SCHEMA",
    "SPAN_TRACE_VERSION",
    "Span",
    "SpanRecorder",
    "SpanTrace",
    "active_recorder",
    "critical_path_from_run",
    "critical_paths_from_records",
    "disable_tracing",
    "enable_tracing",
    "read_span_trace",
    "record_run",
    "recorder_to_records",
    "summarize_trace",
    "to_chrome_trace",
    "trace_from_records",
    "tracing_enabled",
    "use_recorder",
    "write_chrome_trace",
    "write_span_trace",
]
