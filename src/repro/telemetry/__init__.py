"""Telemetry: metrics registry, debug logging, and run archival.

Three layers, all optional and all off by default:

* :mod:`repro.telemetry.registry` — counters, gauges, and histograms
  with labels, a process-wide default registry, and Prometheus-style
  text exposition.  Instrumentation threaded through the scheduler, the
  protocol programs, and the commit service records per-phase counters
  (messages by payload kind, stage transitions, coin-source usage,
  timeouts, wall-clock per scheduler step batch) whenever the default
  registry is enabled, at near-zero cost when it is not;
* :mod:`repro.telemetry.log` — the ``repro`` :mod:`logging` channel
  (``--log-level`` on the CLI);
* :mod:`repro.telemetry.server` — a stdlib background HTTP server
  exposing the default registry at ``/metrics`` (Prometheus text) and
  ``/healthz``, wired to ``--serve-metrics PORT`` on long-running CLI
  commands;
* :mod:`repro.telemetry.runio` / :mod:`repro.telemetry.summary` —
  schema-versioned JSONL export/import of full runs and the per-phase
  counter bundles and ``--json`` documents derived from them.

See ``docs/OBSERVABILITY.md`` for the event schema and CLI examples.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "log": ("LOG_LEVELS", "configure_logging", "get_logger"),
        "registry": (
            "COUNT_BUCKETS",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "active_registry",
            "count",
            "disable_telemetry",
            "enable_telemetry",
            "enabled",
            "get_registry",
            "observe",
            "set_gauge",
            "set_registry",
            "use_registry",
        ),
        "server": ("MetricsServer", "serving_metrics"),
    },
)

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "MetricsRegistry",
    "MetricsServer",
    "active_registry",
    "configure_logging",
    "count",
    "disable_telemetry",
    "enable_telemetry",
    "enabled",
    "get_logger",
    "get_registry",
    "observe",
    "set_gauge",
    "set_registry",
    "serving_metrics",
    "use_registry",
]
