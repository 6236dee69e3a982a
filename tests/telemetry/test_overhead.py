"""Observability must not perturb the simulation (zero overhead).

Guarantees pinned here:

* a run with telemetry enabled is *byte-identical* (as an exported JSONL
  trace) to the same seeded run with telemetry disabled — instrumentation
  only observes, it never changes scheduling, randomness, or payloads;
* the same holds for span tracing (:mod:`repro.trace`): recording spans
  of a run leaves the exported run trace byte-identical, because spans
  are derived post-hoc from the completed run;
* a run with telemetry disabled leaves the default registry untouched —
  no metric families are created, nothing is counted;
* a run with tracing disabled records nothing (the default recorder
  slot stays empty).
"""

from repro.analysis.metrics import metrics_from_run
from repro.core.api import run_commit
from repro.telemetry import registry as telemetry
from repro.telemetry.runio import export_run_jsonl
from repro.trace import spans as trace_spans


def _trace_bytes(tmp_path, label: str) -> bytes:
    outcome = run_commit([1, 1, 0, 1, 1], K=4, seed=7, max_steps=50_000)
    metrics = metrics_from_run(outcome.run, programs=outcome.programs)
    assert metrics.consistent
    path = export_run_jsonl(outcome.run, tmp_path / f"{label}.jsonl")
    return path.read_bytes()


class TestDisabledTelemetry:
    def test_trace_byte_identical_with_and_without_telemetry(self, tmp_path):
        assert not telemetry.enabled()
        baseline = _trace_bytes(tmp_path, "disabled")
        telemetry.enable_telemetry()
        instrumented = _trace_bytes(tmp_path, "enabled")
        assert instrumented == baseline

    def test_disabled_run_leaves_registry_untouched(self, tmp_path):
        registry = telemetry.get_registry()
        assert not registry.enabled
        outcome = run_commit([1, 1, 1], K=4, seed=1)
        metrics_from_run(outcome.run, programs=outcome.programs)
        metrics_from_run(outcome.run)
        export_run_jsonl(outcome.run, tmp_path / "t.jsonl")
        assert registry.metrics() == {}

    def test_trace_byte_identical_with_and_without_span_tracing(
        self, tmp_path
    ):
        assert not trace_spans.tracing_enabled()
        baseline = _trace_bytes(tmp_path, "untraced")
        recorder = trace_spans.enable_tracing()
        try:
            traced = _trace_bytes(tmp_path, "traced")
        finally:
            trace_spans.disable_tracing()
        assert traced == baseline
        # The recorder did observe the run — it just never fed back in.
        counts = recorder.counts()
        assert counts["spans"] > 0
        assert counts["events"] > 0
        assert counts["edges"] > 0

    def test_disabled_tracing_records_nothing(self, tmp_path):
        assert trace_spans.active_recorder() is None
        _trace_bytes(tmp_path, "no-recorder")
        assert trace_spans.active_recorder() is None

    def test_enabled_run_populates_registry(self):
        registry = telemetry.enable_telemetry()
        outcome = run_commit([1, 1, 1], K=4, seed=1)
        metrics_from_run(outcome.run, programs=outcome.programs)
        families = registry.metrics()
        assert "sim_events_total" in families
        assert "sim_payloads_sent_total" in families
        assert "agreement_stage_transitions_total" in families
        assert "commit_decisions_total" in families
        assert "analysis_runs_total" in families
        assert families["sim_events_total"].value(kind="step") > 0
        assert (
            families["commit_decisions_total"].value(decision="commit")
            == 3
        )
