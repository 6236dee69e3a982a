"""Span-trace serialization: JSONL round-trip and Chrome export."""

import json

import pytest

from repro.errors import AnalysisError
from repro.faults.campaign import TrialCase, execute_trial_case
from repro.faults.plan import CrashFault, FaultPlan
from repro.trace.export import (
    SPAN_TRACE_SCHEMA,
    SPAN_TRACE_VERSION,
    read_span_trace,
    recorder_to_records,
    summarize_trace,
    to_chrome_trace,
    trace_from_records,
    write_chrome_trace,
    write_span_trace,
)
from repro.trace.spans import SpanRecorder, node_track, use_recorder


def _sample_recorder() -> SpanRecorder:
    rec = SpanRecorder()
    trial = rec.begin_span(
        "sim-run", kind="trial", track="sim", start=0, n=3
    )
    rec.begin_span(
        "round-1", kind="round", track="sim", start=0, parent=trial, round=1
    )
    rec.send(track="sim", key=(1, 0), time=0, sender=0, recipient=1)
    rec.deliver(track="sim", key=(1, 0), time=2, sender=0, recipient=1)
    rec.point("decide", track="sim", time=3, pid=1, decision=1)
    rec.end_span(2, 4)
    rec.end_span(trial, 5)
    return rec


class TestJsonlRoundTrip:
    def test_records_round_trip(self):
        rec = _sample_recorder()
        records = recorder_to_records(rec)
        assert records[0] == {
            "record": "header",
            "schema": SPAN_TRACE_SCHEMA,
            "version": SPAN_TRACE_VERSION,
        }
        assert records[-1]["record"] == "final"
        trace = trace_from_records(records)
        assert len(trace.spans) == 2
        assert len(trace.events) == 3
        assert len(trace.edges) == 1
        assert not trace.empty
        # Parsed records serialize back identically.
        assert trace.spans[0].attrs == {"n": 3}
        assert trace.edges[0].kind == "message"

    def test_file_round_trip(self, tmp_path):
        rec = _sample_recorder()
        path = write_span_trace(rec, tmp_path / "trace.jsonl")
        trace = read_span_trace(path)
        assert summarize_trace(trace)["spans"] == 2

    def test_empty_recorder_parses_as_empty(self):
        trace = trace_from_records(recorder_to_records(SpanRecorder()))
        assert trace.empty

    def test_truncated_document_rejected(self):
        records = recorder_to_records(_sample_recorder())[:-1]
        with pytest.raises(AnalysisError, match="truncated"):
            trace_from_records(records)

    def test_count_mismatch_rejected(self):
        records = recorder_to_records(_sample_recorder())
        records[-1]["spans"] += 1
        with pytest.raises(AnalysisError, match="counts mismatch"):
            trace_from_records(records)

    def test_unknown_record_type_rejected(self):
        records = recorder_to_records(_sample_recorder())
        records.insert(1, {"record": "mystery"})
        with pytest.raises(AnalysisError, match="unknown record"):
            trace_from_records(records)

    def test_malformed_record_rejected(self):
        records = recorder_to_records(_sample_recorder())
        del records[1]["name"]
        with pytest.raises(AnalysisError, match="malformed"):
            trace_from_records(records)


class TestChromeExport:
    def test_event_structure(self):
        trace = trace_from_records(recorder_to_records(_sample_recorder()))
        doc = to_chrome_trace(trace)
        by_phase = {}
        for event in doc["traceEvents"]:
            by_phase.setdefault(event["ph"], []).append(event)
        assert len(by_phase["M"]) == 1  # one track -> one process name
        assert len(by_phase["X"]) == 2  # spans
        assert len(by_phase["i"]) == 3  # points
        assert len(by_phase["s"]) == 1  # flow start per edge
        assert len(by_phase["f"]) == 1  # flow finish per edge
        assert by_phase["s"][0]["id"] == by_phase["f"][0]["id"]
        assert doc["otherData"]["schema"] == SPAN_TRACE_SCHEMA

    def test_service_node_seconds_scale_to_microseconds(self):
        rec = SpanRecorder()
        span = rec.begin_span(
            "recover p2", kind="recovery", track=node_track(2), start=1.5
        )
        rec.end_span(span, 2.5)
        trace = trace_from_records(recorder_to_records(rec))
        (complete,) = [
            e for e in to_chrome_trace(trace)["traceEvents"]
            if e["ph"] == "X"
        ]
        assert complete["ts"] == pytest.approx(1_500_000.0)
        assert complete["dur"] == pytest.approx(1_000_000.0)

    def test_traced_kill_recover_trial_exports_its_recovery_in_microseconds(
        self,
    ):
        # p1 restarts at cycle 12 of a 2 ms tick: 0.024 s on its track.
        case = TrialCase(
            n=5,
            t=2,
            K=4,
            votes=(1, 1, 1, 1, 1),
            plan=FaultPlan(
                n=5, crashes=(CrashFault(pid=1, cycle=4, recover_cycle=12),)
            ),
            seed=0,
            tracks=("service",),
        )
        rec = SpanRecorder()
        with use_recorder(rec):
            execute_trial_case(case)
        trace = trace_from_records(recorder_to_records(rec))
        (recovery,) = [
            e for e in to_chrome_trace(trace)["traceEvents"]
            if e["name"] == "recover p1"
        ]
        assert recovery["ts"] == pytest.approx(24_000.0)

    def test_written_file_is_valid_json(self, tmp_path):
        trace = trace_from_records(recorder_to_records(_sample_recorder()))
        path = write_chrome_trace(trace, tmp_path / "trace.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert "traceEvents" in doc


class TestSummarize:
    def test_summary_fields(self):
        trace = trace_from_records(recorder_to_records(_sample_recorder()))
        summary = summarize_trace(trace)
        assert summary["tracks"] == ["sim"]
        assert summary["spans_by_kind"] == {"sim/round": 1, "sim/trial": 1}
        assert summary["events_by_name"] == {
            "decide": 1,
            "deliver": 1,
            "send": 1,
        }
        assert summary["trials"] == 1
