"""JSONL trace round-trip tests (satellite: every CLI adversary)."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.metrics import metrics_from_run
from repro.cli.run import ADVERSARY_CHOICES, build_adversary
from repro.core.api import run_commit
from repro.errors import AnalysisError
from repro.telemetry.runio import (
    TRACE_SCHEMA,
    TRACE_VERSION,
    export_run_jsonl,
    import_run_jsonl,
    run_from_records,
    run_to_records,
)
from repro.sim.message import Envelope, MessageId
from repro.sim.payloads import from_trace, to_trace
from repro.sim.trace import Run
from repro.telemetry.summary import run_counters

from tests.sim.test_payloads import payloads, refused


def _run_under(adversary_name: str):
    crashes = [3, 4] if adversary_name == "crash" else []
    adversary = build_adversary(adversary_name, K=4, seed=3, crashes=crashes)
    outcome = run_commit(
        [1, 1, 1, 1, 1], K=4, adversary=adversary, seed=3, max_steps=50_000
    )
    return outcome.run


class TestRoundTrip:
    @pytest.mark.parametrize("name", ADVERSARY_CHOICES)
    def test_metrics_identical_under_every_cli_adversary(self, name, tmp_path):
        run = _run_under(name)
        path = export_run_jsonl(run, tmp_path / f"{name}.jsonl")
        imported = import_run_jsonl(path)
        original = metrics_from_run(run, record=False)
        recovered = metrics_from_run(imported, record=False)
        assert recovered == original

    @pytest.mark.parametrize("name", ADVERSARY_CHOICES)
    def test_records_and_counters_identical(self, name, tmp_path):
        run = _run_under(name)
        path = export_run_jsonl(run, tmp_path / f"{name}.jsonl")
        imported = import_run_jsonl(path)
        # Re-exporting the imported run reproduces the records exactly,
        # and the per-phase counter bundle agrees too.
        assert run_to_records(imported) == run_to_records(run)
        assert run_counters(imported) == run_counters(run)

    def test_header_carries_schema_and_version(self, tmp_path):
        run = _run_under("synchronous")
        path = export_run_jsonl(run, tmp_path / "trace.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["record"] == "header"
        assert header["schema"] == TRACE_SCHEMA
        assert header["version"] == TRACE_VERSION


class TestPayloadCodec:
    def test_round_trip_every_payload_kind_in_a_run(self):
        run = _run_under("ontime")
        seen = set()
        for envelope in run.envelopes.values():
            for payload in envelope.payloads:
                seen.add(type(payload).__name__)
                assert from_trace(to_trace(payload)) == payload
        # the commit protocol exercises all four core message kinds
        assert {
            "GoMessage",
            "StageMessage",
            "VoteMessage",
            "DecidedMessage",
        } <= seen

    def test_unknown_kind_rejected(self):
        records = run_to_records(_run_under("ontime"))
        envelope = next(r for r in records if r["record"] == "envelope")
        envelope["payloads"] = [{"kind": "NoSuchPayload"}]
        with pytest.raises(AnalysisError, match="malformed trace record"):
            run_from_records(records)


def _one_envelope_run(sent):
    run = Run(n=2, t=0, K=1)
    run.envelopes[MessageId(0)] = Envelope(
        message_id=MessageId(0),
        sender=0,
        recipient=1,
        payloads=tuple(sent),
        send_event=0,
        send_clock=1,
    )
    return run


class TestEveryPayloadClass:
    """The run-trace reader and writer over every class in the payload
    table, not only those a commit run sends."""

    @given(st.lists(payloads(), min_size=1, max_size=4))
    def test_round_trip(self, sent):
        records = json.loads(json.dumps(run_to_records(_one_envelope_run(sent))))
        assert run_from_records(records).envelopes[0].payloads == tuple(sent)

    @given(st.lists(payloads(), min_size=1, max_size=4), st.data())
    def test_a_broken_payload_is_an_analysis_error(self, sent, data):
        records = run_to_records(_one_envelope_run(sent))
        slots = records[1]["payloads"]
        at = data.draw(st.integers(0, len(slots) - 1))
        slots[at] = data.draw(refused(slots[at], "kind"))
        with pytest.raises(AnalysisError, match="malformed trace record"):
            run_from_records(json.loads(json.dumps(records)))


class TestImportErrors:
    def test_empty_trace(self):
        with pytest.raises(AnalysisError, match="no header"):
            run_from_records([])

    def test_wrong_schema(self):
        with pytest.raises(AnalysisError, match="header"):
            run_from_records([{"record": "header", "schema": "other"}])

    def test_unsupported_version(self):
        with pytest.raises(AnalysisError, match="version"):
            run_from_records(
                [
                    {
                        "record": "header",
                        "schema": TRACE_SCHEMA,
                        "version": TRACE_VERSION + 1,
                    }
                ]
            )

    def test_truncated_trace(self, tmp_path):
        run = _run_under("synchronous")
        path = export_run_jsonl(run, tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(AnalysisError, match="no final record"):
            import_run_jsonl(truncated)

    def test_unknown_record_type(self):
        header = {
            "record": "header",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "n": 3,
            "t": 1,
            "K": 4,
        }
        with pytest.raises(AnalysisError, match="unknown record"):
            run_from_records([header, {"record": "mystery"}])

    def test_malformed_record(self):
        header = {
            "record": "header",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "n": 3,
            "t": 1,
            "K": 4,
        }
        with pytest.raises(AnalysisError, match="malformed"):
            run_from_records([header, {"record": "event"}])

    def test_header_without_dimensions(self):
        header = {
            "record": "header",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "n": 3,
            "t": 1,
        }
        with pytest.raises(AnalysisError, match="header without 'K'"):
            run_from_records([header])

    @pytest.mark.parametrize("record", [["event"], "final", 7, None])
    def test_record_that_is_no_object(self, record):
        header = {
            "record": "header",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "n": 3,
            "t": 1,
            "K": 4,
        }
        with pytest.raises(AnalysisError, match="no object"):
            run_from_records([header, record])
        with pytest.raises(AnalysisError, match="header"):
            run_from_records([record])

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"record": "header"\nnot json\n')
        with pytest.raises(AnalysisError, match="invalid JSON"):
            import_run_jsonl(path)
