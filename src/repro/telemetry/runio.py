"""Structured JSONL export/import of recorded :class:`~repro.sim.trace.Run`s.

Where :mod:`repro.lowerbound.serialize` persists the *schedule* (enough to
re-execute a run given the same programs and tapes), this module persists
the *run itself* — every trace event and every envelope with its typed
payloads — so a run can be archived, shipped to another process, diffed,
and analyzed without re-executing the protocol.

Format: one JSON object per line.

* line 1 — header: ``{"record": "header", "schema": "repro.run-trace",
  "version": 1, "n": ..., "t": ..., "K": ...}``;
* one ``{"record": "event", ...}`` line per trace event, in order;
* one ``{"record": "envelope", ...}`` line per envelope, in send order,
  each payload in its run-trace form from the payload table
  (:mod:`repro.sim.payloads`: ``{"kind": <class name>, <field>: ...}``);
* last line — footer: ``{"record": "final", ...}`` with statuses,
  decisions, decision clocks, and program outputs.

The archive holds the :class:`~repro.sim.trace.Run`, not the flat
:class:`~repro.sim.trace.TrialRecord` the trial's analyses read: a
re-import must give back the per-event rows, statuses and outputs too,
and its record (``run.trial_record()``) is then derived as for a live
run.

The schema is versioned; the importer rejects unknown versions rather
than guessing.  Round-trip fidelity is pinned by
``tests/telemetry/test_runio.py``: metrics extracted from an imported run
are identical to those of the original under every CLI adversary.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import AnalysisError
from repro.sim.message import Envelope, MessageId
from repro.sim.payloads import from_trace, to_trace
from repro.sim.trace import Run, TraceEvent
from repro.types import Decision, ProcessStatus, Vote

#: Schema identifier carried in every header record.
TRACE_SCHEMA = "repro.run-trace"

#: Format version; bump on breaking changes.
TRACE_VERSION = 1


# -- generic JSONL documents -------------------------------------------------
#
# Every schema-versioned artifact in the repo (run traces here, replay
# artifacts in :mod:`repro.counterexample`) shares one wire shape: a
# JSONL file whose first record is a ``{"record": "header", "schema":
# ..., "version": ...}`` line.  These helpers centralise the
# deterministic writer (sorted keys, one record per line) and the
# strict reader (line-numbered errors, header/schema/version checks).


def write_jsonl_records(
    records: Iterable[dict[str, Any]], path: str | Path
) -> Path:
    """Write records as deterministic JSON Lines (sorted keys)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return target


def read_jsonl_records(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL file back into its records.

    Raises:
        AnalysisError: on unreadable files or invalid JSON, with the
            offending line number.
    """
    source = Path(path)
    records: list[dict[str, Any]] = []
    try:
        handle = source.open("r", encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {source}: {exc}") from exc
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise AnalysisError(
                    f"{source}:{line_number}: invalid JSON: {exc}"
                ) from exc
    return records


def check_header(
    records: Sequence[dict[str, Any]], schema: str, version: int
) -> dict[str, Any]:
    """Validate and return the header record of a JSONL document.

    Raises:
        AnalysisError: when the document is empty, the first record is
            not a header of ``schema``, or the version differs.
    """
    if not records:
        raise AnalysisError(f"empty document: no header record ({schema})")
    header = records[0]
    if header.get("record") != "header" or header.get("schema") != schema:
        raise AnalysisError(f"not a {schema} header: {header!r}")
    if header.get("version") != version:
        raise AnalysisError(
            f"unsupported {schema} version {header.get('version')!r} "
            f"(expected {version})"
        )
    return header


# -- output / enum codec -----------------------------------------------------

_ENUM_TYPES = {"Decision": Decision, "Vote": Vote}


def _encode_output(value: object) -> Any:
    if isinstance(value, (Decision, Vote)):
        return {"__enum__": type(value).__name__, "value": int(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"__repr__": repr(value)}


def _decode_output(value: Any) -> object:
    if isinstance(value, dict):
        if "__enum__" in value:
            return _ENUM_TYPES[value["__enum__"]](value["value"])
        if "__repr__" in value:
            return value["__repr__"]
    return value


# -- export ------------------------------------------------------------------

#: An event record holds every :class:`TraceEvent` field under its own
#: name, tuples as lists.
_EVENT_FIELDS = tuple(field.name for field in dataclasses.fields(TraceEvent))


def run_to_records(run: Run) -> list[dict[str, Any]]:
    """Serialize a run to its list of JSONL records."""
    records: list[dict[str, Any]] = [
        {
            "record": "header",
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "n": run.n,
            "t": run.t,
            "K": run.K,
        }
    ]
    for event in run.events:
        record = {"record": "event"}
        for name in _EVENT_FIELDS:
            value = getattr(event, name)
            record[name] = list(value) if isinstance(value, tuple) else value
        records.append(record)
    for envelope in sorted(run.envelopes.values(), key=lambda e: e.message_id):
        records.append(
            {
                "record": "envelope",
                "id": int(envelope.message_id),
                "sender": envelope.sender,
                "recipient": envelope.recipient,
                "send_event": envelope.send_event,
                "send_clock": envelope.send_clock,
                "receive_event": envelope.receive_event,
                "guaranteed": envelope.guaranteed,
                "payloads": [to_trace(p) for p in envelope.payloads],
            }
        )
    records.append(
        {
            "record": "final",
            "statuses": {
                str(pid): status.name for pid, status in run.statuses.items()
            },
            "decisions": {
                str(pid): value for pid, value in run.decisions.items()
            },
            "decision_clocks": {
                str(pid): value for pid, value in run.decision_clocks.items()
            },
            "outputs": {
                str(pid): _encode_output(value)
                for pid, value in run.outputs.items()
            },
        }
    )
    return records


def export_run_jsonl(run: Run, path: str | Path) -> Path:
    """Write a run as JSON Lines; returns the path written."""
    return write_jsonl_records(run_to_records(run), path)


# -- import ------------------------------------------------------------------


def run_from_records(records: Iterable[dict[str, Any]]) -> Run:
    """Rebuild a :class:`Run` from its records; inverse of
    :func:`run_to_records`.

    Raises:
        AnalysisError: on a missing/invalid header, unknown schema
            version, or malformed records.
    """
    records = list(records)
    header = check_header(records, TRACE_SCHEMA, TRACE_VERSION)
    run = Run(n=header["n"], t=header["t"], K=header["K"])
    saw_final = False
    for number, record in enumerate(records[1:], start=2):
        kind = record.get("record")
        try:
            if kind == "event":
                values = (record[name] for name in _EVENT_FIELDS)
                run.events.append(
                    TraceEvent(
                        *(tuple(v) if isinstance(v, list) else v for v in values)
                    )
                )
            elif kind == "envelope":
                message_id = MessageId(record["id"])
                run.envelopes[message_id] = Envelope(
                    message_id=message_id,
                    sender=record["sender"],
                    recipient=record["recipient"],
                    payloads=tuple(from_trace(p) for p in record["payloads"]),
                    send_event=record["send_event"],
                    send_clock=record["send_clock"],
                    receive_event=record["receive_event"],
                    guaranteed=record["guaranteed"],
                )
            elif kind == "final":
                saw_final = True
                run.statuses = {
                    int(pid): ProcessStatus[name]
                    for pid, name in record["statuses"].items()
                }
                run.decisions = {
                    int(pid): value
                    for pid, value in record["decisions"].items()
                }
                run.decision_clocks = {
                    int(pid): value
                    for pid, value in record["decision_clocks"].items()
                }
                run.outputs = {
                    int(pid): _decode_output(value)
                    for pid, value in record["outputs"].items()
                }
            else:
                raise AnalysisError(f"unknown record type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalysisError(
                f"malformed trace record #{number}: {record!r}"
            ) from exc
    if not saw_final:
        raise AnalysisError("truncated trace: no final record")
    return run


def import_run_jsonl(path: str | Path) -> Run:
    """Read a run back from a JSONL file written by
    :func:`export_run_jsonl`."""
    return run_from_records(read_jsonl_records(path))
