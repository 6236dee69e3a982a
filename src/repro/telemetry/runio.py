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
  payloads encoded by kind through the payload codec below;
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
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import AnalysisError
from repro.sim.message import Envelope, MessageId, Payload, RawPayload
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
        raise AnalysisError(f"empty document: no {schema} header record")
    header = records[0]
    if header.get("record") != "header" or header.get("schema") != schema:
        raise AnalysisError(f"not a {schema} header: {header!r}")
    if header.get("version") != version:
        raise AnalysisError(
            f"unsupported {schema} version {header.get('version')!r} "
            f"(expected {version})"
        )
    return header

# -- payload codec -----------------------------------------------------------

_PAYLOAD_TYPES: dict[str, type[Payload]] = {}


def register_payload_type(cls: type[Payload]) -> type[Payload]:
    """Register a payload dataclass for (de)serialization by class name."""
    _PAYLOAD_TYPES[cls.__name__] = cls
    return cls


def _ensure_builtin_payloads() -> None:
    """Register every payload type shipped with the library.

    Imported lazily so this module stays importable without dragging the
    protocol layers in at interpreter start.
    """
    if _PAYLOAD_TYPES:
        return
    import repro.core.coin_providers  # noqa: F401  (defines CoinShare)
    import repro.core.messages  # noqa: F401
    import repro.protocols.messages  # noqa: F401

    pending = list(Payload.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if dataclasses.is_dataclass(cls):
            _PAYLOAD_TYPES.setdefault(cls.__name__, cls)
    _PAYLOAD_TYPES.setdefault(RawPayload.__name__, RawPayload)


def payload_to_dict(payload: Payload) -> dict[str, Any]:
    """Encode one payload as ``{"kind": <class name>, ...fields}``."""
    if not dataclasses.is_dataclass(payload):
        raise AnalysisError(
            f"cannot serialize non-dataclass payload {payload!r}"
        )
    doc: dict[str, Any] = {"kind": type(payload).__name__}
    for field in dataclasses.fields(payload):
        value = getattr(payload, field.name)
        doc[field.name] = list(value) if isinstance(value, tuple) else value
    return doc


def payload_from_dict(doc: dict[str, Any]) -> Payload:
    """Decode one payload; inverse of :func:`payload_to_dict`.

    Raises:
        AnalysisError: for unknown payload kinds.
    """
    _ensure_builtin_payloads()
    kind = doc.get("kind")
    cls = _PAYLOAD_TYPES.get(kind)
    if cls is None:
        raise AnalysisError(
            f"unknown payload kind {kind!r}; register it with "
            f"repro.telemetry.runio.register_payload_type"
        )
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in doc.items()
        if key != "kind"
    }
    return cls(**kwargs)


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
        records.append(
            {
                "record": "event",
                "index": event.index,
                "kind": event.kind,
                "actor": event.actor,
                "clock_after": event.clock_after,
                "delivered": list(event.delivered),
                "sent": list(event.sent),
                "decision_after": event.decision_after,
                "halted_after": event.halted_after,
            }
        )
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
                "payloads": [payload_to_dict(p) for p in envelope.payloads],
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
    iterator: Iterator[dict[str, Any]] = iter(records)
    try:
        header = next(iterator)
    except StopIteration:
        raise AnalysisError("empty trace: no header record") from None
    if header.get("record") != "header" or header.get("schema") != TRACE_SCHEMA:
        raise AnalysisError(f"not a {TRACE_SCHEMA} header: {header!r}")
    if header.get("version") != TRACE_VERSION:
        raise AnalysisError(
            f"unsupported trace version {header.get('version')!r} "
            f"(expected {TRACE_VERSION})"
        )
    run = Run(n=header["n"], t=header["t"], K=header["K"])
    saw_final = False
    for number, record in enumerate(iterator, start=2):
        kind = record.get("record")
        try:
            if kind == "event":
                run.events.append(
                    TraceEvent(
                        index=record["index"],
                        kind=record["kind"],
                        actor=record["actor"],
                        clock_after=record["clock_after"],
                        delivered=tuple(
                            MessageId(m) for m in record["delivered"]
                        ),
                        sent=tuple(MessageId(m) for m in record["sent"]),
                        decision_after=record["decision_after"],
                        halted_after=record["halted_after"],
                    )
                )
            elif kind == "envelope":
                message_id = MessageId(record["id"])
                run.envelopes[message_id] = Envelope(
                    message_id=message_id,
                    sender=record["sender"],
                    recipient=record["recipient"],
                    payloads=tuple(
                        payload_from_dict(p) for p in record["payloads"]
                    ),
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
