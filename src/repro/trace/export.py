"""Span-trace serialization: JSONL (``repro.span-trace`` v1) and Chrome.

JSONL layout follows the repo's artifact idiom (header / body / final,
deterministic sorted-key writer, strict versioned reader — shared
helpers in :mod:`repro.telemetry.runio`):

* line 1 — ``{"record": "header", "schema": "repro.span-trace",
  "version": 1}``;
* one ``{"record": "span", ...}`` per span, in id order;
* one ``{"record": "event", ...}`` per point event, in id order;
* one ``{"record": "edge", ...}`` per causal edge, in record order;
* last line — ``{"record": "final", "spans": ..., "events": ...,
  "edges": ...}`` (counts double as a truncation check).

The Chrome exporter emits the trace-event JSON format understood by
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``: complete
(``"X"``) events for spans, instant (``"i"``) events for points, and
flow (``"s"``/``"f"``) pairs for causal edges.  Tracks map to
processes, span lanes (processor id when present) map to threads, and
timestamps are microseconds — logical time units (event indices, trial
indices) count 1 µs each, service node seconds are scaled by 1e6
(:func:`~repro.trace.spans.track_time_scale`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import AnalysisError
from repro.telemetry.runio import (
    check_header,
    read_jsonl_records,
    write_jsonl_records,
)
from repro.trace.spans import (
    CausalEdge,
    PointEvent,
    Span,
    SpanRecorder,
    track_time_scale,
)

#: Schema identifier carried in every span-trace header record.
SPAN_TRACE_SCHEMA = "repro.span-trace"

#: Format version; bump on breaking changes.
SPAN_TRACE_VERSION = 1

#: Note embedded in Chrome exports' ``otherData``.
CHROME_SCHEMA_NOTE = (
    "exported by repro.trace; logical time units (event/trial indices) "
    "are 1us each, service node seconds are scaled to us"
)


@dataclass
class SpanTrace:
    """A parsed span-trace document."""

    header: dict[str, Any]
    spans: list[Span] = field(default_factory=list)
    events: list[PointEvent] = field(default_factory=list)
    edges: list[CausalEdge] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """True when nothing was recorded (the CLI maps this to exit 4)."""
        return not self.spans and not self.events


# -- JSONL -------------------------------------------------------------------


def recorder_to_records(recorder: SpanRecorder) -> list[dict[str, Any]]:
    """Serialize a recorder's contents to span-trace records."""
    records: list[dict[str, Any]] = [
        {
            "record": "header",
            "schema": SPAN_TRACE_SCHEMA,
            "version": SPAN_TRACE_VERSION,
        }
    ]
    for span_id in sorted(recorder.spans):
        span = recorder.spans[span_id]
        records.append(
            {
                "record": "span",
                "id": span.id,
                "name": span.name,
                "kind": span.kind,
                "track": span.track,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "attrs": dict(span.attrs),
            }
        )
    for event in recorder.events:
        records.append(
            {
                "record": "event",
                "id": event.id,
                "name": event.name,
                "track": event.track,
                "time": event.time,
                "span": event.span,
                "attrs": dict(event.attrs),
            }
        )
    for edge in recorder.edges:
        records.append(
            {"record": "edge", "src": edge.src, "dst": edge.dst,
             "kind": edge.kind}
        )
    counts = recorder.counts()
    records.append({"record": "final", **counts})
    return records


def trace_from_records(records: Sequence[dict[str, Any]]) -> SpanTrace:
    """Parse span-trace records back into a :class:`SpanTrace`.

    Raises:
        AnalysisError: on a missing/invalid header, unsupported version,
            malformed records, or a truncated document (missing final).
    """
    header = check_header(records, SPAN_TRACE_SCHEMA, SPAN_TRACE_VERSION)
    trace = SpanTrace(header=header)
    saw_final = False
    for number, record in enumerate(records[1:], start=2):
        kind = record.get("record")
        try:
            if kind == "span":
                trace.spans.append(
                    Span(
                        id=record["id"],
                        name=record["name"],
                        kind=record["kind"],
                        track=record["track"],
                        start=record["start"],
                        end=record["end"],
                        parent=record["parent"],
                        attrs=dict(record.get("attrs", {})),
                    )
                )
            elif kind == "event":
                trace.events.append(
                    PointEvent(
                        id=record["id"],
                        name=record["name"],
                        track=record["track"],
                        time=record["time"],
                        span=record["span"],
                        attrs=dict(record.get("attrs", {})),
                    )
                )
            elif kind == "edge":
                trace.edges.append(
                    CausalEdge(
                        src=record["src"],
                        dst=record["dst"],
                        kind=record.get("kind", "message"),
                    )
                )
            elif kind == "final":
                saw_final = True
                if record.get("spans") != len(trace.spans) or record.get(
                    "events"
                ) != len(trace.events):
                    raise AnalysisError(
                        f"span-trace counts mismatch: final says "
                        f"{record.get('spans')} spans/"
                        f"{record.get('events')} events, document has "
                        f"{len(trace.spans)}/{len(trace.events)}"
                    )
            else:
                raise AnalysisError(f"unknown record type {kind!r}")
        except (KeyError, TypeError) as exc:
            raise AnalysisError(
                f"malformed span-trace record #{number}: {record!r}"
            ) from exc
    if not saw_final:
        raise AnalysisError("truncated span trace: no final record")
    return trace


def write_span_trace(
    recorder: SpanRecorder, path: str | Path
) -> Path:
    """Write a recorder's contents as span-trace JSONL."""
    return write_jsonl_records(recorder_to_records(recorder), path)


def read_span_trace(path: str | Path) -> SpanTrace:
    """Read a span-trace JSONL file back into a :class:`SpanTrace`."""
    return trace_from_records(read_jsonl_records(path))


# -- Chrome trace-event JSON -------------------------------------------------


def _scale(track: str, time: float) -> float:
    return time * track_time_scale(track)


def to_chrome_trace(trace: SpanTrace) -> dict[str, Any]:
    """Convert a span trace to the Chrome trace-event JSON document."""
    tracks = sorted(
        {span.track for span in trace.spans}
        | {event.track for event in trace.events}
    )
    process_ids = {track: index + 1 for index, track in enumerate(tracks)}
    spans_by_id = {span.id: span for span in trace.spans}

    def _lane(span_id: int | None) -> int:
        span = spans_by_id.get(span_id) if span_id is not None else None
        if span is None:
            return 0
        pid = span.attrs.get("pid")
        if isinstance(pid, int):
            return pid + 2
        return 1 if span.kind in ("round", "phase") else 0

    trace_events: list[dict[str, Any]] = []
    for track in tracks:
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": process_ids[track],
                "tid": 0,
                "args": {"name": f"track:{track}"},
            }
        )
    for span in trace.spans:
        end = span.end if span.end is not None else span.start
        trace_events.append(
            {
                "ph": "X",
                "name": span.name,
                "cat": span.kind,
                "pid": process_ids[span.track],
                "tid": _lane(span.id),
                "ts": _scale(span.track, span.start),
                "dur": max(_scale(span.track, end - span.start), 0.0),
                "args": dict(span.attrs),
            }
        )
    positions = {}
    for event in trace.events:
        position = {
            "pid": process_ids.get(event.track, 0),
            "tid": _lane(event.span),
            "ts": _scale(event.track, event.time),
        }
        positions[event.id] = position
        trace_events.append(
            {
                "ph": "i",
                "s": "t",
                "name": event.name,
                "cat": event.track,
                **position,
                "args": dict(event.attrs),
            }
        )
    for index, edge in enumerate(trace.edges):
        src = positions.get(edge.src)
        dst = positions.get(edge.dst)
        if src is None or dst is None:
            continue
        common = {"cat": edge.kind, "name": edge.kind, "id": index + 1}
        trace_events.append({"ph": "s", **common, **src})
        trace_events.append({"ph": "f", "bp": "e", **common, **dst})

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": SPAN_TRACE_SCHEMA,
            "version": SPAN_TRACE_VERSION,
            "note": CHROME_SCHEMA_NOTE,
        },
    }


def write_chrome_trace(trace: SpanTrace, path: str | Path) -> Path:
    """Write a span trace as Chrome trace-event JSON."""
    import json

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(to_chrome_trace(trace), sort_keys=True, indent=None),
        encoding="utf-8",
    )
    return target


# -- summaries ---------------------------------------------------------------


def summarize_trace(trace: SpanTrace) -> dict[str, Any]:
    """Aggregate counts for ``repro trace summarize`` (and tests)."""
    spans_by_kind: dict[str, int] = {}
    for span in trace.spans:
        key = f"{span.track}/{span.kind}"
        spans_by_kind[key] = spans_by_kind.get(key, 0) + 1
    events_by_name: dict[str, int] = {}
    for event in trace.events:
        events_by_name[event.name] = events_by_name.get(event.name, 0) + 1
    # Count outermost trial spans only: a campaign's trial span wraps
    # the sim trial it executes, and those are the same logical trial.
    spans_by_id = {span.id: span for span in trace.spans}

    def _has_trial_ancestor(span: Span) -> bool:
        parent = span.parent
        while parent is not None and parent in spans_by_id:
            if spans_by_id[parent].kind == "trial":
                return True
            parent = spans_by_id[parent].parent
        return False

    all_trials = [span for span in trace.spans if span.kind == "trial"]
    trials = [
        span for span in all_trials if not _has_trial_ancestor(span)
    ]
    rounds = [
        span.attrs.get("max_decision_round")
        for span in all_trials
        if span.attrs.get("max_decision_round") is not None
    ]
    return {
        "spans": len(trace.spans),
        "events": len(trace.events),
        "edges": len(trace.edges),
        "tracks": sorted(
            {s.track for s in trace.spans} | {e.track for e in trace.events}
        ),
        "spans_by_kind": dict(sorted(spans_by_kind.items())),
        "events_by_name": dict(sorted(events_by_name.items())),
        "trials": len(trials),
        "max_decision_round": max(rounds) if rounds else None,
    }
