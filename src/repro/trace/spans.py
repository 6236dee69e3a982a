"""The causal span model and its recorder.

Three record kinds, mirroring the shape of distributed-tracing systems
but dependency-free and deterministic:

* :class:`Span` — a named interval on some track's time axis (trial →
  round → phase on the sim track; recoveries on each service node's
  track; campaigns and explorations on their own trial-index axes).
  Spans nest through ``parent`` ids;
* :class:`PointEvent` — an instantaneous occurrence inside a span:
  ``send``, ``deliver``, ``decide``, ``crash``, ``retransmit``,
  ``violation``;
* :class:`CausalEdge` — a happens-before edge between two point
  events, today always a ``message`` edge from a ``send`` to the
  ``deliver`` of the same message id.

The :class:`SpanRecorder` hands out monotonically increasing span and
event ids, keeps a stack of open spans so children default their
parent to the innermost open span, and matches ``send``/``deliver``
pairs on caller-supplied keys (``(scope, message id)`` on the sim track
— :meth:`SpanRecorder.new_scope` namespaces keys so concurrent trials
in one recorder cannot cross-link).

Each track records time in its own unit; :func:`track_time_scale` is
the one place that says which.

Activation mirrors :mod:`repro.telemetry.registry`: tracing is **off by
default**; instrumented code resolves :func:`active_recorder` once (a
single attribute read when disabled) and records nothing unless a
recorder is installed.  Recording never feeds back into scheduling —
the sim track is built *post-hoc* from the completed run (see
:mod:`repro.trace.build`), so traces are byte-identical with tracing on
or off; ``tests/telemetry/test_overhead.py`` pins this.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator, Mapping

from repro.errors import ConfigurationError

#: Attribute values that survive the JSONL round-trip unchanged.
AttrValue = Any  # JSON scalars; enforced loosely, exporters sort keys

#: Sentinel meaning "parent is the innermost open span".
_CURRENT = object()


@dataclass
class Span:
    """One named interval; ``end`` is ``None`` while the span is open."""

    id: int
    name: str
    kind: str
    track: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict[str, AttrValue] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start


@dataclass(frozen=True)
class PointEvent:
    """One instantaneous occurrence inside a span."""

    id: int
    name: str
    track: str
    time: float
    span: int | None
    attrs: Mapping[str, AttrValue] = field(default_factory=dict)


@dataclass(frozen=True)
class CausalEdge:
    """A happens-before edge between two point events (src → dst)."""

    src: int
    dst: int
    kind: str = "message"


class SpanRecorder:
    """Accumulates spans, point events, and causal edges for one process.

    Thread-safe (service nodes record from asyncio callbacks and the
    metrics server thread may snapshot concurrently): all mutation
    happens under one lock.  Ids are dense and start at 1; edge
    endpoints always satisfy ``src < dst`` because a deliver can only
    be matched to a previously recorded send — this is what makes the
    causal graph acyclic by construction (pinned by the property tests
    in ``tests/property/test_trace_properties.py``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._event_ids = itertools.count(1)
        self._scope_ids = itertools.count(1)
        self.spans: dict[int, Span] = {}
        self.events: list[PointEvent] = []
        self.edges: list[CausalEdge] = []
        self._stack: list[int] = []
        self._pending_sends: dict[tuple[str, Hashable], int] = {}

    # -- scopes --------------------------------------------------------------

    def new_scope(self) -> int:
        """A fresh namespace for send/deliver keys.

        Message ids restart from zero in every simulation; components
        take one scope per run so keys from different runs never
        collide.
        """
        with self._lock:
            return next(self._scope_ids)

    # -- spans ---------------------------------------------------------------

    def begin_span(
        self,
        name: str,
        *,
        kind: str,
        track: str,
        start: float,
        parent: int | None | object = _CURRENT,
        **attrs: AttrValue,
    ) -> int:
        """Open a span and push it on the stack; returns its id."""
        with self._lock:
            if parent is _CURRENT:
                parent_id = self._stack[-1] if self._stack else None
            else:
                parent_id = parent  # type: ignore[assignment]
            span_id = next(self._span_ids)
            self.spans[span_id] = Span(
                id=span_id,
                name=name,
                kind=kind,
                track=track,
                start=start,
                parent=parent_id,
                attrs=dict(attrs),
            )
            self._stack.append(span_id)
            return span_id

    def end_span(
        self, span_id: int, end: float, **attrs: AttrValue
    ) -> None:
        """Close a span (popping it off the stack if still open there)."""
        with self._lock:
            span = self.spans.get(span_id)
            if span is None:
                raise ConfigurationError(f"unknown span id {span_id}")
            span.end = end
            span.attrs.update(attrs)
            if span_id in self._stack:
                while self._stack and self._stack[-1] != span_id:
                    self._stack.pop()
                if self._stack:
                    self._stack.pop()

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        kind: str,
        track: str,
        start: float,
        end: float | None = None,
        **attrs: AttrValue,
    ) -> Iterator[int]:
        """Context manager: begin on enter, end on exit.

        ``end`` fixes the close time up front; when ``None`` the span
        closes at its own start time plus the number of child spans
        opened underneath it — callers on real time axes should close
        explicitly via :meth:`end_span` inside the block instead.
        """
        span_id = self.begin_span(
            name, kind=kind, track=track, start=start, **attrs
        )
        try:
            yield span_id
        finally:
            span = self.spans[span_id]
            if span.end is None:
                close = end if end is not None else start + 1
                self.end_span(span_id, close)

    # -- point events --------------------------------------------------------

    def point(
        self,
        name: str,
        *,
        track: str,
        time: float,
        span: int | None | object = _CURRENT,
        **attrs: AttrValue,
    ) -> int:
        """Record an instantaneous event; returns its id."""
        with self._lock:
            if span is _CURRENT:
                span_id = self._stack[-1] if self._stack else None
            else:
                span_id = span  # type: ignore[assignment]
            event_id = next(self._event_ids)
            self.events.append(
                PointEvent(
                    id=event_id,
                    name=name,
                    track=track,
                    time=time,
                    span=span_id,
                    attrs=dict(attrs),
                )
            )
            return event_id

    def send(
        self,
        *,
        track: str,
        key: Hashable,
        time: float,
        span: int | None | object = _CURRENT,
        **attrs: AttrValue,
    ) -> int:
        """Record a ``send`` event and remember it for edge matching."""
        event_id = self.point(
            "send", track=track, time=time, span=span, **attrs
        )
        with self._lock:
            self._pending_sends[(track, key)] = event_id
        return event_id

    def deliver(
        self,
        *,
        track: str,
        key: Hashable,
        time: float,
        span: int | None | object = _CURRENT,
        **attrs: AttrValue,
    ) -> int:
        """Record a ``deliver`` event, linking it to the matching send.

        The causal edge is only emitted when the send was seen; an
        unmatched deliver (e.g. a trace sliced mid-run) records the
        event alone.
        """
        event_id = self.point(
            "deliver", track=track, time=time, span=span, **attrs
        )
        with self._lock:
            src = self._pending_sends.get((track, key))
            if src is not None:
                self.edges.append(CausalEdge(src=src, dst=event_id))
        return event_id

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def counts(self) -> dict[str, int]:
        """Record counts, for summaries and progress lines."""
        with self._lock:
            return {
                "spans": len(self.spans),
                "events": len(self.events),
                "edges": len(self.edges),
            }


# -- tracks ------------------------------------------------------------------


def node_track(pid: int) -> str:
    """The track service node ``pid`` records on, in event-loop seconds."""
    return f"p{pid}"


def track_time_scale(track: str) -> float:
    """Microseconds per recorded time unit on ``track``.

    A service node's track (:func:`node_track`) records event-loop
    seconds; every other track counts logical units (event, trial or
    vote-vector indices), one microsecond each.
    """
    return 1_000_000.0 if track[:1] == "p" and track[1:].isdigit() else 1.0


# -- the default recorder ----------------------------------------------------

_active: SpanRecorder | None = None


def active_recorder() -> SpanRecorder | None:
    """The installed recorder, or ``None`` when tracing is off.

    This is the hot-path guard: components resolve it once per run
    (one module-global read) and skip all recording when it is
    ``None``.
    """
    return _active


def tracing_enabled() -> bool:
    """Whether a recorder is installed."""
    return _active is not None


def enable_tracing(recorder: SpanRecorder | None = None) -> SpanRecorder:
    """Install (and return) the process-wide recorder."""
    global _active
    _active = recorder if recorder is not None else SpanRecorder()
    return _active


def disable_tracing() -> SpanRecorder | None:
    """Uninstall the recorder; returns it for inspection/export."""
    global _active
    previous = _active
    _active = None
    return previous


@contextlib.contextmanager
def use_recorder(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Temporarily install ``recorder`` as the active one."""
    global _active
    previous = _active
    _active = recorder
    try:
        yield recorder
    finally:
        _active = previous
