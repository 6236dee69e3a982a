"""Critical-path extraction: the longest causal chain behind a decision.

A decision at processor ``p`` is causally preceded by the messages
``p`` received, which are preceded by the messages *their* senders had
received by send time, and so on.  The critical path ending at ``p``'s
decision is the longest such send→deliver chain — the sequence of
message hops that *had* to happen, one after another, for ``p`` to
decide when it did.

Attribution to the paper's time measure: each hop is labelled with the
sender's asynchronous round at send time, and
:attr:`CriticalPath.round_span` is the largest round label along the
chain.  In E2-style runs (``K = 4``, on-time delivery) this equals the
decision round exactly — the chain *explains* the round count hop by
hop.  With larger ``K`` a round can also end on the ``K``-tick timer
without any round-``(r-1)`` message arriving, in which case the
decision round exceeds the chain's round span; the difference is
surfaced honestly as :attr:`CriticalPath.timer_gap` rather than papered
over.

The one front end, :func:`critical_paths_from_records`, reads an
exported ``repro.span-trace`` document and uses recorder event ids as
the happens-before order, so it works for any track that records
``send``/``deliver``/``decide`` events.  An in-memory run gets its
paths the same way: its record's spans
(``record_run(recorder, run.trial_record())``,
:mod:`repro.trace.build`), then the recorder's records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence


@dataclass(frozen=True)
class Hop:
    """One send→deliver link on a critical path."""

    message: int
    sender: int
    recipient: int
    send_time: float
    receive_time: float
    round: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "message": self.message,
            "sender": self.sender,
            "recipient": self.recipient,
            "send_time": self.send_time,
            "receive_time": self.receive_time,
            "round": self.round,
        }


@dataclass(frozen=True)
class CriticalPath:
    """The longest causal message chain ending at one decision."""

    pid: int
    decision: Any
    decision_time: float
    decision_round: int | None
    hops: tuple[Hop, ...]
    trial: int | None = None
    track: str = "sim"

    @property
    def length(self) -> int:
        """Chain length in message hops."""
        return len(self.hops)

    @property
    def round_span(self) -> int:
        """Largest sender round along the chain (0 for an empty chain)."""
        rounds = [h.round for h in self.hops if h.round is not None]
        return max(rounds, default=0)

    @property
    def timer_gap(self) -> int | None:
        """Rounds the decision ran ahead of the chain (K-timer driven).

        Zero in message-driven runs (E2-style, ``K = 4``): the chain
        fully accounts for the decision round.  Positive when some
        round ended on the ``K``-tick timer alone.  ``None`` when the
        decision round is unknown.
        """
        if self.decision_round is None:
            return None
        return self.decision_round - self.round_span

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "decision": self.decision,
            "decision_time": self.decision_time,
            "decision_round": self.decision_round,
            "trial": self.trial,
            "track": self.track,
            "length": self.length,
            "round_span": self.round_span,
            "timer_gap": self.timer_gap,
            "hops": [hop.to_dict() for hop in self.hops],
        }


@dataclass(frozen=True)
class _Link:
    """Internal: one delivered message, in a total happens-before order."""

    message: int
    sender: int
    recipient: int
    send_order: int
    receive_order: int
    send_time: float
    receive_time: float
    round: int | None


@dataclass(frozen=True)
class _Decision:
    pid: int
    decision: Any
    order: int
    time: float
    round: int | None


def _longest_chains(
    links: Sequence[_Link], decisions: Sequence[_Decision]
) -> dict[int, tuple[_Link, ...]]:
    """The DP core: longest chain of links ending before each decision.

    ``order`` fields give a total order consistent with causality:
    link ``a`` can precede link ``b`` when ``a`` is delivered to ``b``'s
    sender no later than ``b`` is sent.  Depth is computed in send
    order; ties break toward the smallest message id so results are
    deterministic.
    """
    depth: dict[int, int] = {}
    parent: dict[int, _Link | None] = {}
    by_link: dict[int, _Link] = {}
    delivered_to: dict[int, list[_Link]] = {}
    for link in sorted(links, key=lambda l: (l.send_order, l.message)):
        best, best_parent = 0, None
        for prior in delivered_to.get(link.sender, []):
            if prior.receive_order <= link.send_order:
                prior_depth = depth[prior.message]
                if prior_depth > best or (
                    prior_depth == best
                    and best_parent is not None
                    and prior.message < best_parent.message
                ):
                    best, best_parent = prior_depth, prior
        depth[link.message] = best + 1
        parent[link.message] = best_parent
        by_link[link.message] = link
        delivered_to.setdefault(link.recipient, []).append(link)

    chains: dict[int, tuple[_Link, ...]] = {}
    for decision in decisions:
        best_link: _Link | None = None
        for candidate in delivered_to.get(decision.pid, []):
            if candidate.receive_order > decision.order:
                continue
            if (
                best_link is None
                or depth[candidate.message] > depth[best_link.message]
                or (
                    depth[candidate.message] == depth[best_link.message]
                    and candidate.message < best_link.message
                )
            ):
                best_link = candidate
        chain: list[_Link] = []
        cursor = best_link
        while cursor is not None:
            chain.append(cursor)
            cursor = parent[cursor.message]
        chains[decision.pid] = tuple(reversed(chain))
    return chains


def _hop(link: _Link) -> Hop:
    return Hop(
        message=link.message,
        sender=link.sender,
        recipient=link.recipient,
        send_time=link.send_time,
        receive_time=link.receive_time,
        round=link.round,
    )


def critical_paths_from_records(
    records: Iterable[dict[str, Any]],
) -> list[CriticalPath]:
    """Critical paths from a ``repro.span-trace`` document's records.

    Works per trial: events are grouped by the innermost enclosing span
    of kind ``"trial"`` (the span :func:`repro.trace.build.record_run`
    opens), else by their root span, so a trace holding many trials (a
    campaign, which nests ``campaign → trial-<seed> → sim-run``) yields
    paths for each; message ids and pids restart in every trial, so
    they are only compared within one.  Recorder event ids serve as the
    happens-before order — a deliver recorded before a send happened
    before it on every track.
    """
    from repro.trace.export import trace_from_records

    trace = trace_from_records(list(records))
    spans = {span.id: span for span in trace.spans}

    def _trial(span_id: int | None) -> int | None:
        seen = set()
        while span_id is not None and span_id in spans:
            span = spans[span_id]
            if span.kind == "trial" or span.parent is None:
                return span_id
            if span_id in seen:  # defensive: corrupt parentage
                return span_id
            seen.add(span_id)
            span_id = span.parent
        return span_id

    events_by_id = {event.id: event for event in trace.events}
    send_to_deliver = {
        edge.src: edge.dst for edge in trace.edges if edge.kind == "message"
    }

    links_by_trial: dict[int | None, list[_Link]] = {}
    decisions_by_trial: dict[int | None, list[_Decision]] = {}
    for event in trace.events:
        if event.name == "send" and event.id in send_to_deliver:
            deliver = events_by_id.get(send_to_deliver[event.id])
            if deliver is None:
                continue
            trial = _trial(event.span)
            attrs = event.attrs
            links_by_trial.setdefault(trial, []).append(
                _Link(
                    message=attrs.get("message", event.id),
                    sender=attrs.get("sender", -1),
                    recipient=deliver.attrs.get(
                        "recipient", attrs.get("recipient", -1)
                    ),
                    send_order=event.id,
                    receive_order=deliver.id,
                    send_time=event.time,
                    receive_time=deliver.time,
                    round=attrs.get("round"),
                )
            )
        elif event.name == "decide":
            trial = _trial(event.span)
            decisions_by_trial.setdefault(trial, []).append(
                _Decision(
                    pid=event.attrs.get("pid", -1),
                    decision=event.attrs.get("decision"),
                    order=event.id,
                    time=event.time,
                    round=event.attrs.get("round"),
                )
            )

    paths: list[CriticalPath] = []
    for trial in sorted(
        decisions_by_trial, key=lambda value: (value is None, value)
    ):
        decisions = decisions_by_trial[trial]
        links = links_by_trial.get(trial, [])
        chains = _longest_chains(links, decisions)
        track = "sim"
        if trial is not None and trial in spans:
            track = spans[trial].track
        for d in sorted(decisions, key=lambda d: d.pid):
            paths.append(
                CriticalPath(
                    pid=d.pid,
                    decision=d.decision,
                    decision_time=d.time,
                    decision_round=d.round,
                    hops=tuple(_hop(link) for link in chains[d.pid]),
                    trial=trial,
                    track=track,
                )
            )
    return paths
