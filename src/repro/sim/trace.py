"""Run traces: the full-information record of a simulation.

A :class:`Run` is the analyst's object — unlike the adversary's
:class:`~repro.sim.pattern.PatternView` it records everything, including
payloads, decisions, and per-step clock readings, so that lateness,
asynchronous rounds, and correctness conditions can be checked post-hoc.

The lateness predicate implements the paper's definition: message ``m``
is *late* in run ``R`` if any processor takes more than ``K`` steps
between the event where ``m`` is sent and the event where ``m`` is
received; a run is *on-time* if it contains no late message.
:func:`late_envelopes` is the one comparison, over flat facts (``K``,
each processor's step indices, the envelopes): every envelope of a
broadcast shares its send event, so :func:`send_deadlines` turns that
event into one deadline, the first event index at which a message sent
there has been outlived by ``K + 1`` steps of some processor, and an
envelope is late iff it was received after its send event's deadline.
:meth:`Run.late_messages` feeds it the recorded run, the fused sweep
(:mod:`repro.sim.fastcore`) its flat records, and the model checker
(:mod:`repro.mc.explorer`) the live kernel's.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TypeVar

from repro.sim.message import Envelope, MessageId
from repro.types import ProcessStatus

_Env = TypeVar("_Env")


def send_deadlines(
    K: int, pid_steps: Sequence[Sequence[int]], send_events: Iterable[int]
) -> dict[int, float]:
    """The lateness deadline of each distinct send event.

    ``pid_steps[p]`` is the ascending list of event indices at which
    processor ``p`` stepped.  After send event ``s``, processor ``p``'s
    ``(K+1)``-th step is ``steps[bisect_right(steps, s) + K]``; the
    deadline is the earliest such step over all processors (``inf`` when
    none takes ``K + 1`` more steps).  A message sent at ``s`` and
    received at ``r`` is late iff ``deadline(s) < r``: some processor then
    took more than ``K`` steps strictly between the two events, which is
    the definition in ``docs/MODEL.md``.
    """
    deadlines: dict[int, float] = {}
    for send in send_events:
        if send in deadlines:
            continue
        deadline = math.inf
        for steps in pid_steps:
            index = bisect.bisect_right(steps, send) + K
            if index < len(steps) and steps[index] < deadline:
                deadline = steps[index]
        deadlines[send] = deadline
    return deadlines


def late_envelopes(
    K: int, pid_steps: Sequence[Sequence[int]], envelopes: Iterable[_Env]
) -> list[_Env]:
    """The late envelopes among ``envelopes``, in the order given.

    An envelope is anything with a ``send_event`` and a
    ``receive_event`` (``None`` while undelivered).  Only delivered
    envelopes can be late: one received after its send event's
    deadline (:func:`send_deadlines`).  This is the one lateness
    comparison; ``docs/MODEL.md`` "Lateness" states the rule.
    """
    delivered = [env for env in envelopes if env.receive_event is not None]
    deadlines = send_deadlines(
        K, pid_steps, (env.send_event for env in delivered)
    )
    return [
        env
        for env in delivered
        if deadlines[env.send_event] < env.receive_event
    ]


@dataclass(frozen=True)
class TraceEvent:
    """Full-information record of one applied event.

    Attributes:
        index: global event index (0-based).
        kind: ``"step"`` or ``"crash"``.
        actor: the processor involved.
        clock_after: the actor's clock after the event.
        delivered: envelope ids received at this event.
        sent: envelope ids emitted at this event.
        decision_after: the actor's decision after the event (None if
            undecided), recorded so analyses can locate decide steps.
        halted_after: whether the actor's program had returned after the
            event.
    """

    index: int
    kind: str
    actor: int
    clock_after: int
    delivered: tuple[MessageId, ...]
    sent: tuple[MessageId, ...]
    decision_after: int | None
    halted_after: bool


@dataclass
class Run:
    """The complete record of one simulation run.

    Attributes:
        n: number of processors.
        t: fault budget the adversary was configured with.
        K: on-time bound in clock ticks.
        events: chronological trace events.
        envelopes: every envelope ever sent, by id.
        statuses: final lifecycle status per processor.
        decisions: final decision per processor (None if undecided).
        decision_clocks: clock reading at each processor's decide step.
        outputs: program return values per processor (None if not returned).
    """

    n: int
    t: int
    K: int
    events: list[TraceEvent] = field(default_factory=list)
    envelopes: dict[MessageId, Envelope] = field(default_factory=dict)
    statuses: dict[int, ProcessStatus] = field(default_factory=dict)
    decisions: dict[int, int | None] = field(default_factory=dict)
    decision_clocks: dict[int, int | None] = field(default_factory=dict)
    outputs: dict[int, object] = field(default_factory=dict)

    # Cache: per-processor sorted list of event indices at which the
    # processor took a step; built lazily for lateness queries.
    _step_indices: list[list[int]] | None = field(
        default=None, repr=False, compare=False
    )
    # Cache: the late-message list.  A Run is assembled once, after the
    # simulation finishes, so lateness is immutable; analyses typically ask
    # both ``is_on_time`` and ``late_count``, which would otherwise scan
    # every envelope twice.
    _late_cache: list[Envelope] | None = field(
        default=None, repr=False, compare=False
    )

    # -- basic queries ------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Number of events in the run."""
        return len(self.events)

    def faulty(self) -> set[int]:
        """Processors that crashed in this run."""
        return {
            pid
            for pid, status in self.statuses.items()
            if status is ProcessStatus.CRASHED
        }

    def nonfaulty(self) -> set[int]:
        """Processors that did not crash.

        In the formal model "nonfaulty" means "takes infinitely many
        steps"; for a finite recorded run we identify nonfaulty with
        not-crashed, which is the standard reading for terminating runs.
        """
        return set(range(self.n)) - self.faulty()

    def decision_values(self) -> set[int]:
        """The set of values decided by any processor."""
        return {d for d in self.decisions.values() if d is not None}

    def is_deciding(self) -> bool:
        """Whether every nonfaulty processor decided."""
        return all(self.decisions.get(pid) is not None for pid in self.nonfaulty())

    def agreement_holds(self) -> bool:
        """The paper's agreement condition: at most one decision value."""
        return len(self.decision_values()) <= 1

    # -- lateness -------------------------------------------------------------

    def _step_lists(self) -> list[list[int]]:
        """Per processor, the sorted event indices at which it stepped."""
        if self._step_indices is None:
            indices: list[list[int]] = [[] for _ in range(self.n)]
            for event in self.events:
                if event.kind == "step":
                    indices[event.actor].append(event.index)
            self._step_indices = indices
        return self._step_indices

    def steps_in_interval(self, pid: int, first_event: int, last_event: int) -> int:
        """How many steps ``pid`` took in the event interval (exclusive ends).

        Counts step events with ``first_event < index < last_event``, which
        matches "takes more than K steps *between* the send event and the
        receive event".
        """
        steps = self._step_lists()[pid]
        lo = bisect.bisect_right(steps, first_event)
        hi = bisect.bisect_left(steps, last_event)
        return hi - lo

    def is_late(self, envelope: Envelope) -> bool:
        """The paper's lateness predicate for one message.

        An undelivered envelope is not (yet) late — lateness is defined via
        the receive event.  Delivery-fairness violations are reported by the
        admissibility monitor instead.
        """
        return bool(late_envelopes(self.K, self._step_lists(), (envelope,)))

    def late_messages(self) -> list[Envelope]:
        """Every late message in the run (cached after the first call)."""
        if self._late_cache is None:
            self._late_cache = late_envelopes(
                self.K, self._step_lists(), self.envelopes.values()
            )
        return list(self._late_cache)

    def is_on_time(self) -> bool:
        """Whether the run contains no late messages."""
        return not self.late_messages()

    # -- convenience ----------------------------------------------------------

    def envelopes_from(self, sender: int) -> list[Envelope]:
        """All envelopes sent by ``sender``, in send order."""
        return sorted(
            (e for e in self.envelopes.values() if e.sender == sender),
            key=lambda e: e.send_event,
        )

    def delivered_envelopes(self) -> Iterable[Envelope]:
        """All envelopes that were received."""
        return (e for e in self.envelopes.values() if e.delivered)

    def messages_sent(self) -> int:
        """Total number of envelopes sent in the run."""
        return len(self.envelopes)

    def payload_kind_counts(self, delivered_only: bool = False) -> dict[str, int]:
        """Payload tallies by payload class name, sorted by kind.

        The unit is the protocol message (payload), not the envelope: one
        envelope packs every payload one step addressed to one recipient,
        so payload counts are the paper's message-complexity measure while
        :meth:`messages_sent` counts scheduled deliveries.
        """
        counts: dict[str, int] = {}
        for envelope in self.envelopes.values():
            if delivered_only and not envelope.delivered:
                continue
            for payload in envelope.payloads:
                kind = type(payload).__name__
                counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))

    def late_count(self) -> int:
        """Number of late messages (the per-phase lateness counter)."""
        return len(self.late_messages())

    def max_decision_clock(self) -> int | None:
        """The largest clock reading at which any processor decided.

        ``None`` when no processor decided.  This is the metric of the
        paper's Remark 1 ("all the processors decide within at most 8K
        clock ticks").
        """
        clocks = [c for c in self.decision_clocks.values() if c is not None]
        return max(clocks) if clocks else None
