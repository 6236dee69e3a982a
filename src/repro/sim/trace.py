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
:meth:`Run.late_messages` feeds it the recorded run,
:meth:`TrialRecord.on_time` the flat record of a finished trial that
both kernels hand over, and the model checker (:mod:`repro.mc.explorer`)
the live kernel's.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence, TypeVar

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
class TrialRecord:
    """The flat record of one finished trial.

    A processor's clock is the number of steps it has taken, so every
    clock reading a derived fact needs is read off ``step_events``: a
    processor's clock after event ``e`` is the number of its steps at or
    before ``e`` (:meth:`clock`), and its decide step is
    ``step_events[pid][decision_clock - 1]``.

    Attributes:
        n: number of processors.
        t: fault budget the adversary was configured with.
        K: on-time bound in clock ticks.
        decisions: final decision per processor (None if undecided).
        decision_clocks: clock reading at each processor's decide step.
        crashes: crashed processor -> the index of its crash event, in
            crash order.
        envelopes: every envelope sent, in send order (ascending message
            id); each has ``message_id``, ``sender``, ``recipient``,
            ``payloads``, ``send_event``, ``send_clock`` and
            ``receive_event`` (None while undelivered).
        step_events: per processor, the ascending event indices at which
            it stepped.
        events: number of events in the trial.
        terminated: every nonfaulty program returned.
    """

    n: int
    t: int
    K: int
    decisions: Sequence[int | None]
    decision_clocks: Sequence[int | None]
    crashes: Mapping[int, int]
    envelopes: Sequence[Any]
    step_events: Sequence[Sequence[int]]
    events: int
    terminated: bool

    def nonfaulty(self) -> set[int]:
        """Processors that did not crash."""
        return set(range(self.n)).difference(self.crashes)

    def clock(self, pid: int, event: int) -> int:
        """``pid``'s clock reading after event ``event``."""
        return bisect.bisect_right(self.step_events[pid], event)

    def on_time(self) -> bool:
        """Whether the trial contains no late message."""
        return not late_envelopes(self.K, self.step_events, self.envelopes)


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

    # The flat record, built on first use: a Run is assembled once,
    # after the simulation finishes, so every fact read off it is fixed.
    _record: TrialRecord | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- basic queries ------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Number of events in the run."""
        return len(self.events)

    def faulty(self) -> set[int]:
        """Processors that crashed in this run."""
        return set(self.trial_record().crashes)

    def nonfaulty(self) -> set[int]:
        """Processors that did not crash.

        In the formal model "nonfaulty" means "takes infinitely many
        steps"; for a finite recorded run we identify nonfaulty with
        not-crashed, which is the standard reading for terminating runs.
        """
        return self.trial_record().nonfaulty()

    def decision_values(self) -> set[int]:
        """The set of values decided by any processor."""
        return {d for d in self.decisions.values() if d is not None}

    def is_deciding(self) -> bool:
        """Whether every nonfaulty processor decided."""
        return all(self.decisions.get(pid) is not None for pid in self.nonfaulty())

    def agreement_holds(self) -> bool:
        """The paper's agreement condition: at most one decision value."""
        return len(self.decision_values()) <= 1

    def trial_record(self) -> TrialRecord:
        """The flat :class:`TrialRecord` of this run (built once)."""
        if self._record is None:
            steps: list[list[int]] = [[] for _ in range(self.n)]
            crashes: dict[int, int] = {}
            for event in self.events:
                if event.kind == "step":
                    steps[event.actor].append(event.index)
                else:
                    crashes[event.actor] = event.index
            self._record = TrialRecord(
                n=self.n,
                t=self.t,
                K=self.K,
                decisions=[self.decisions.get(pid) for pid in range(self.n)],
                decision_clocks=[
                    self.decision_clocks.get(pid) for pid in range(self.n)
                ],
                crashes=crashes,
                envelopes=sorted(
                    self.envelopes.values(), key=lambda env: env.message_id
                ),
                step_events=steps,
                events=self.event_count,
                terminated=all(
                    self.statuses.get(pid) is ProcessStatus.RETURNED
                    for pid in set(range(self.n)).difference(crashes)
                ),
            )
        return self._record

    # -- lateness -------------------------------------------------------------

    def steps_in_interval(self, pid: int, first_event: int, last_event: int) -> int:
        """How many steps ``pid`` took in the event interval (exclusive ends).

        Counts step events with ``first_event < index < last_event``, which
        matches "takes more than K steps *between* the send event and the
        receive event".
        """
        steps = self.trial_record().step_events[pid]
        lo = bisect.bisect_right(steps, first_event)
        hi = bisect.bisect_left(steps, last_event)
        return hi - lo

    def is_late(self, envelope: Envelope) -> bool:
        """The paper's lateness predicate for one message.

        An undelivered envelope is not (yet) late — lateness is defined via
        the receive event.  Delivery-fairness violations are reported by the
        admissibility monitor instead.
        """
        return bool(
            late_envelopes(self.K, self.trial_record().step_events, (envelope,))
        )

    def late_messages(self) -> list[Envelope]:
        """Every late message in the run, in send order."""
        record = self.trial_record()
        return late_envelopes(record.K, record.step_events, record.envelopes)

    def is_on_time(self) -> bool:
        """Whether the run contains no late messages."""
        return self.trial_record().on_time()

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

    def max_decision_clock(self) -> int | None:
        """The largest clock reading at which any processor decided.

        ``None`` when no processor decided.  This is the metric of the
        paper's Remark 1 ("all the processors decide within at most 8K
        clock ticks").
        """
        clocks = [c for c in self.decision_clocks.values() if c is not None]
        return max(clocks) if clocks else None
