"""Derive the sim track's span tree from a finished trial's record.

The simulator never records spans while executing — that would risk
perturbing the schedule.  Instead, when a recorder is active, the trial's
flat :class:`~repro.sim.trace.TrialRecord` is handed to
:func:`record_run` *after* the trial finishes
(:func:`repro.sim.scheduler.observe_trial`, on either kernel), and this
module derives the spans from it:

* one **trial** span covering the whole run (time axis = event index);
* one **round** span per asynchronous round (Section 2.2 boundaries via
  :func:`~repro.sim.rounds.record_round_ends`), from the earliest to the
  latest step any processor took in that round;
* one **phase** span per (processor, round) — processor ``p``'s slice
  of round ``r``;
* ``send``/``deliver`` point events per envelope, joined by causal
  edges keyed on the message id, each labelled with the sender's (resp.
  recipient's) round at that clock reading;
* ``decide`` and ``crash`` point events.

Only the events that carry a point are visited: the envelopes give the
sends and deliveries, the crash indices the crashes, and the decision
clocks the decide steps.  A recorded :class:`~repro.sim.trace.Run`
gets the same spans through its record (``record_run(recorder,
run.trial_record())``).

Runs whose rounds cannot be computed (non-convergent pathological
schedules) still get the trial span, message events, and edges — only
round/phase structure is omitted.
"""

from __future__ import annotations

from typing import Any

from repro.errors import AnalysisError
from repro.sim.rounds import (
    max_decision_round,
    record_round_ends,
    round_at_clock,
)
from repro.sim.trace import TrialRecord
from repro.trace.spans import SpanRecorder


def record_run(
    recorder: SpanRecorder,
    record: TrialRecord,
    *,
    track: str = "sim",
    name: str = "sim-run",
    **attrs: Any,
) -> int:
    """Record a finished trial's span tree; returns the trial span id.

    The trial span nests under whatever span is currently open on the
    recorder (the campaign's trial span, for instance), or at the root
    when recording a bare ``run_commit``.
    """
    scope = recorder.new_scope()
    steps = record.step_events
    try:
        ends: list[list[int]] | None = record_round_ends(record)
    except AnalysisError:
        ends = None

    trial_attrs: dict[str, Any] = {
        "n": record.n,
        "t": record.t,
        "K": record.K,
        "events": record.events,
        "decided": sum(1 for v in record.decisions if v is not None),
    }
    if ends is not None:
        trial_attrs["max_decision_round"] = max_decision_round(
            ends, record.decision_clocks, record.nonfaulty()
        )
    trial_attrs.update(attrs)
    trial = recorder.begin_span(
        name, kind="trial", track=track, start=0, **trial_attrs
    )

    # phase_spans[(pid, round)] -> span id, for parenting message events.
    phase_spans: dict[tuple[int, int], int] = {}
    if ends is not None:
        # Collect every (pid, round) phase as an event-index interval.
        # ``pid``'s clock after its i-th step (0-based) is i + 1, so the
        # steps with a clock in (low, high] are indexes low .. high - 1.
        phases: dict[int, list[tuple[int, int, int]]] = {}
        for pid, indexes in enumerate(steps):
            taken = len(indexes)
            pid_ends = ends[pid]
            for r in range(1, len(pid_ends)):
                first = min(pid_ends[r - 1], taken)
                last = min(pid_ends[r], taken) - 1
                if first > last:
                    continue
                phases.setdefault(r, []).append(
                    (pid, indexes[first], indexes[last])
                )
        for r in sorted(phases):
            entries = phases[r]
            round_span = recorder.begin_span(
                f"round-{r}",
                kind="round",
                track=track,
                start=min(start for _, start, _ in entries),
                parent=trial,
                round=r,
            )
            recorder.end_span(
                round_span, max(end for _, _, end in entries) + 1
            )
            for pid, start, end in entries:
                span = recorder.begin_span(
                    f"p{pid}/r{r}",
                    kind="phase",
                    track=track,
                    start=start,
                    parent=round_span,
                    pid=pid,
                    round=r,
                )
                recorder.end_span(span, end + 1)
                phase_spans[(pid, r)] = span

    def _round_at(pid: int, clock: int) -> int | None:
        if ends is None:
            return None
        try:
            return round_at_clock(ends[pid], pid, clock)
        except AnalysisError:
            return None

    def _phase_of(pid: int, round_number: int | None) -> int:
        if round_number is None:
            return trial
        return phase_spans.get((pid, round_number), trial)

    # The events that carry a point.  Envelopes come in send order, which
    # is message-id order, so each event's lists are already sorted.
    sends_by_event: dict[int, list] = {}
    delivers_by_event: dict[int, list] = {}
    for env in record.envelopes:
        sends_by_event.setdefault(env.send_event, []).append(env)
        if env.receive_event is not None:
            delivers_by_event.setdefault(env.receive_event, []).append(env)
    crash_at = {index: pid for pid, index in record.crashes.items()}
    decide_at = {
        steps[pid][clock - 1]: pid
        for pid, clock in enumerate(record.decision_clocks)
        if clock is not None
    }

    # Points in event order.  Within one step, delivers precede sends (a
    # process reads its inbox before emitting), which keeps recorder ids
    # aligned with causality.
    for index in sorted(
        sends_by_event.keys() | delivers_by_event.keys() | crash_at.keys()
        | decide_at.keys()
    ):
        for env in delivers_by_event.get(index, ()):
            clock = record.clock(env.recipient, index)
            r = _round_at(env.recipient, clock)
            recorder.deliver(
                track=track,
                key=(scope, int(env.message_id)),
                time=index,
                span=_phase_of(env.recipient, r),
                message=int(env.message_id),
                sender=env.sender,
                recipient=env.recipient,
                clock=clock,
                round=r,
            )
        for env in sends_by_event.get(index, ()):
            r = _round_at(env.sender, env.send_clock)
            recorder.send(
                track=track,
                key=(scope, int(env.message_id)),
                time=index,
                span=_phase_of(env.sender, r),
                message=int(env.message_id),
                sender=env.sender,
                recipient=env.recipient,
                clock=env.send_clock,
                round=r,
            )
        pid = crash_at.get(index)
        if pid is not None:
            recorder.point(
                "crash",
                track=track,
                time=index,
                span=trial,
                pid=pid,
                clock=record.clock(pid, index),
            )
        pid = decide_at.get(index)
        if pid is not None:
            clock = record.decision_clocks[pid]
            r = _round_at(pid, clock)
            recorder.point(
                "decide",
                track=track,
                time=index,
                span=_phase_of(pid, r),
                pid=pid,
                decision=record.decisions[pid],
                clock=clock,
                round=r,
            )

    recorder.end_span(trial, record.events)
    return trial
