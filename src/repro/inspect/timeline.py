"""Human-readable rendering of recorded runs.

Debugging a distributed protocol from a raw event list is miserable;
these helpers render a :class:`~repro.sim.trace.Run` as text:

* :func:`render_timeline` — one line per event: who stepped, what was
  delivered, what was sent, decisions as they happen;
* :func:`render_lanes` — a compact per-processor lane view (one column
  per processor, one row per event);
* :func:`render_round_chart` — each processor's asynchronous-round
  boundaries against its decision point;
* :func:`summarize_run` — the one-paragraph version.

The timeline, the lanes and the summary read the :class:`Run` itself:
they need per-event rows, program statuses and delivered payloads,
which a finished trial's flat :class:`~repro.sim.trace.TrialRecord`
does not hold.  The round chart needs only the record
(``run.trial_record()``), which is what :class:`RoundAnalyzer` reads.
"""

from __future__ import annotations

from repro.sim.rounds import RoundAnalyzer
from repro.sim.trace import Run
from repro.types import ProcessStatus


def _payload_names(run: Run, message_ids) -> str:
    kinds: list[str] = []
    for mid in message_ids:
        envelope = run.envelopes.get(mid)
        if envelope is None:
            continue
        for payload in envelope.payloads:
            kinds.append(type(payload).__name__)
    if not kinds:
        return "-"
    compact: dict[str, int] = {}
    for kind in kinds:
        compact[kind] = compact.get(kind, 0) + 1
    return ",".join(
        f"{kind}x{count}" if count > 1 else kind
        for kind, count in compact.items()
    )


def render_timeline(run: Run, limit: int | None = None) -> str:
    """One line per event, chronological.

    Args:
        run: the recorded run.
        limit: render only the first ``limit`` events (None = all).
    """
    lines = [
        f"run: n={run.n} t={run.t} K={run.K} events={run.event_count} "
        f"messages={run.messages_sent()} on_time={run.is_on_time()}"
    ]
    previous_decisions: dict[int, int | None] = {
        pid: None for pid in range(run.n)
    }
    events = run.events if limit is None else run.events[:limit]
    for event in events:
        if event.kind == "crash":
            lines.append(f"{event.index:>6}  p{event.actor} CRASH")
            continue
        delivered = _payload_names(run, event.delivered)
        sent = _payload_names(run, event.sent)
        note = ""
        if event.decision_after != previous_decisions[event.actor]:
            note = f"  DECIDES {event.decision_after}"
            previous_decisions[event.actor] = event.decision_after
        elif event.halted_after:
            note = ""
        lines.append(
            f"{event.index:>6}  p{event.actor} clk={event.clock_after:<4} "
            f"recv[{delivered}] send[{sent}]{note}"
        )
    if limit is not None and run.event_count > limit:
        lines.append(f"... {run.event_count - limit} more events")
    return "\n".join(lines)


def render_lanes(run: Run, limit: int | None = None) -> str:
    """A compact lane view: one column per processor.

    Cell legend: ``.`` idle step, ``r`` received, ``s`` sent, ``b`` both,
    ``D`` decided at this step, ``X`` crash, `` `` not scheduled.
    """
    header = "event  " + " ".join(f"p{pid}" for pid in range(run.n))
    lines = [header]
    previous_decisions: dict[int, int | None] = {
        pid: None for pid in range(run.n)
    }
    events = run.events if limit is None else run.events[:limit]
    for event in events:
        cells = ["  "] * run.n
        if event.kind == "crash":
            cells[event.actor] = "X "
        else:
            received = bool(event.delivered)
            sent = bool(event.sent)
            symbol = "."
            if received and sent:
                symbol = "b"
            elif received:
                symbol = "r"
            elif sent:
                symbol = "s"
            if event.decision_after != previous_decisions[event.actor]:
                symbol = "D"
                previous_decisions[event.actor] = event.decision_after
            cells[event.actor] = symbol + " "
        lines.append(f"{event.index:>5}  " + " ".join(cells))
    return "\n".join(lines)


def render_round_chart(run: Run) -> str:
    """Round boundaries and decision rounds per processor."""
    analyzer = RoundAnalyzer(run.trial_record())
    lines = ["asynchronous rounds (clock reading at each round end):"]
    decision_rounds = analyzer.decision_rounds()
    for pid in range(run.n):
        boundaries = analyzer.boundaries(pid)
        ends = " ".join(str(end) for end in boundaries[1:6])
        more = " ..." if len(boundaries) > 6 else ""
        decision = decision_rounds[pid]
        decision_text = (
            f"decided in round {decision}" if decision else "undecided"
        )
        lines.append(f"  p{pid}: ends at clocks [{ends}{more}] — {decision_text}")
    top = analyzer.max_decision_round()
    lines.append(
        f"  last nonfaulty decision: round {top}"
        if top
        else "  no nonfaulty processor decided"
    )
    return "\n".join(lines)


def summarize_run(run: Run) -> str:
    """A one-paragraph summary of what happened."""
    crashed = sorted(run.faulty())
    decided = {
        pid: value for pid, value in run.decisions.items() if value is not None
    }
    values = sorted(set(decided.values()))
    outcome: str
    if not decided:
        outcome = "no processor decided"
    elif len(values) == 1:
        outcome = f"all deciders chose {values[0]}"
    else:
        outcome = f"CONFLICT: decisions {values}"
    late = len(run.late_messages())
    returned = sum(
        1
        for status in run.statuses.values()
        if status is ProcessStatus.RETURNED
    )
    return (
        f"{run.event_count} events, {run.messages_sent()} messages "
        f"({late} late); crashed={crashed or 'none'}; "
        f"{returned}/{run.n} programs returned; {outcome}."
    )
