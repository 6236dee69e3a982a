"""The simulation scheduler: applies adversary decisions to processes.

This is the executable form of the paper's ``run(A, I, F)`` construction:
a run is uniquely determined by an adversary ``A``, an initial
configuration ``I`` (the protocol programs with their initial values), and
a collection ``F`` of random tapes.  The scheduler repeatedly asks the
adversary for a decision, applies the resulting event, and records it,
until every nonfaulty processor's program has returned or a step horizon
is reached (the finite-prefix stand-in for "runs forever").

The record of an event is one flat row (:data:`EventRow`), not the
objects readers see.  The adversary's pattern entries
(:class:`~repro.sim.pattern.PatternEntry`) are built from the rows when
an adversary first reads them, and the full-information
:class:`~repro.sim.trace.Run` (with its
:class:`~repro.sim.trace.TraceEvent` list) when :meth:`Simulation.result`
or :meth:`Simulation.build_run` is first called.  A trial that reads only
the outcome, the decisions and the crashed set off the kernel
(:func:`repro.sim.coreselect.run_sim_trial`) builds neither.

A run that parks (:mod:`repro.sim.parking`) is finished in one go by
:meth:`Simulation._finish_parked`, per processor rather than per event,
without asking the adversary or resuming any program; it still leaves
one row per event.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Collection, Sequence

from repro.errors import ConfigurationError, SchedulingError
from repro.sim.admissibility import AdmissibilityMonitor, AdmissibilityReport
from repro.sim.buffer import MessageBuffer
from repro.sim.decisions import (
    AdversaryProtocol,
    CrashDecision,
    Decision,
    StepDecision,
)
from repro.sim.message import Envelope, EnvelopeFactory, MessageId, ReceivedPayload
from repro.sim.pattern import (
    PatternEntry,
    PatternHistory,
    PatternView,
    PendingMessage,
)
from repro.sim.process import Program, SimProcess
from repro.sim.tape import TapeCollection
from repro.sim.trace import Run, TraceEvent
from repro.telemetry.log import get_logger
from repro.telemetry.registry import active_registry
from repro.trace import spans as trace_spans
from repro.types import ProcessStatus

_log = get_logger("sim.scheduler")

#: One applied event: ``(kind, actor, clock_after, delivered, sent,
#: decision_after, halted_after)``.  ``delivered`` and ``sent`` hold the
#: envelopes themselves (ids and recipients never change after a send),
#: and an empty one is the shared ``()``; the event's index is the row's
#: position.
EventRow = tuple[
    str, int, int, Sequence[Envelope], Sequence[Envelope], int | None, bool
]


class Outcome(enum.Enum):
    """Why a simulation stopped."""

    #: Every nonfaulty processor's program returned.
    TERMINATED = enum.auto()
    #: The step horizon was reached with some nonfaulty program unfinished.
    HORIZON = enum.auto()


@dataclass
class SimulationResult:
    """Everything a simulation produces.

    Attributes:
        outcome: whether the run terminated or hit the horizon.
        run: the full-information trace.
        admissibility: the monitor's report on the adversary's behaviour.
    """

    outcome: Outcome
    run: Run
    admissibility: AdmissibilityReport

    @property
    def terminated(self) -> bool:
        return self.outcome is Outcome.TERMINATED

    def decisions(self) -> dict[int, int | None]:
        """Final decision per processor."""
        return dict(self.run.decisions)


def check_simulation_arguments(
    programs: Sequence[Program], K: int, t: int, max_steps: int
) -> None:
    """Reject configurations no execution core can run.

    Raises:
        ConfigurationError: naming the offending argument.
    """
    n = len(programs)
    if n == 0:
        raise ConfigurationError("a simulation needs at least one processor")
    for pid, program in enumerate(programs):
        if program.pid != pid:
            raise ConfigurationError(
                f"programs must be ordered by pid: slot {pid} holds "
                f"pid {program.pid}"
            )
    if K < 1:
        raise ConfigurationError(f"K must be at least 1, got {K}")
    if not 0 <= t < n:
        raise ConfigurationError(f"t must satisfy 0 <= t < n, got t={t}, n={n}")
    if max_steps <= 0:
        raise ConfigurationError(f"max_steps must be positive, got {max_steps}")


class Simulation:
    """Hosts ``n`` processes and drives them under one adversary.

    Args:
        programs: one :class:`~repro.sim.process.Program` per processor,
            ordered by pid (``programs[i].pid`` must equal ``i``).
        adversary: the scheduler of steps, deliveries, and crashes.
        K: the on-time bound in clock ticks (the paper's constant ``K``,
            assumed > 1 so the model does not degenerate to [FLP]).
        t: the adversary's fault budget (used for admissibility checks and
            exposed on the pattern view; protocols carry their own ``t``).
        tapes: the random-tape collection ``F``; defaults to a fresh
            collection seeded with ``seed``.
        seed: master seed for the default tape collection.
        max_steps: finite horizon standing in for an infinite run.
    """

    def __init__(
        self,
        programs: Sequence[Program],
        adversary: AdversaryProtocol,
        K: int,
        t: int,
        tapes: TapeCollection | None = None,
        seed: int = 0,
        max_steps: int = 100_000,
    ) -> None:
        # Accept any Sequence (or iterable) of programs; materialise once
        # and share the list with callers via ``self.programs`` so batch
        # helpers need not re-list it for metric extraction.
        programs = list(programs)
        n = len(programs)
        check_simulation_arguments(programs, K, t, max_steps)

        self.n = n
        self.K = K
        self.t = t
        self.max_steps = max_steps
        self.adversary = adversary
        self.programs = programs
        self.tapes = tapes if tapes is not None else TapeCollection(n, seed)
        if len(self.tapes) != n:
            raise ConfigurationError(
                f"tape collection has {len(self.tapes)} tapes for n={n}"
            )

        self.processes = [
            SimProcess(program, self.tapes.tape(pid))
            for pid, program in enumerate(programs)
        ]
        self.buffers = [MessageBuffer() for _ in range(n)]
        self.event_count = 0
        self._factory = EnvelopeFactory()
        self._rows: list[EventRow] = []
        self._envelopes: dict[MessageId, Envelope] = {}
        self._crashed: set[int] = set()
        self._last_send_event: dict[int, int] = {}
        #: Index of the first event after the last delivery, send or crash.
        self._quiet_from = 0
        self._outcome: Outcome | None = None
        self._result: SimulationResult | None = None
        # Per-processor sorted lists of the event indices at which the
        # processor took a step, for lateness (``step_events``).
        self._pid_step_events: list[list[int]] = [[] for _ in range(n)]
        self.monitor = AdmissibilityMonitor(n=n, t=t)
        # Hot-path caches for the adversary-facing pattern view.  All are
        # derived state: crashes invalidate the crash/alive caches, buffer
        # versions gate the pending-metadata cache, and the history window
        # builds pattern entries from the live rows as they are read.
        self._running_count = sum(
            1
            for proc in self.processes
            if proc.status is ProcessStatus.RUNNING
        )
        self._crashed_frozen: frozenset[int] = frozenset()
        self._alive_tuple: tuple[int, ...] = tuple(range(n))
        self._history = PatternHistory(self._rows)
        self._pending_meta: list[tuple[int, list[PendingMessage]] | None] = [
            None
        ] * n

    @property
    def view(self) -> PatternView:
        """A read-only pattern view of this simulation, for adversaries.

        Built per access and not kept, so that the simulation holds no
        reference back to itself and a finished one is freed by its
        reference count, without waiting for the cyclic collector.
        """
        return PatternView(self)

    # -- queries used by PatternView -----------------------------------------

    def process_clock(self, pid: int) -> int:
        return self.processes[pid].clock

    def crashed_pids(self) -> set[int]:
        return set(self._crashed)

    def crashed_frozen(self) -> frozenset[int]:
        """Crashed processors as a cached frozenset (invalidated on crash)."""
        return self._crashed_frozen

    def alive_pids(self) -> tuple[int, ...]:
        """Non-crashed processors, ascending (cached; invalidated on crash)."""
        return self._alive_tuple

    def pending_metadata(self, pid: int) -> list[PendingMessage]:
        """Pattern-visible metadata of ``pid``'s buffer, oldest first.

        The per-buffer list is cached against the buffer's mutation
        version and the per-envelope ``PendingMessage`` is cached on the
        envelope itself (rebuilt only if its delivery guarantee flips),
        so adversaries that consult pending metadata every decision no
        longer rebuild the metadata objects every event.
        """
        buffer = self.buffers[pid]
        cached = self._pending_meta[pid]
        if cached is not None and cached[0] == buffer.version:
            return list(cached[1])
        metadata = []
        for env in buffer:
            meta = env.pattern_meta
            if meta is None or meta.guaranteed != env.guaranteed:
                meta = PendingMessage(
                    message_id=env.message_id,
                    sender=env.sender,
                    recipient=env.recipient,
                    send_event=env.send_event,
                    send_clock=env.send_clock,
                    guaranteed=env.guaranteed,
                )
                env.pattern_meta = meta
            metadata.append(meta)
        self._pending_meta[pid] = (buffer.version, metadata)
        return list(metadata)

    def pattern_entries(self) -> list[PatternEntry]:
        return list(self._history)

    def pattern_history(self) -> PatternHistory:
        """Read-only window onto the live pattern."""
        return self._history

    def event_rows(self) -> Sequence[EventRow]:
        """The flat per-event rows recorded so far (do not mutate)."""
        return self._rows

    def step_events(self) -> Sequence[Sequence[int]]:
        """Per processor, the ascending event indices at which it stepped
        (do not mutate)."""
        return self._pid_step_events

    def envelopes(self) -> Collection[Envelope]:
        """Every envelope sent so far, in send order (do not mutate)."""
        return self._envelopes.values()

    def last_event_recipients(self) -> frozenset[int]:
        """Recipients of the envelopes sent at the latest event."""
        _kind, _actor, _clock, _delivered, sent, _decision, _halted = self._rows[-1]
        return frozenset(env.recipient for env in sent)

    # -- run loop ---------------------------------------------------------------

    def running_pids(self) -> list[int]:
        """Processors that are neither crashed nor returned."""
        return [
            pid
            for pid, proc in enumerate(self.processes)
            if proc.status is ProcessStatus.RUNNING
        ]

    def all_nonfaulty_done(self) -> bool:
        """Whether every non-crashed processor's program has returned.

        O(1): the scheduler maintains a running-processor count across
        step and crash transitions instead of rescanning every process
        each event.
        """
        return self._running_count == 0

    def run(self) -> SimulationResult:
        """Execute the simulation to termination or the step horizon."""
        self.execute()
        return self.result()

    def execute(self) -> Outcome:
        """Run to termination or the step horizon; assemble nothing.

        The outcome, decisions, crashed set and event count can be read
        off the kernel afterwards; :meth:`result` builds the
        :class:`SimulationResult` on first call.  With a metrics
        registry active the finished trial's counters are recorded here,
        once (:func:`repro.telemetry.summary.record_trial`).  With a span
        recorder active the result is built here, so that the run's spans
        nest under the span open now, and they are recorded once.
        """
        from repro.sim.parking import stock_cycle_adversary

        self._result = None
        started = time.perf_counter()
        view = PatternView(self)
        # The event count at which to look for a parked run next; past
        # the horizon when the adversary is not one that can park.
        park_check = (
            len(self._alive_tuple)
            if stock_cycle_adversary(self.adversary)
            else self.max_steps + 1
        )
        while not self.all_nonfaulty_done() and self.event_count < self.max_steps:
            try:
                decision = self.adversary.decide(view)
            except Exception:
                _log.exception(
                    "adversary %s failed deciding event %d",
                    type(self.adversary).__name__,
                    self.event_count,
                )
                raise
            self.apply(decision)
            if self.event_count >= park_check:
                park_check = self._park_check()
        outcome = (
            Outcome.TERMINATED if self.all_nonfaulty_done() else Outcome.HORIZON
        )
        if outcome is Outcome.HORIZON:
            _log.warning(
                "step horizon %d reached with processors %s still running "
                "under %s",
                self.max_steps,
                self.running_pids(),
                type(self.adversary).__name__,
            )
        self._outcome = outcome
        registry = active_registry()
        if registry is not None:
            from repro.telemetry.summary import record_trial

            record_trial(
                registry,
                self.programs,
                outcome.name.lower(),
                self.event_count,
                self._crashed,
                self.envelopes(),
                time.perf_counter() - started,
            )
        recorder = trace_spans.active_recorder()
        if recorder is not None:
            # Spans are derived post-hoc from the already-built run, so
            # tracing cannot perturb scheduling and recorded runs stay
            # byte-identical to untraced ones.
            from repro.trace.build import record_run

            run = self.result().run
            record_run(recorder, run, outcome=outcome.name.lower())
        return outcome

    def result(self) -> SimulationResult:
        """The result of the last :meth:`execute`, built once and cached."""
        if self._outcome is None:
            raise SchedulingError("result() before the simulation was executed")
        if self._result is None:
            self._result = SimulationResult(
                outcome=self._outcome,
                run=self.build_run(),
                admissibility=self.monitor.report(self),
            )
        return self._result

    def apply(self, decision: Decision) -> None:
        """Apply one adversary decision."""
        if isinstance(decision, CrashDecision):
            self._apply_crash(decision)
        elif isinstance(decision, StepDecision):
            self._apply_step(decision)
        else:  # pragma: no cover - defensive
            raise SchedulingError(f"unknown decision type: {decision!r}")

    def _park_check(self) -> int:
        """Finish the run if it is parked; else the event count to look again.

        Looks only at a cycle boundary of the (stock cycle) adversary, and
        only after a full cycle of steps that changed nothing.
        """
        adversary = self.adversary
        left_in_cycle = len(adversary._queue)
        if left_in_cycle:
            return self.event_count + left_in_cycle
        alive = self._alive_tuple
        if self.event_count - self._quiet_from >= len(alive):
            from repro.sim.parking import parked

            if parked(self.processes, self.buffers, adversary._pending_crashes):
                self._finish_parked()
        return self.event_count + len(alive)

    def _finish_parked(self) -> None:
        """Write the rest of a parked run, up to the horizon, in one go.

        The run is at a cycle boundary, so ``alive[i]`` takes events
        ``start + i``, then every ``len(alive)`` events after.  Each such
        event is what the adversary's decision and :meth:`_apply_step`
        would record for a step that delivers nothing: the adversary's
        queue, cycle and event cycles, the clock, the tape position, the
        step index and an empty row.  The program is not resumed, since
        its wait cannot be satisfied (:mod:`repro.sim.parking`).

        A finite tape that runs out first ends the run where stepping
        would: the step after its last cell is decided and ticks the
        clock, and its draw raises
        :class:`~repro.errors.TapeExhaustedError` before a row is written.
        """
        adversary = self.adversary
        alive = self._alive_tuple
        width = len(alive)
        start = self.event_count
        end = self.max_steps
        if start >= end:
            return
        for offset, pid in enumerate(alive):
            tape = self.processes[pid].tape
            if tape.length is not None:
                left = tape.length - tape.position
                end = min(end, start + offset + left * width)
        # Rows are written for events start..end-1; the adversary also
        # decides event ``end`` when a tape runs out there.
        decided = end + 1 if end < self.max_steps else end
        # Idle events go round ``alive`` once per adversary cycle, from
        # the cycle after the current one.
        taken = decided - start
        first = adversary._cycle + 1
        cycles = range(first, first - (-taken // width))
        event_cycles = [cycle for cycle in cycles for _pid in alive]
        del event_cycles[taken:]
        adversary._event_cycles += event_cycles
        adversary._cycle = cycles[-1]
        adversary._queue = list(alive[(taken - 1) % width + 1 :])
        idle = []
        for offset, pid in enumerate(alive):
            process = self.processes[pid]
            steps = range(start + offset, end, width)
            idle.append((pid, process.clock, process.decision, process.halted))
            process.clock += len(range(start + offset, decided, width))
            process.tape.advance(len(steps))
            self._pid_step_events[pid].extend(steps)
        rows = [
            ("step", pid, clock + ticks, (), (), decision, halted)
            for ticks in range(1, len(cycles) + 1)
            for pid, clock, decision, halted in idle
        ]
        del rows[end - start :]
        self._rows += rows
        self.event_count = end
        if end < self.max_steps:
            self.processes[alive[(end - start) % width]].tape.next_step_value()

    # -- decision application ------------------------------------------------

    def _apply_crash(self, decision: CrashDecision) -> None:
        pid = decision.pid
        if pid in self._crashed:
            raise SchedulingError(f"processor {pid} is already crashed")
        process = self.processes[pid]
        was_running = process.status is ProcessStatus.RUNNING
        self._crashed.add(pid)
        self._crashed_frozen = frozenset(self._crashed)
        self._alive_tuple = tuple(
            p for p in range(self.n) if p not in self._crashed
        )
        process.mark_crashed()
        if was_running:
            self._running_count -= 1
        self.monitor.record_crash(pid)
        self._quiet_from = self.event_count + 1
        # Messages sent at the crashed processor's final step lose their
        # delivery guarantee (the paper's non-guaranteed messages).  The
        # sender index answers "pending from pid" without scanning whole
        # buffers; bumping the buffer version invalidates cached
        # pattern metadata for the flipped envelopes.
        last_send = self._last_send_event.get(pid)
        if last_send is not None:
            for buffer in self.buffers:
                flipped = False
                for env in buffer.pending_from(pid):
                    if env.send_event == last_send:
                        env.guaranteed = False
                        flipped = True
                if flipped:
                    buffer.version += 1
        _log.debug(
            "processor %d crashed at event %d (clock %d)",
            pid,
            self.event_count,
            self.processes[pid].clock,
        )
        self._record_event("crash", pid, (), ())

    def _apply_step(self, decision: StepDecision) -> None:
        pid = decision.pid
        if pid in self._crashed:
            raise SchedulingError(f"cannot step crashed processor {pid}")
        buffer = self.buffers[pid]
        envelopes = buffer.take(decision.deliver)
        received: list[ReceivedPayload] = []
        for env in envelopes:
            env.receive_event = self.event_count
            for payload in env.payloads:
                received.append(
                    ReceivedPayload(
                        sender=env.sender,
                        payload=payload,
                        receive_clock=self.processes[pid].clock + 1,
                        message_id=env.message_id,
                    )
                )
        process = self.processes[pid]
        was_running = process.status is ProcessStatus.RUNNING
        outgoing = process.on_step(received)
        if was_running and process.status is not ProcessStatus.RUNNING:
            self._running_count -= 1
        sent_envelopes: list[Envelope] = []
        for recipient, payloads in outgoing:
            env = self._factory.build(
                sender=pid,
                recipient=recipient,
                payloads=payloads,
                send_event=self.event_count,
                send_clock=self.processes[pid].clock,
            )
            self._envelopes[env.message_id] = env
            self.buffers[recipient].add(env)
            sent_envelopes.append(env)
        if sent_envelopes:
            self._last_send_event[pid] = self.event_count
        if envelopes or sent_envelopes:
            self._quiet_from = self.event_count + 1
        self._pid_step_events[pid].append(self.event_count)
        self._record_event("step", pid, envelopes or (), sent_envelopes or ())

    def _record_event(
        self,
        kind: str,
        actor: int,
        delivered: Sequence[Envelope],
        sent: Sequence[Envelope],
    ) -> None:
        self.event_count += 1
        proc = self.processes[actor]
        self._rows.append(
            (kind, actor, proc.clock, delivered, sent, proc.decision, proc.halted)
        )

    # -- result assembly ---------------------------------------------------------

    def build_run(self) -> Run:
        """Assemble the full-information :class:`~repro.sim.trace.Run`."""
        events = []
        for index, row in enumerate(self._rows):
            kind, actor, clock, delivered, sent, decision, halted = row
            events.append(
                TraceEvent(
                    index=index,
                    kind=kind,
                    actor=actor,
                    clock_after=clock,
                    delivered=tuple(env.message_id for env in delivered),
                    sent=tuple(env.message_id for env in sent),
                    decision_after=decision,
                    halted_after=halted,
                )
            )
        return Run(
            n=self.n,
            t=self.t,
            K=self.K,
            events=events,
            envelopes=dict(self._envelopes),
            statuses={pid: proc.status for pid, proc in enumerate(self.processes)},
            decisions={pid: proc.decision for pid, proc in enumerate(self.processes)},
            decision_clocks={
                pid: proc.decision_clock for pid, proc in enumerate(self.processes)
            },
            outputs={pid: proc.output for pid, proc in enumerate(self.processes)},
        )
