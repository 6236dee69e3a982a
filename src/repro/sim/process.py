"""Processor state machines and the generator-based protocol programs.

The formal model's processor is an infinite state machine whose transition
function consumes the current state, the messages received at this event,
and one random number, and produces a new state plus at most one message
per recipient.  Writing protocols directly as transition functions is
painful, so protocols here are *programs*: Python generators that yield
:class:`~repro.sim.waits.WaitCondition` objects wherever the paper's
pseudocode says ``wait``.

:class:`SimProcess` hosts a program and exposes exactly one entry point,
:meth:`SimProcess.on_step`, which realises the application of one event
``(p, M, f)``: it ticks the clock, posts ``M`` on the bulletin board, and
advances the program through every program point whose wait is satisfied.
Everything the program does within one call is, formally, one transition.
The same ``on_step`` is driven by the deterministic simulator and by the
commit service's nodes, so the protocol under test is identical in both.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable

from repro.errors import ProtocolViolation
from repro.sim.board import BulletinBoard
from repro.sim.message import Payload, ReceivedPayload
from repro.sim.tape import RandomTape
from repro.sim.waits import Never, WaitCondition
from repro.types import ProcessStatus

#: Type of the generator a protocol program's ``run`` method returns.
Script = Generator[WaitCondition, None, object]


class Program:
    """Base class for protocol programs.

    Subclasses implement :meth:`run` as a generator and use the inherited
    helpers (``broadcast``, ``send``, ``flip``, ``decide`` ...) which proxy
    to the hosting :class:`SimProcess`.  A program must be bound to a host
    before ``run`` is iterated; the host does that automatically.

    Attributes:
        pid: this processor's identifier.
        n: total number of processors in the protocol.
    """

    def __init__(self, pid: int, n: int) -> None:
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range for n={n}")
        self.pid = pid
        self.n = n
        self._host: SimProcess | None = None

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> Script:
        """The protocol body.  Subclasses must override."""
        raise NotImplementedError

    def bind(self, host: "SimProcess") -> None:
        """Attach this program to its hosting process (kernel use only)."""
        self._host = host

    @property
    def host(self) -> "SimProcess":
        if self._host is None:
            raise ProtocolViolation(
                f"program for processor {self.pid} used before being hosted"
            )
        return self._host

    # -- API available to protocol code ------------------------------------

    @property
    def clock(self) -> int:
        """The processor's clock: number of steps taken so far."""
        return self.host.clock

    @property
    def board(self) -> BulletinBoard:
        """The bulletin board of everything received so far."""
        return self.host.board

    def send(self, to: int, payload: Payload) -> None:
        """Queue ``payload`` for processor ``to`` (self-sends post locally)."""
        self.host.queue_send(to, payload)

    def broadcast(self, payload: Payload) -> None:
        """Send ``payload`` to every processor, including the local board.

        "Broadcast" in the paper means send to all processors and does not
        imply atomicity; the kernel models mid-broadcast crashes by letting
        the adversary drop messages sent at a crashed sender's final step.
        """
        for q in range(self.n):
            self.host.queue_send(q, payload)

    def flip(self, count: int) -> list[int]:
        """Obtain ``count`` random bits from this step's random number."""
        return self.host.flip(count)

    def decide(self, value: int) -> None:
        """Enter the absorbing decision state for ``value``."""
        self.host.record_decision(value)

    @property
    def decision(self) -> int | None:
        """The decided value, or ``None`` if undecided."""
        return self.host.decision

    def set_piggyback(
        self, provider: Callable[[int], tuple[Payload, ...]]
    ) -> None:
        """Attach extra payloads to every future outgoing envelope.

        ``provider`` is called per (recipient, step) and returns payloads to
        append; Protocol 2 uses this to piggyback the GO message on every
        message sent, including those of the agreement subroutine.
        """
        self.host.piggyback_provider = provider


class SimProcess:
    """Hosts one :class:`Program` and applies events to it.

    Attributes:
        program: the protocol program being executed.
        tape: the processor's random tape (its column of ``F``).
        clock: steps taken so far (the model's clock variable).
        board: bulletin board of received payloads.
        status: RUNNING / RETURNED / CRASHED lifecycle.
        decision: decided value, or ``None``.
        output: the program's return value once it has returned.
    """

    def __init__(self, program: Program, tape: RandomTape) -> None:
        self.program = program
        self.tape = tape
        self.clock = 0
        self.board = BulletinBoard()
        self.status = ProcessStatus.RUNNING
        self.decision: int | None = None
        self.decision_clock: int | None = None
        self.output: object = None
        self.piggyback_provider: Callable[[int], tuple[Payload, ...]] | None = None
        self._script: Script | None = None
        self._pending_wait: WaitCondition | None = None
        self._outbox: dict[int, list[Payload]] = {}
        program.bind(self)

    @property
    def pid(self) -> int:
        return self.program.pid

    @property
    def n(self) -> int:
        return self.program.n

    @property
    def halted(self) -> bool:
        """Whether the program has returned (no further protocol activity)."""
        return self.status is ProcessStatus.RETURNED

    @property
    def runnable(self) -> bool:
        """Whether the pending wait is already satisfied at the current
        clock, so the next step resumes the program whatever it delivers.

        A read-only probe.  A wait that a step checked and found
        unsatisfied stays unsatisfied until the next step moves the board
        or the clock, so only a wait the last step *armed* can be in this
        state (:meth:`_advance` stops at a new wait without checking it).
        A driver that paces idle steps by a timer need not wait for the
        timer to take that step.
        """
        wait = self._pending_wait
        return (
            wait is not None
            and self.status is ProcessStatus.RUNNING
            and wait.satisfied(self.board, self.clock)
        )

    # -- services used by Program ------------------------------------------

    def queue_send(self, to: int, payload: Payload) -> None:
        """Queue an outgoing payload, or post it locally for self-sends."""
        if to == self.pid:
            self.board.post(
                ReceivedPayload(
                    sender=self.pid, payload=payload, receive_clock=self.clock
                )
            )
            return
        self._outbox.setdefault(to, []).append(payload)

    def flip(self, count: int) -> list[int]:
        """Expand bits from the current step's tape value."""
        return self.tape.flip(count)

    def record_decision(self, value: int) -> None:
        """Record an irrevocable decision.

        Raises:
            ProtocolViolation: if a different value was already decided —
                decision states are absorbing in the model.
        """
        if self.decision is not None and self.decision != value:
            raise ProtocolViolation(
                f"processor {self.pid} tried to change its decision from "
                f"{self.decision} to {value}"
            )
        if self.decision is None:
            self.decision = value
            self.decision_clock = self.clock

    # -- event application ---------------------------------------------------

    def on_step(
        self, delivered: Iterable[ReceivedPayload]
    ) -> list[tuple[int, tuple[Payload, ...]]]:
        """Apply one event: receive ``delivered`` and take one step.

        Returns the outgoing envelopes as ``(recipient, payloads)`` pairs;
        the caller (simulator or asyncio node) wraps them in transport
        envelopes.  Calling ``on_step`` on a crashed process is a kernel
        error; calling it on a returned process just ticks the clock and
        posts the messages (a returned processor keeps absorbing messages
        but sends nothing — its protocol activity is over).
        """
        if self.status is ProcessStatus.CRASHED:
            raise ProtocolViolation(
                f"crashed processor {self.pid} cannot take steps"
            )
        self.clock += 1
        self.tape.next_step_value()
        for entry in delivered:
            self.board.post(
                ReceivedPayload(
                    sender=entry.sender,
                    payload=entry.payload,
                    receive_clock=self.clock,
                    message_id=entry.message_id,
                )
            )
        if self.status is ProcessStatus.RUNNING:
            self._advance()
        return self._flush_outbox()

    def mark_crashed(self) -> None:
        """Fail-stop this processor (kernel use only)."""
        self.status = ProcessStatus.CRASHED

    # -- internals -----------------------------------------------------------

    def _advance(self) -> None:
        """Resume the program across at most one wait this step.

        The paper's ``wait`` construct is checked once per step: "after a
        wait is encountered in its program, each time a processor takes a
        step it posts the messages received and then checks if the
        condition following the wait has been achieved".  So one step runs
        one program segment: if the pending wait is satisfied, the program
        resumes and executes (computing, sending) up to the *next* wait,
        where it stops until the following step even if that wait is
        already satisfiable.  Besides fidelity, this bounds the work and
        randomness any single transition can consume.
        """
        if self._script is None:
            self._script = self.program.run()
            self._step_script(first=True)
            return
        wait = self._pending_wait
        assert wait is not None
        if wait.satisfied(self.board, self.clock):
            self._step_script(first=False)

    def _step_script(self, first: bool) -> None:
        """Resume the generator once and arm the next wait (or finish)."""
        assert self._script is not None
        try:
            if first:
                wait = next(self._script)
            else:
                wait = self._script.send(None)
        except StopIteration as stop:
            self.status = ProcessStatus.RETURNED
            self.output = stop.value
            self._pending_wait = Never()
            return
        wait.arm(self.clock)
        self._pending_wait = wait

    def _flush_outbox(self) -> list[tuple[int, tuple[Payload, ...]]]:
        """Pack this step's sends into per-recipient payload tuples."""
        out: list[tuple[int, tuple[Payload, ...]]] = []
        for recipient in sorted(self._outbox):
            payloads = list(self._outbox[recipient])
            if self.piggyback_provider is not None:
                payloads.extend(self.piggyback_provider(recipient))
            out.append((recipient, tuple(payloads)))
        self._outbox.clear()
        return out
