"""Adversary base classes and composable scheduling policies.

The paper's adversary (Section 2.3) decides, from the message pattern
alone, which processor steps next, which pending messages it receives, and
which processors crash and when.  All compliant adversaries here consume
only the :class:`~repro.sim.pattern.PatternView`; the one deliberately
non-compliant adversary (:mod:`repro.adversary.omniscient`) is flagged via
:attr:`Adversary.model_compliant`.

Most interesting adversaries share a skeleton: step the alive processors in
round-robin *cycles* (the lower-bound sections of the paper use the same
cycle structure) and choose deliveries per-step through a
:class:`DeliveryPolicy`.  :class:`CycleAdversary` implements that skeleton;
concrete adversaries are mostly policy/plan combinations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.sim.decisions import CrashDecision, Decision, StepDecision
from repro.sim.message import MessageId
from repro.sim.pattern import PatternView, PendingMessage


class Adversary:
    """Base class for schedulers of steps, deliveries, and crashes.

    Attributes:
        model_compliant: true when the adversary uses only pattern
            information, as the paper's model demands.  Content-aware
            adversaries (outside the model, used to demonstrate *why* the
            secrecy assumption matters) set this to false.
    """

    model_compliant: bool = True

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)

    def decide(self, view: PatternView) -> Decision:
        """Choose the next event.  Subclasses must override."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass
class CycleContext:
    """Timing bookkeeping a :class:`DeliveryPolicy` may consult.

    Attributes:
        cycle: the current cycle number (completed round-robin sweeps).
        event_cycles: cycle number at each past event index, so a policy
            can age pending messages in cycles.  Under round-robin
            stepping, a message delivered ``d`` cycles after its send has
            every processor taking about ``d`` steps in between, so
            ``d <= K`` keeps it on time and ``d > K`` makes it late.
        rng: the adversary's private randomness.
    """

    cycle: int
    event_cycles: list[int]
    rng: random.Random


class DeliveryPolicy:
    """Chooses which pending envelopes a stepping processor receives.

    Every adversary here realises the paper's delivery choice the same
    way: a message is *held* a number of round-robin cycles that is
    drawn once, the first time the policy sees it, and remembered.  A
    policy declares that as four small methods — the **hold contract** —
    and inherits :meth:`select`, which evaluates them per pending
    message in a fixed order::

        blocked -> draw hold (memoised) -> expired -> age >= hold -> admits

    Only :meth:`hold` may consume ``rng``; the gates are pure.  Because
    the order is fixed, a blocked message draws nothing until its link
    reopens, and an expired one has already drawn, so dropping it never
    shifts the rng stream of later messages.

    The contract is also what keeps a policy on the fast core's fused
    sweep (:func:`repro.sim.fastcore.adversary_sweep_supported`): the
    sweep evaluates the same four methods over its own flat records, so
    a policy that does not override :meth:`select` is replicated
    draw-for-draw with no code of its own there.  Overriding
    :meth:`select` stays legal (the ``view`` argument is only reachable
    that way) but drops the trial to the trace-building path, counted in
    ``sim_fastcore_fallbacks_total``.

    The defaults — zero hold, no gates — deliver everything pending.
    Subclasses that define ``__init__`` must call ``super().__init__()``.
    """

    #: True for a class that keeps all four defaults.  Such a policy
    #: delivers everything pending without consulting send cycles, which
    #: a scripted prefix in front of a cycle adversary does not record.
    delivers_all = True

    #: The class's ``(blocked, expired, admits)``: each gate's function
    #: where the class overrides it, ``None`` where it keeps the no-op
    #: default.  Resolved once per class; :meth:`select` and the fast
    #: core's selector skip a ``None`` gate instead of calling it, and
    #: call the others unbound, with the policy first.
    gates: tuple = (None, None, None)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.gates = tuple(
            None if cls.keeps_default(name) else getattr(cls, name)
            for name in ("blocked", "expired", "admits")
        )
        cls.delivers_all = cls.keeps_default("hold") and not any(cls.gates)

    @classmethod
    def keeps_default(cls, name: str) -> bool:
        """Whether the class leaves method ``name`` as this base defines it."""
        return getattr(cls, name) is getattr(DeliveryPolicy, name)

    def __init__(self) -> None:
        self._holds: dict[MessageId, int] = {}

    def blocked(self, sender: int, recipient: int, cycle: int) -> bool:
        """Whether the link is down at ``cycle`` (checked before the draw)."""
        return False

    def hold(
        self, sender: int, recipient: int, send_cycle: int, rng: random.Random
    ) -> int:
        """Cycles to hold one message; called once per message."""
        return 0

    def expired(self, send_cycle: int, cycle: int) -> bool:
        """Whether the message can never be delivered any more."""
        return False

    def admits(self, recipient: int, guaranteed: bool) -> bool:
        """Final filter on a message whose hold has elapsed."""
        return True

    def select(
        self,
        view: PatternView,
        pid: int,
        pending: Sequence[PendingMessage],
        ctx: CycleContext,
    ) -> tuple[MessageId, ...]:
        """Return ids (subset of ``pending``) to deliver at this step."""
        if self.delivers_all:
            return tuple(message.message_id for message in pending)
        holds = self._holds
        cycle = ctx.cycle
        event_cycles = ctx.event_cycles
        blocked, expired, admits = self.gates
        chosen = []
        for message in pending:
            sender = message.sender
            if blocked is not None and blocked(self, sender, pid, cycle):
                continue
            send_cycle = event_cycles[message.send_event]
            hold = holds.get(message.message_id)
            if hold is None:
                hold = self.hold(sender, pid, send_cycle, ctx.rng)
                holds[message.message_id] = hold
            if expired is not None and expired(self, send_cycle, cycle):
                continue
            if cycle - send_cycle >= hold and (
                admits is None or admits(self, pid, message.guaranteed)
            ):
                chosen.append(message.message_id)
        return tuple(chosen)


class DeliverAll(DeliveryPolicy):
    """Deliver everything pending — the promptest possible schedule.

    Under round-robin stepping every message is received at the
    recipient's next step, so the run is on time for any ``K >= 1``.
    This is the contract's default behaviour, named.
    """


class DelayCycles(DeliveryPolicy):
    """Hold each message for a (possibly random) number of cycles.

    Args:
        min_cycles: smallest delivery delay, in cycles.
        max_cycles: largest delivery delay; the delay for each message is
            drawn uniformly from ``[min_cycles, max_cycles]``.

    A policy with ``max_cycles <= K`` produces on-time runs; values above
    ``K`` inject late messages.
    """

    def __init__(self, min_cycles: int = 1, max_cycles: int = 1) -> None:
        if min_cycles < 0 or max_cycles < min_cycles:
            raise ValueError(
                f"need 0 <= min_cycles <= max_cycles, got "
                f"({min_cycles}, {max_cycles})"
            )
        super().__init__()
        self.min_cycles = min_cycles
        self.max_cycles = max_cycles

    def hold(self, sender, recipient, send_cycle, rng):
        return rng.randint(self.min_cycles, self.max_cycles)


class DropNonGuaranteed(DeliveryPolicy):
    """Wrapper: never deliver non-guaranteed envelopes to chosen victims.

    Models a crash in the middle of a broadcast: the sender's final-step
    envelopes reach only the processors outside ``victims``.  Timing is
    the inner policy's; the wrapper adds the :meth:`admits` filter.
    """

    def __init__(self, inner: DeliveryPolicy, victims: set[int]) -> None:
        if not (
            isinstance(inner, DeliveryPolicy) and inner.keeps_default("select")
        ):
            raise ValueError(
                f"DropNonGuaranteed wraps hold-contract policies only; "
                f"{type(inner).__name__} overrides select"
            )
        super().__init__()
        self.inner = inner
        self.victims = set(victims)

    def blocked(self, sender, recipient, cycle):
        return self.inner.blocked(sender, recipient, cycle)

    def hold(self, sender, recipient, send_cycle, rng):
        return self.inner.hold(sender, recipient, send_cycle, rng)

    def expired(self, send_cycle, cycle):
        return self.inner.expired(send_cycle, cycle)

    def admits(self, recipient, guaranteed):
        if recipient in self.victims and not guaranteed:
            return False
        return self.inner.admits(recipient, guaranteed)


@dataclass(frozen=True)
class CrashAt:
    """One entry of a crash plan: crash ``pid`` at the start of ``cycle``."""

    pid: int
    cycle: int


class CycleAdversary(Adversary):
    """Round-robin stepping with pluggable delivery and crash behaviour.

    Steps alive processors in ascending pid order, one *cycle* per sweep.
    Before each sweep, due crash-plan entries are executed.  Deliveries are
    chosen by the :class:`DeliveryPolicy`.

    This adversary is fair by construction (every alive processor steps
    every cycle) and, with the default :class:`DeliverAll` policy, yields
    failure-free on-time runs — the well-behaved schedule under which the
    paper's commit validity condition must force commit.
    """

    def __init__(
        self,
        seed: int = 0,
        delivery: DeliveryPolicy | None = None,
        crash_plan: Sequence[CrashAt] = (),
    ) -> None:
        super().__init__(seed)
        self.delivery = delivery if delivery is not None else DeliverAll()
        self.crash_plan = sorted(crash_plan, key=lambda c: (c.cycle, c.pid))
        self._cycle = 0
        self._queue: list[int] = []
        self._event_cycles: list[int] = []
        self._pending_crashes = list(self.crash_plan)

    @property
    def cycle(self) -> int:
        """Completed round-robin sweeps so far."""
        return self._cycle

    def _context(self) -> CycleContext:
        return CycleContext(
            cycle=self._cycle, event_cycles=self._event_cycles, rng=self.rng
        )

    def _due_crash(self, view: PatternView) -> int | None:
        """Pid of the next crash-plan entry that is due, if any."""
        while self._pending_crashes:
            entry = self._pending_crashes[0]
            if entry.cycle > self._cycle:
                return None
            self._pending_crashes.pop(0)
            if entry.pid not in view.crashed():
                return entry.pid
        return None

    def decide(self, view: PatternView) -> Decision:
        if not self._queue:
            self._cycle += 1
            self._queue = view.alive()
        crash_pid = self._due_crash(view)
        if crash_pid is not None:
            self._queue = [p for p in self._queue if p != crash_pid]
            self._note_event()
            return CrashDecision(pid=crash_pid)
        while True:
            if not self._queue:
                self._cycle += 1
                self._queue = view.alive()
            pid = self._queue.pop(0)
            if pid in view.crashed():  # crashed since queued
                continue
            break
        deliver = self.delivery.select(
            view, pid, view.pending(pid), self._context()
        )
        self._note_event()
        return StepDecision(pid=pid, deliver=deliver)

    def _note_event(self) -> None:
        """Record the cycle number of the event this decision will create."""
        self._event_cycles.append(self._cycle)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(delivery={type(self.delivery).__name__}, "
            f"crashes={len(self.crash_plan)})"
        )
