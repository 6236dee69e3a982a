"""The standard adversary roster: well-behaved and delaying schedulers.

These are the bread-and-butter adversaries of the experiments:

* :class:`SynchronousAdversary` — lockstep cycles, everything delivered at
  the recipient's next step.  Failure-free and on-time: the schedule under
  which commit validity must force commit.
* :class:`OnTimeAdversary` — random delivery delays bounded by ``K``
  cycles, so runs stay on time while exercising real asynchrony.
* :class:`LateMessageAdversary` — a fraction of messages is held past
  ``K`` cycles, producing late messages.  Protocol 2 must stay safe (it may
  abort); the synchronous baselines of [S]/[DS] may produce wrong answers.
"""

from __future__ import annotations

from typing import Sequence

from repro.adversary.base import (
    CrashAt,
    CycleAdversary,
    DelayCycles,
    DeliveryPolicy,
)


class SynchronousAdversary(CycleAdversary):
    """Round-robin, deliver-at-next-step.  On time for any ``K >= 1``."""

    def __init__(self, seed: int = 0, crash_plan: Sequence[CrashAt] = ()) -> None:
        super().__init__(seed=seed, crash_plan=crash_plan)


class OnTimeAdversary(CycleAdversary):
    """Random per-message delays of 1..max_delay cycles, all on time.

    A message held ``d`` cycles can have a processor take ``d + 1`` steps
    between its send and its receive (one step in the send cycle after
    the send event, plus one per held cycle), so staying on time requires
    ``d <= K - 1``.

    Args:
        K: the model's on-time bound; must be at least 2 (the paper
            assumes ``K > 1`` — with ``K = 1`` "messages would always be
            late" and the model degenerates to [FLP]).
        max_delay: optional cap below the default ``K - 1``.
    """

    def __init__(
        self,
        K: int,
        seed: int = 0,
        max_delay: int | None = None,
        crash_plan: Sequence[CrashAt] = (),
    ) -> None:
        if K < 2:
            raise ValueError(
                f"OnTimeAdversary needs K >= 2 to have room for on-time "
                f"jitter, got K={K}"
            )
        cap = K - 1 if max_delay is None else max_delay
        if cap > K - 1:
            raise ValueError(
                f"max_delay {cap} exceeds K-1={K - 1}; use "
                f"LateMessageAdversary to inject late messages deliberately"
            )
        super().__init__(
            seed=seed,
            delivery=DelayCycles(min_cycles=1, max_cycles=max(1, cap)),
            crash_plan=crash_plan,
        )


class _SpikeDelays(DeliveryPolicy):
    """Mostly-prompt delivery with occasional long holds.

    Each message is late with probability ``late_probability``; late
    messages wait ``late_delay`` cycles, others are delivered next cycle.
    Optionally only messages from ``target_senders`` are eligible to be
    late, which lets experiments aim the misbehaviour at, e.g., the
    coordinator's decision fan-out in 2PC.
    """

    def __init__(
        self,
        late_probability: float,
        late_delay: int,
        target_senders: set[int] | None,
    ) -> None:
        if not 0.0 <= late_probability <= 1.0:
            raise ValueError(f"probability out of range: {late_probability}")
        super().__init__()
        self.late_probability = late_probability
        self.late_delay = late_delay
        self.target_senders = target_senders

    def hold(self, sender, recipient, send_cycle, rng):
        eligible = self.target_senders is None or sender in self.target_senders
        if eligible and rng.random() < self.late_probability:
            return self.late_delay
        return 1


class LateMessageAdversary(CycleAdversary):
    """Injects late messages: some deliveries are held past ``K`` cycles.

    Args:
        K: the on-time bound being violated.
        late_probability: chance each (eligible) message is made late.
        lateness_factor: late messages wait ``lateness_factor * K`` cycles.
        target_senders: restrict lateness to messages from these senders.
    """

    def __init__(
        self,
        K: int,
        seed: int = 0,
        late_probability: float = 0.1,
        lateness_factor: int = 3,
        target_senders: set[int] | None = None,
        crash_plan: Sequence[CrashAt] = (),
    ) -> None:
        if lateness_factor < 2:
            raise ValueError(
                "lateness_factor must be at least 2 so held messages are "
                "unambiguously late"
            )
        super().__init__(
            seed=seed,
            delivery=_SpikeDelays(
                late_probability=late_probability,
                late_delay=lateness_factor * K,
                target_senders=target_senders,
            ),
            crash_plan=crash_plan,
        )
