"""The link-fault seam of the in-memory service bus.

A :class:`LinkFaultPolicy` decides the fate of each transmission attempt
on a directed link: drop it, inject duplicate copies, or hold it for
extra delay.  :class:`~repro.service.bus.ServiceBus` consults one per
attempt; the campaign's plan-driven policy is
:class:`~repro.service.cluster.PlanLinkFaults`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LinkVerdict:
    """What the link layer does to one transmission attempt.

    Attributes:
        drop: lose this copy entirely (a retransmission may follow).
        duplicates: extra copies injected beyond the first.
        extra_delay: additional delivery latency in seconds.
    """

    drop: bool = False
    duplicates: int = 0
    extra_delay: float = 0.0


class LinkFaultPolicy:
    """Decides the fate of each transmission attempt on a directed link.

    Implementations must be deterministic given the supplied ``rng`` (the
    bus's private, seeded randomness) so that fault campaigns are
    replayable.  ``now`` is the event-loop clock, letting policies model
    time-windowed behaviour such as transient partitions.
    """

    def verdict(
        self, sender: int, recipient: int, now: float, rng: random.Random
    ) -> LinkVerdict:
        raise NotImplementedError
