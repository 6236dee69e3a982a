"""Partitioning adversary: delays all cross-group traffic for a while.

A transient network partition is the classic scenario in which synchronous
commit protocols with timeout actions go wrong: each side times out and
takes its termination action, and when the partition heals the two sides
may have decided differently.  In the paper's model a partition is just a
pattern of (very) late messages, so Protocol 2 must remain safe through it.
"""

from __future__ import annotations

from typing import Sequence

from repro.adversary.base import CrashAt, CycleAdversary, DeliveryPolicy


class _PartitionPolicy(DeliveryPolicy):
    """Withholds cross-group envelopes while the partition is up."""

    def __init__(
        self, groups: Sequence[frozenset[int]], start_cycle: int, heal_cycle: int
    ) -> None:
        super().__init__()
        self.groups = list(groups)
        self.start_cycle = start_cycle
        self.heal_cycle = heal_cycle

    def _group_of(self, pid: int) -> int:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        return -1

    def blocked(self, sender, recipient, cycle):
        return (
            self.start_cycle <= cycle < self.heal_cycle
            and self._group_of(sender) != self._group_of(recipient)
        )

    def hold(self, sender, recipient, send_cycle, rng):
        return 1


class PartitionAdversary(CycleAdversary):
    """Splits the processors into groups and blocks cross-traffic.

    Args:
        groups: disjoint processor groups; unlisted processors form an
            implicit extra group.
        start_cycle: cycle at which the partition comes up.
        heal_cycle: cycle at which it heals (all held traffic becomes
            deliverable again).  With ``heal_cycle - start_cycle > K`` the
            held messages are late, so healed runs are not on time and
            Protocol 2 is free to abort — but must stay consistent.
    """

    def __init__(
        self,
        groups: Sequence[set[int]],
        start_cycle: int = 0,
        heal_cycle: int = 10**9,
        seed: int = 0,
        crash_plan: Sequence[CrashAt] = (),
    ) -> None:
        if heal_cycle < start_cycle:
            raise ValueError(
                f"heal_cycle {heal_cycle} before start_cycle {start_cycle}"
            )
        frozen = [frozenset(g) for g in groups]
        seen: set[int] = set()
        for group in frozen:
            if group & seen:
                raise ValueError("partition groups must be disjoint")
            seen |= group
        super().__init__(
            seed=seed,
            delivery=_PartitionPolicy(frozen, start_cycle, heal_cycle),
            crash_plan=crash_plan,
        )
