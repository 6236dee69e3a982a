"""A pattern-based anti-convergence adversary.

Ben-Or-family protocols converge when enough processors see the *same*
first-phase messages.  This adversary tries to prevent that using pattern
information only (it never sees values): it splits the processors into two
camps and, whenever a processor steps, delivers preferentially the oldest
messages *from its own camp*, holding cross-camp traffic as long as
fairness allows.  Against Ben-Or with local coins this sustains divergent
views; against Protocol 1 the shared coin list defeats it — the adversary
must fix the delivery pattern of a stage before the (hidden) coin for that
stage is consumed, which is exactly the paper's argument for constant
expected stages.

The hold window is bounded (``hold_cycles``) so the adversary stays fair
and admissible: guaranteed messages are delivered within a bounded number
of cycles, merely as late as the window allows.
"""

from __future__ import annotations

from repro.adversary.base import CycleAdversary, DeliveryPolicy


class _CampPolicy(DeliveryPolicy):
    """Prompt same-camp delivery, held cross-camp delivery."""

    def __init__(self, camp_of: dict[int, int], hold_cycles: int) -> None:
        super().__init__()
        self.camp_of = camp_of
        self.hold_cycles = hold_cycles

    def hold(self, sender, recipient, send_cycle, rng):
        same_camp = self.camp_of.get(sender) == self.camp_of.get(recipient)
        return 1 if same_camp else self.hold_cycles


class SplitVoteAdversary(CycleAdversary):
    """Camps the processors and skews each camp's view of the other.

    Args:
        n: number of processors.
        hold_cycles: how many cycles cross-camp messages are held.  Values
            above ``K`` also make those messages late.
    """

    def __init__(self, n: int, hold_cycles: int = 2, seed: int = 0) -> None:
        if hold_cycles < 1:
            raise ValueError(f"hold_cycles must be >= 1, got {hold_cycles}")
        camp_of = {pid: (0 if pid < (n + 1) // 2 else 1) for pid in range(n)}
        super().__init__(
            seed=seed, delivery=_CampPolicy(camp_of, hold_cycles)
        )
        self.camp_of = camp_of
        self.hold_cycles = hold_cycles
