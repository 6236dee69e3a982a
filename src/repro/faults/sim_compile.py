"""Compile a FaultPlan to a simulator adversary.

The deterministic track already has the right chassis: the
:class:`~repro.adversary.base.CycleAdversary` steps alive processors in
round-robin cycles, executes a crash plan, and delegates delivery to a
:class:`~repro.adversary.base.DeliveryPolicy`.  A fault plan therefore
compiles to a crash plan plus one composite policy that realises the
plan's link behaviour in *cycle* time:

* **partition windows** withhold cross-group envelopes while up;
* **drop** becomes a long hold (the dropped copy never arrives, the
  retransmitted one does — in the simulator the two are
  indistinguishable, so a drop is "delivery after a recovery delay");
* **reorder** holds an envelope a few extra cycles so later traffic
  overtakes it;
* **duplication** has no simulator counterpart (the receiver-side dedup
  of the service track makes duplicates invisible to the protocol, and
  the simulator's buffers deliver each envelope at most once), so it
  compiles to a no-op;
* **per-link delay overrides** replace the base hold outright.

Every hold is finite and partitions heal, so compiled adversaries
preserve eventual delivery: within-budget plans remain schedules under
which Protocol 2 must terminate, not just stay safe.
"""

from __future__ import annotations

from repro.adversary.base import CrashAt, CycleAdversary, DeliveryPolicy
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan


class _PlanPolicy(DeliveryPolicy):
    """Delivery policy realising a FaultPlan's link behaviour in cycles."""

    def __init__(self, plan: FaultPlan, K: int) -> None:
        super().__init__()
        self.plan = plan
        self.K = K
        #: Recovery delay of a dropped copy, in cycles: comfortably past
        #: the on-time bound, so drops manufacture genuinely late
        #: messages, yet finite, so delivery stays eventual.
        self.drop_penalty = 3 * K

    def blocked(self, sender, recipient, cycle):
        return self.plan.severed(sender, recipient, cycle)

    def hold(self, sender, recipient, send_cycle, rng):
        plan = self.plan
        delay = plan.delay_for(sender, recipient)
        if delay is not None:
            hold = rng.randint(delay.min_cycles, delay.max_cycles)
        else:
            hold = 1
        loss = plan.loss_for(sender, recipient)
        if loss.reorder and rng.random() < loss.reorder:
            hold += rng.randint(1, self.K)
        if loss.drop and rng.random() < loss.drop:
            hold += self.drop_penalty
        return hold


class FaultPlanAdversary(CycleAdversary):
    """A CycleAdversary executing one :class:`FaultPlan`.

    Args:
        plan: the fault schedule to realise.
        K: the protocol's on-time bound (scales reorder holds and the
            drop recovery penalty).
        seed: adversary randomness; defaults to the plan's own seed so a
            plan is one self-contained, replayable object.
    """

    def __init__(self, plan: FaultPlan, K: int = 4, seed: int | None = None) -> None:
        super().__init__(
            seed=plan.seed if seed is None else seed,
            delivery=_PlanPolicy(plan, K),
            crash_plan=[
                CrashAt(pid=c.pid, cycle=c.cycle) for c in plan.crashes
            ],
        )
        self.plan = plan

    def __repr__(self) -> str:
        return (
            f"FaultPlanAdversary(n={self.plan.n}, "
            f"crashes={self.plan.crash_count}, "
            f"partitions={len(self.plan.partitions)})"
        )


def compile_to_adversary(plan: FaultPlan, K: int = 4) -> FaultPlanAdversary:
    """Compile ``plan`` for the deterministic simulator track.

    Raises:
        ConfigurationError: when the plan schedules crash *recoveries* —
            the simulator models the paper's fail-stop crashes only; a
            plan with ``recover_cycle`` entries belongs to the service
            track (:mod:`repro.service`).
    """
    if plan.has_recoveries:
        raise ConfigurationError(
            "plan schedules crash recoveries; the sim track is fail-stop "
            "only — run it on the service track instead"
        )
    return FaultPlanAdversary(plan, K=K)
