"""Delivery policies realising the zoo's timing models in cycle time.

Each policy runs under the stock
:class:`~repro.adversary.base.CycleAdversary` chassis — round-robin
stepping, crash plans, per-step delivery selection — and owns *link
timing* only.  When compiled from a :class:`~repro.faults.plan.FaultPlan`
the plan's partitions still sever links (crashes are executed by the
adversary's crash plan); the plan's own delay/loss draws are replaced by
the model's, which is the point of selecting a model.

Determinism: per-link synchrony classes are assigned by keyed hashing
(:func:`~repro.engine.seeds.derive_keyed` over ``(sender, recipient)``),
so a link's class never depends on message arrival order; per-message
hold draws use the adversary's own rng, like every existing policy.
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.adversary.base import DeliveryPolicy
from repro.engine.seeds import MODEL_LINK_STREAM, derive_keyed
from repro.faults.plan import FaultPlan

#: Granular synchrony's per-link classes.
SYNC, PSYNC, ASYNC = "sync", "psync", "async"


@lru_cache(maxsize=1 << 14)
def link_class(
    seed: int,
    sender: int,
    recipient: int,
    sync_fraction: float,
    psync_fraction: float,
) -> str:
    """The directed link's granular-synchrony class, by keyed hashing.

    A pure function of its arguments, so the delivery policy and the
    model checker's classifier (:mod:`repro.models.mcfilter`) agree on
    every link without sharing state.  Both ask once per message or
    prospective step; the bounded cache spares them the generator
    construction (a trial touches at most ``n * n`` links).
    """
    draw = random.Random(
        derive_keyed(seed, MODEL_LINK_STREAM, sender, recipient)
    ).random()
    if draw < sync_fraction:
        return SYNC
    if draw < sync_fraction + psync_fraction:
        return PSYNC
    return ASYNC


class _ModelPolicy(DeliveryPolicy):
    """Shared chassis: a compiled plan's partitions still sever links."""

    def __init__(self, K: int, seed: int, plan: FaultPlan | None = None):
        super().__init__()
        self.K = K
        self.seed = seed
        self.plan = plan

    def blocked(self, sender, recipient, cycle):
        plan = self.plan
        return plan is not None and plan.severed(sender, recipient, cycle)


class GranularPolicy(_ModelPolicy):
    """Granular synchrony: per-link sync/psync/async classes (2408.12853).

    Every directed link is assigned one class, deterministically from
    the model seed: **sync** links deliver at the recipient's next cycle
    (within any ``K >= 1``); **psync** links are arbitrarily late before
    the global stabilisation time and K-bounded after it; **async**
    links have no on-time bound but still deliver within a finite cap,
    so the network as a whole preserves eventual delivery.
    """

    def __init__(
        self,
        K: int,
        seed: int,
        plan: FaultPlan | None = None,
        sync_fraction: float = 0.34,
        psync_fraction: float = 0.33,
        gst_cycles: int | None = None,
        psync_pre_gst_max: int | None = None,
        async_max: int | None = None,
    ) -> None:
        super().__init__(K, seed, plan)
        self.sync_fraction = sync_fraction
        self.psync_fraction = psync_fraction
        self.gst_cycles = 3 * K if gst_cycles is None else gst_cycles
        self.psync_pre_gst_max = (
            3 * K if psync_pre_gst_max is None else psync_pre_gst_max
        )
        self.async_max = 4 * K if async_max is None else async_max

    def link_class(self, sender: int, recipient: int) -> str:
        """The directed link's class, fixed by the model seed."""
        return link_class(
            self.seed, sender, recipient, self.sync_fraction, self.psync_fraction
        )

    def hold(self, sender, recipient, send_cycle, rng):
        cls = self.link_class(sender, recipient)
        if cls == SYNC:
            return 1
        if cls == PSYNC:
            if send_cycle < self.gst_cycles:
                return rng.randint(1, max(1, self.psync_pre_gst_max))
            return rng.randint(1, self.K)
        return rng.randint(1, max(1, self.async_max))


class RandomAsyncPolicy(_ModelPolicy):
    """The random asynchronous model (2502.09116): seeded random holds.

    Delivery timing is drawn from a capped geometric distribution
    instead of chosen adversarially; with probability
    ``worst_case_probability`` a message instead gets the worst-case
    hold, the knob that interpolates back toward the adversarial model.
    All holds are finite, so eventual delivery is preserved.
    """

    def __init__(
        self,
        K: int,
        seed: int,
        plan: FaultPlan | None = None,
        delivery_rate: float = 0.45,
        worst_case_probability: float = 0.05,
        worst_case_hold: int | None = None,
        max_hold: int | None = None,
    ) -> None:
        super().__init__(K, seed, plan)
        self.delivery_rate = delivery_rate
        self.worst_case_probability = worst_case_probability
        self.worst_case_hold = 3 * K if worst_case_hold is None else worst_case_hold
        self.max_hold = 4 * K if max_hold is None else max_hold

    def hold(self, sender, recipient, send_cycle, rng):
        if (
            self.worst_case_probability
            and rng.random() < self.worst_case_probability
        ):
            return self.worst_case_hold
        hold = 1
        while hold < self.max_hold and rng.random() >= self.delivery_rate:
            hold += 1
        return hold


class RoundClosedPolicy(_ModelPolicy):
    """Communication-closed rounds (1804.07078): miss your round, drop.

    Cycle time is blocked into rounds of ``round_cycles``; a message is
    deliverable only inside the round it was sent in.  Holds are drawn
    up to ``hold_max``, so a message sent near its round boundary can
    genuinely miss the round and be dropped permanently — this model
    does **not** preserve eventual delivery, and the paper's nonblocking
    guarantee is void under it (safety must still hold).
    """

    def __init__(
        self,
        K: int,
        seed: int,
        plan: FaultPlan | None = None,
        round_cycles: int | None = None,
        hold_max: int | None = None,
    ) -> None:
        super().__init__(K, seed, plan)
        self.round_cycles = 3 * K if round_cycles is None else round_cycles
        self.hold_max = K if hold_max is None else hold_max

    def hold(self, sender, recipient, send_cycle, rng):
        return rng.randint(1, max(1, self.hold_max))

    def expired(self, send_cycle, cycle):
        # The round closed; the message is dropped for good.
        deadline = (send_cycle // self.round_cycles + 1) * self.round_cycles
        return cycle >= deadline
