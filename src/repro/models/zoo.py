"""The non-realistic members of the timing-model zoo.

Each model here compiles a :class:`~repro.faults.plan.FaultPlan` to a
sim-track adversary that keeps the plan's crashes and partitions but
replaces its link timing with the model's own (see
:mod:`repro.models.policies`), and — where the model restricts rather
than randomises scheduling — supplies a model-checker choice classifier
(:mod:`repro.models.mcfilter`).  Granular synchrony additionally maps
onto the runtime track as per-class link-delay overrides.

The policies keep to the delivery hold contract
(:class:`~repro.adversary.base.DeliveryPolicy`), so these adversaries
run on the fast core's fused sweep like the stock ones.
"""

from __future__ import annotations

import dataclasses

from repro.adversary.base import CrashAt, CycleAdversary
from repro.faults.plan import FaultPlan, LinkDelay
from repro.models import mcfilter
from repro.models.base import Knob, TimingModel, register
from repro.models.policies import (
    ASYNC,
    PSYNC,
    SYNC,
    GranularPolicy,
    RandomAsyncPolicy,
    RoundClosedPolicy,
)


class _PolicyModel(TimingModel):
    """Shared plan-compilation chassis for policy-backed models."""

    def compile_plan(self, plan: FaultPlan, K: int, seed: int):
        return CycleAdversary(
            seed=seed,
            delivery=self._policy(K=K, seed=seed, plan=plan),
            crash_plan=[
                CrashAt(pid=c.pid, cycle=c.cycle) for c in plan.crashes
            ],
        )

    def _policy(self, K: int, seed: int, plan: FaultPlan | None = None):
        raise NotImplementedError


class GranularModel(_PolicyModel):
    """Granular synchrony: mixed sync/psync/async links with GST."""

    name = "granular"
    summary = (
        "per-link synchrony classes (sync/psync/async) with per-class "
        "delay bounds and a global stabilisation time"
    )
    source = "Granular Synchrony (arXiv 2408.12853)"
    tracks = ("sim", "runtime")
    mc_supported = True
    preserves_eventual_delivery = True
    knobs = (
        Knob("sync_fraction", 0.34, "fraction of links that are synchronous"),
        Knob(
            "psync_fraction",
            0.33,
            "fraction of links that are partially synchronous "
            "(the rest are asynchronous)",
        ),
        Knob("gst_cycles", "3*K", "global stabilisation time, in cycles"),
        Knob(
            "psync_pre_gst_max",
            "3*K",
            "largest psync-link hold before GST, in cycles",
        ),
        Knob("async_max", "4*K", "largest async-link hold, in cycles"),
    )

    def _policy(self, K, seed, plan=None):
        return GranularPolicy(K=K, seed=seed, plan=plan)

    def runtime_plan(self, plan: FaultPlan, K: int) -> FaultPlan:
        """Granular links as per-link delay overrides on the transport.

        The runtime transport already executes per-link delay windows;
        mapping each directed link's class onto its per-class bound is
        the model's faithful runtime analogue.  The plan's own
        link_delays are replaced (the model owns link timing); crashes,
        partitions, and loss entries ride through unchanged.
        """
        policy = GranularPolicy(K=K, seed=plan.seed)
        bounds = {
            SYNC: (1, 1),
            PSYNC: (1, policy.psync_pre_gst_max),
            ASYNC: (1, policy.async_max),
        }
        delays = tuple(
            LinkDelay(
                sender=sender,
                recipient=recipient,
                min_cycles=bounds[policy.link_class(sender, recipient)][0],
                max_cycles=bounds[policy.link_class(sender, recipient)][1],
            )
            for sender in range(plan.n)
            for recipient in range(plan.n)
            if sender != recipient
        )
        return dataclasses.replace(plan, link_delays=delays)

    def mc_classifier(self, config):
        return mcfilter.granular_classifier(config)


class RandomAsyncModel(_PolicyModel):
    """The random asynchronous model: seeded random scheduling."""

    name = "random-async"
    summary = (
        "delivery timing drawn from a seeded capped-geometric "
        "distribution instead of adversarial choice"
    )
    source = "random asynchronous model (arXiv 2502.09116)"
    tracks = ("sim",)
    mc_supported = True
    preserves_eventual_delivery = True
    knobs = (
        Knob(
            "delivery_rate",
            0.45,
            "per-cycle geometric delivery probability",
        ),
        Knob(
            "worst_case_probability",
            0.05,
            "chance a message draws the worst-case hold instead "
            "(interpolates back toward the adversarial model)",
        ),
        Knob("worst_case_hold", "3*K", "the worst-case hold, in cycles"),
        Knob("max_hold", "4*K", "hard cap on any hold, in cycles"),
    )

    def _policy(self, K, seed, plan=None):
        return RandomAsyncPolicy(K=K, seed=seed, plan=plan)

    def mc_classifier(self, config):
        return mcfilter.random_async_classifier(config)


class RoundClosedModel(_PolicyModel):
    """Communication-closed rounds: miss your round and be dropped."""

    name = "round-closed"
    summary = (
        "communication-closed rounds: messages not delivered in the "
        "round they were sent are dropped permanently"
    )
    source = "communication-closed protocols (arXiv 1804.07078)"
    tracks = ("sim",)
    mc_supported = True
    preserves_eventual_delivery = False
    knobs = (
        Knob("round_cycles", "3*K", "cycles per communication-closed round"),
        Knob("hold_max", "K", "largest in-round hold, in cycles"),
    )

    def _policy(self, K, seed, plan=None):
        return RoundClosedPolicy(K=K, seed=seed, plan=plan)

    def mc_classifier(self, config):
        return mcfilter.round_closed_classifier(config)


register(GranularModel())
register(RandomAsyncModel())
register(RoundClosedModel())
