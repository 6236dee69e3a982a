"""Tests for the adversary building blocks (policies, cycle skeleton)."""

import random

import pytest

from repro.adversary.base import (
    CrashAt,
    CycleAdversary,
    CycleContext,
    DelayCycles,
    DeliverAll,
    DropNonGuaranteed,
)
from repro.sim.pattern import PendingMessage
from tests.conftest import make_commit_simulation


def pending(mid: int, sender: int = 0, send_event: int = 0, guaranteed=True):
    return PendingMessage(
        message_id=mid,
        sender=sender,
        recipient=1,
        send_event=send_event,
        send_clock=1,
        guaranteed=guaranteed,
    )


def context(cycle: int, event_cycles: list[int]) -> CycleContext:
    return CycleContext(
        cycle=cycle, event_cycles=event_cycles, rng=random.Random(0)
    )


class TestDeliverAll:
    def test_selects_everything(self):
        policy = DeliverAll()
        chosen = policy.select(
            None, 1, [pending(1), pending(2)], context(1, [0, 0])
        )
        assert chosen == (1, 2)


class TestDelayCycles:
    def test_validation(self):
        with pytest.raises(ValueError):
            DelayCycles(min_cycles=3, max_cycles=2)
        with pytest.raises(ValueError):
            DelayCycles(min_cycles=-1)

    def test_holds_until_age_reached(self):
        policy = DelayCycles(min_cycles=3, max_cycles=3)
        ctx_young = context(1, [0])
        assert policy.select(None, 1, [pending(1)], ctx_young) == ()
        ctx_old = context(3, [0])
        assert policy.select(None, 1, [pending(1)], ctx_old) == (1,)

    def test_delay_is_assigned_once(self):
        # The base class draws the hold the first time it sees the
        # message and never again: a second select consumes no rng.
        policy = DelayCycles(min_cycles=1, max_cycles=10)
        ctx = context(0, [0])
        policy.select(None, 1, [pending(5)], ctx)
        first = policy._holds[5]
        state = ctx.rng.getstate()
        policy.select(None, 1, [pending(5)], ctx)
        assert policy._holds == {5: first}
        assert ctx.rng.getstate() == state


class TestDropNonGuaranteed:
    def test_suppresses_for_victims_only(self):
        inner = DeliverAll()
        policy = DropNonGuaranteed(inner, victims={1})
        messages = [pending(1, guaranteed=False), pending(2, guaranteed=True)]
        ctx = context(1, [0, 0])
        assert policy.select(None, 1, messages, ctx) == (2,)
        assert policy.select(None, 3, messages, ctx) == (1, 2)


class TestCycleAdversary:
    def test_cycle_counter_advances(self):
        adversary = CycleAdversary()
        sim, _ = make_commit_simulation([1] * 3, t=1, adversary=adversary)
        for _ in range(7):
            sim.apply(adversary.decide(sim.view))
        assert adversary.cycle == 3  # ceil(7 / 3)

    def test_crash_plan_order_respected(self):
        adversary = CycleAdversary(
            crash_plan=[CrashAt(pid=2, cycle=2), CrashAt(pid=1, cycle=1)]
        )
        sim, _ = make_commit_simulation(
            [1] * 3, t=1, adversary=adversary, max_steps=100
        )
        result = sim.run()
        crashes = [e.actor for e in result.run.events if e.kind == "crash"]
        assert crashes == [1, 2]

    def test_crashed_pid_skipped_in_rotation(self):
        adversary = CycleAdversary(crash_plan=[CrashAt(pid=0, cycle=1)])
        sim, _ = make_commit_simulation(
            [1] * 3, t=1, adversary=adversary, max_steps=60
        )
        result = sim.run()
        steps_by_zero = [
            e
            for e in result.run.events
            if e.kind == "step" and e.actor == 0
        ]
        assert steps_by_zero == []
