"""Tests for compiling FaultPlans to each execution track."""

import random

import pytest

from repro.adversary.base import CrashAt
from repro.core.commit import CommitProgram
from repro.faults.plan import (
    CrashFault,
    FaultPlan,
    LinkDelay,
    LinkLoss,
    PartitionWindow,
)
from repro.faults.sim_compile import compile_to_adversary
from repro.service.cluster import PlanLinkFaults, node_configs
from repro.service.node import Reliability, ServiceNode
from repro.service.wal import MemoryWalStore
from repro.sim.scheduler import Simulation
from repro.types import Decision


def commit_programs(votes, t=2, K=4):
    return [
        CommitProgram(
            pid=pid,
            n=len(votes),
            t=t,
            initial_vote=vote,
            K=K,
            allow_sub_resilience=True,
        )
        for pid, vote in enumerate(votes)
    ]


class TestSimCompile:
    def test_crash_plan_is_translated(self):
        plan = FaultPlan(
            n=5, crashes=(CrashFault(pid=3, cycle=2), CrashFault(pid=4, cycle=5))
        )
        adversary = compile_to_adversary(plan)
        assert sorted(adversary.crash_plan, key=lambda c: c.pid) == [
            CrashAt(pid=3, cycle=2),
            CrashAt(pid=4, cycle=5),
        ]

    def test_clean_plan_terminates_with_commit(self):
        plan = FaultPlan(n=5, seed=4)
        simulation = Simulation(
            programs=commit_programs([1] * 5),
            adversary=compile_to_adversary(plan),
            K=4,
            t=2,
            seed=4,
            max_steps=20_000,
        )
        result = simulation.run()
        assert result.terminated
        assert set(result.decisions().values()) == {int(Decision.COMMIT)}

    def test_lossy_partitioned_plan_still_terminates(self):
        # Drops become finite holds and partitions heal, so a
        # within-budget plan must still terminate.
        plan = FaultPlan(
            n=5,
            seed=8,
            crashes=(CrashFault(pid=4, cycle=3),),
            partitions=(
                PartitionWindow(groups=((0, 1),), start_cycle=2, heal_cycle=9),
            ),
            loss=LinkLoss(drop=0.3, duplicate=0.2, reorder=0.3),
        )
        simulation = Simulation(
            programs=commit_programs([1] * 5),
            adversary=compile_to_adversary(plan),
            K=4,
            t=2,
            seed=8,
            max_steps=40_000,
        )
        result = simulation.run()
        assert result.terminated
        decided = {b for b in result.decisions().values() if b is not None}
        assert len(decided) == 1

    def test_same_plan_same_trace(self):
        plan = FaultPlan.random(n=5, t=2, seed=21)

        def run_once():
            sim = Simulation(
                programs=commit_programs([1, 1, 0, 1, 1]),
                adversary=compile_to_adversary(plan),
                K=4,
                t=2,
                seed=21,
                max_steps=20_000,
            )
            result = sim.run()
            return result.decisions(), result.run.event_count

        assert run_once() == run_once()


class TestServiceLinkFaults:
    def test_node_reliability_scales_by_tick(self):
        (config,) = node_configs(1, 0, [1], K=4, seed=0)
        node = ServiceNode(
            config, MemoryWalStore(), lambda *_: None, tick_interval=0.01
        )
        assert node.reliability.base_timeout == 0.06
        assert node.reliability.max_retries is None

    def test_reliability_rejects_bad_config(self):
        with pytest.raises(ValueError):
            Reliability(base_timeout=0.0)
        with pytest.raises(ValueError):
            Reliability(base_timeout=0.1, max_backoff=0.01)
        with pytest.raises(ValueError):
            Reliability(jitter=2.0)

    def test_severed_link_always_drops(self):
        plan = FaultPlan(
            n=4,
            partitions=(
                PartitionWindow(groups=((0, 1),), start_cycle=0, heal_cycle=50),
            ),
        )
        policy = PlanLinkFaults(plan, tick_interval=0.01)
        rng = random.Random(0)
        verdict = policy.verdict(0, 2, now=0.2, rng=rng)  # cycle 20, severed
        assert verdict.drop
        same_group = policy.verdict(0, 1, now=0.2, rng=rng)
        assert not same_group.drop

    def test_healed_link_stops_dropping(self):
        plan = FaultPlan(
            n=4,
            partitions=(
                PartitionWindow(groups=((0, 1),), start_cycle=0, heal_cycle=5),
            ),
        )
        policy = PlanLinkFaults(plan, tick_interval=0.01)
        rng = random.Random(0)
        assert not policy.verdict(0, 2, now=0.06, rng=rng).drop  # cycle 6

    def test_tick_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanLinkFaults(FaultPlan(n=3), tick_interval=0.0)

    def test_drop_rate_follows_the_plan(self):
        plan = FaultPlan(n=3, loss=LinkLoss(drop=0.5))
        policy = PlanLinkFaults(plan, tick_interval=0.01)
        rng = random.Random(3)
        drops = sum(policy.verdict(0, 1, 0.0, rng).drop for _ in range(400))
        assert 150 <= drops <= 250

    def test_certain_duplication_always_duplicates(self):
        plan = FaultPlan(n=3, loss=LinkLoss(duplicate=1.0))
        policy = PlanLinkFaults(plan, tick_interval=0.01)
        rng = random.Random(4)
        for _ in range(20):
            verdict = policy.verdict(1, 2, 0.0, rng)
            assert verdict.duplicates == 1
            assert not verdict.drop

    def test_link_override_applies_to_its_link_only(self):
        plan = FaultPlan(n=3, link_loss=((0, 1, LinkLoss(duplicate=1.0)),))
        policy = PlanLinkFaults(plan, tick_interval=0.01)
        rng = random.Random(5)
        assert policy.verdict(0, 1, 0.0, rng).duplicates == 1
        assert policy.verdict(1, 0, 0.0, rng).duplicates == 0

    def test_link_delay_scales_by_tick(self):
        plan = FaultPlan(
            n=3,
            link_delays=(
                LinkDelay(sender=0, recipient=2, min_cycles=2, max_cycles=3),
            ),
        )
        policy = PlanLinkFaults(plan, tick_interval=0.01)
        rng = random.Random(6)
        for _ in range(20):
            assert 0.02 <= policy.verdict(0, 2, 0.0, rng).extra_delay <= 0.03
        assert policy.verdict(2, 0, 0.0, rng).extra_delay == 0.0

    def test_reorder_hold_is_at_most_K_ticks(self):
        plan = FaultPlan(n=3, loss=LinkLoss(reorder=1.0))
        policy = PlanLinkFaults(plan, tick_interval=0.01, K=4)
        rng = random.Random(7)
        holds = [policy.verdict(0, 1, 0.0, rng).extra_delay for _ in range(50)]
        assert all(0.01 <= hold <= 0.04 for hold in holds)
        assert len(set(holds)) > 1

    def test_lossless_plan_yields_clean_verdicts(self):
        plan = FaultPlan(n=3)
        policy = PlanLinkFaults(plan, tick_interval=0.01)
        rng = random.Random(1)
        for _ in range(20):
            verdict = policy.verdict(0, 1, now=0.0, rng=rng)
            assert not verdict.drop
            assert verdict.duplicates == 0
            assert verdict.extra_delay == 0.0
