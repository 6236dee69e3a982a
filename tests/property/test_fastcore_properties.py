"""Hypothesis equivalence properties: fused sweep ≡ reference kernel.

Randomized vote vectors, fault plans and delivery policies must produce
object-equal results on both execution cores: the ``RunMetrics`` bundle
of a commit trial, and the campaign record plus ``RunMetrics`` of a
fault-plan trial.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.base import (
    CrashAt,
    CycleAdversary,
    DelayCycles,
    DeliverAll,
    DeliveryPolicy,
    DropNonGuaranteed,
)
from repro.adversary.partition import _PartitionPolicy
from repro.adversary.splitter import _CampPolicy
from repro.adversary.standard import (
    LateMessageAdversary,
    OnTimeAdversary,
    SynchronousAdversary,
    _SpikeDelays,
)
from repro.analysis.montecarlo import CommitTrialConfig, run_commit_trial
from repro.core.commit import CommitProgram
from repro.faults.plan import FaultPlan
from repro.faults.sim_compile import _PlanPolicy, compile_to_adversary
from repro.models.policies import (
    GranularPolicy,
    RandomAsyncPolicy,
    RoundClosedPolicy,
    _ModelPolicy,
)
from repro.sim.coreselect import run_sim_trial
from repro.sim.fastcore import adversary_sweep_supported

QUICK = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ADVERSARIES = {
    "synchronous": lambda K, seed: SynchronousAdversary(seed=seed),
    "ontime": lambda K, seed: OnTimeAdversary(K=K, seed=seed),
    "late": lambda K, seed: LateMessageAdversary(K=K, seed=seed),
}

#: Every stock delivery policy, built over one fault plan: the plan's
#: crashes become the crash plan (so ``guaranteed`` flags vary), its
#: partitions and link faults feed the policies that take a plan.
POLICIES = {
    DeliverAll: lambda plan, K, seed: DeliverAll(),
    DelayCycles: lambda plan, K, seed: DelayCycles(1, K + 1),
    _SpikeDelays: lambda plan, K, seed: _SpikeDelays(0.2, 3 * K, {0, 1}),
    _PlanPolicy: lambda plan, K, seed: _PlanPolicy(plan, K),
    _PartitionPolicy: lambda plan, K, seed: _PartitionPolicy(
        [frozenset(range(plan.n // 2))], 1, K + 3
    ),
    _CampPolicy: lambda plan, K, seed: _CampPolicy(
        {pid: pid % 2 for pid in range(plan.n)}, K + 1
    ),
    GranularPolicy: lambda plan, K, seed: GranularPolicy(K, seed, plan),
    RandomAsyncPolicy: lambda plan, K, seed: RandomAsyncPolicy(K, seed, plan),
    RoundClosedPolicy: lambda plan, K, seed: RoundClosedPolicy(K, seed, plan),
    DropNonGuaranteed: lambda plan, K, seed: DropNonGuaranteed(
        DelayCycles(1, 2), victims={0, 1}
    ),
}

votes_strategy = st.lists(st.integers(0, 1), min_size=3, max_size=8)


def _programs(votes, K, t):
    return [
        CommitProgram(pid=pid, n=len(votes), t=t, initial_vote=vote, K=K)
        for pid, vote in enumerate(votes)
    ]


class TestTrialEquivalence:
    @QUICK
    @given(
        votes=votes_strategy,
        # OnTimeAdversary needs K >= 2 for its on-time jitter window.
        K=st.integers(2, 5),
        seed=st.integers(0, 2**20),
        adversary=st.sampled_from(sorted(ADVERSARIES)),
    )
    def test_sweep_metrics_equal_reference(self, votes, K, seed, adversary):
        factory = ADVERSARIES[adversary]
        config = CommitTrialConfig(
            votes=votes,
            adversary_factory=lambda s: factory(K, s),
            K=K,
            max_steps=20_000,
        )
        fast = run_commit_trial(config, seed, core="fast")
        assert fast == run_commit_trial(config, seed)

    @QUICK
    @given(
        votes=votes_strategy,
        seed=st.integers(0, 2**20),
        crash_cycle=st.integers(1, 6),
        crash_pid=st.integers(0, 7),
    )
    def test_sweep_with_random_crash(self, votes, seed, crash_cycle, crash_pid):
        config = CommitTrialConfig(
            votes=votes,
            adversary_factory=lambda s: OnTimeAdversary(
                K=4,
                seed=s,
                crash_plan=[
                    CrashAt(cycle=crash_cycle, pid=crash_pid % len(votes))
                ],
            ),
            K=4,
            max_steps=20_000,
        )
        fast = run_commit_trial(config, seed, core="fast")
        assert fast == run_commit_trial(config, seed)


class TestKnownCounterexamples:
    """Examples that fail today, on both cores, because of a known
    defect: pinned so that the fix has to flip them.

    The lateness defect of ROADMAP.md item 1: a vote held back for 3K
    cycles is never delivered before all three processors time out and
    decide ABORT, ``Run.is_late`` answers False for an undelivered
    envelope, so the run reads on time with all-commit votes and the
    trial's own commit-validity check fires.
    """

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="undelivered overdue messages are not counted as late",
    )
    @pytest.mark.parametrize("core", ["reference", "fast"])
    def test_late_vote_k3_seed47(self, core):
        config = CommitTrialConfig(
            votes=[1, 1, 1],
            adversary_factory=lambda s: LateMessageAdversary(K=3, seed=s),
            K=3,
        )
        run_commit_trial(config, 47, core=core)


def _stock_policy_classes():
    found, stack = set(), [DeliveryPolicy]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro.") and cls is not _ModelPolicy:
                found.add(cls)
    return found


class TestHoldContract:
    def test_table_covers_every_stock_policy(self):
        assert _stock_policy_classes() == set(POLICIES)

    def test_no_stock_policy_overrides_select(self):
        for cls in _stock_policy_classes():
            assert cls.select is DeliveryPolicy.select, cls

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        policy=st.sampled_from(sorted(POLICIES, key=lambda c: c.__name__)),
        votes=votes_strategy,
        plan_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**20),
        over_budget=st.booleans(),
    )
    def test_sweep_equals_reference_for_every_policy(
        self, policy, votes, plan_seed, seed, over_budget
    ):
        n = len(votes)
        t = (n - 1) // 2
        plan = FaultPlan.random(
            n=n, t=t, seed=plan_seed, K=4, over_budget=over_budget and t < n - 1
        )

        def adversary(trial_seed):
            return CycleAdversary(
                seed=trial_seed,
                delivery=POLICIES[policy](plan, 4, trial_seed),
                crash_plan=[CrashAt(pid=c.pid, cycle=c.cycle) for c in plan.crashes],
            )

        config = CommitTrialConfig(
            votes=votes, adversary_factory=adversary, t=t, K=4, max_steps=6_000
        )
        assert adversary_sweep_supported(adversary(seed))
        fast = run_commit_trial(config, seed, core="fast")
        assert fast == run_commit_trial(config, seed, core="reference")


class TestFaultPlanTrials:
    @QUICK
    @given(
        votes=votes_strategy,
        plan_seed=st.integers(0, 2**16),
        over_budget=st.booleans(),
    )
    def test_fault_plans(self, votes, plan_seed, over_budget):
        n = len(votes)
        t = (n - 1) // 2
        plan = FaultPlan.random(
            n=n, t=t, seed=plan_seed, K=4, over_budget=over_budget and t < n - 1
        )
        assert adversary_sweep_supported(compile_to_adversary(plan, K=4))
        reference, fast = (
            run_sim_trial(
                _programs(votes, 4, t),
                compile_to_adversary(plan, K=4),
                4,
                t,
                plan_seed,
                20_000,
                core,
            )
            for core in ("reference", "fast")
        )
        assert fast == reference
        assert fast.metrics() == reference.metrics()
