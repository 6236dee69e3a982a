"""Hypothesis equivalence properties: fast core ≡ reference core.

Randomized vote vectors, fault plans, and scripted-adversary schedules
(including the model checker's prefix re-execution shape) must produce
identical observables under both execution cores — byte-identical
serialized runs for the full-trace layer, object-equal metrics for the
sweep layer.
"""

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
from repro.adversary.scripted import ScriptedAdversary
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
from repro.sim.fastcore import (
    FastSimulation,
    sweep_eligible,
)
from repro.sim.scheduler import Simulation
from repro.telemetry.runio import run_to_records

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


def _run(sim_class, votes, adversary, K, t, seed, max_steps=20_000):
    simulation = sim_class(
        programs=_programs(votes, K, t),
        adversary=adversary,
        K=K,
        t=t,
        seed=seed,
        max_steps=max_steps,
    )
    attach = getattr(adversary, "attach", None)
    if attach is not None:
        attach(simulation)
    return simulation.run()


def _assert_cores_agree(votes, adversary_factory, K, t, seed):
    reference = _run(Simulation, votes, adversary_factory(), K, t, seed)
    fast = _run(FastSimulation, votes, adversary_factory(), K, t, seed)
    assert fast.run == reference.run
    assert run_to_records(fast.run) == run_to_records(reference.run)


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
        assert sweep_eligible(adversary(seed))
        fast = run_commit_trial(config, seed, core="fast")
        assert fast == run_commit_trial(config, seed, core="reference")


class TestRunEquivalence:
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
        _assert_cores_agree(
            votes, lambda: compile_to_adversary(plan, K=4), 4, t, plan_seed
        )

    @QUICK
    @given(
        votes=votes_strategy,
        seed=st.integers(0, 2**16),
        prefix_length=st.integers(0, 30),
    )
    def test_scripted_prefix_re_execution(self, votes, seed, prefix_length):
        # The model checker's unit of work: replay a recorded decision
        # prefix on a fresh simulation, then complete deterministically.
        n = len(votes)
        t = (n - 1) // 2
        recorder = Simulation(
            programs=_programs(votes, 4, t),
            adversary=OnTimeAdversary(K=4, seed=seed),
            K=4,
            t=t,
            seed=seed,
            max_steps=20_000,
        )
        schedule = []
        while (
            not recorder.all_nonfaulty_done()
            and len(schedule) < prefix_length
        ):
            decision = recorder.adversary.decide(recorder.view)
            schedule.append(decision)
            recorder.apply(decision)

        def scripted():
            return ScriptedAdversary(
                tuple(schedule),
                then=CycleAdversary(seed=seed, delivery=DeliverAll()),
            )

        _assert_cores_agree(votes, scripted, 4, t, seed)
