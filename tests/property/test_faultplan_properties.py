"""Property test: within-budget FaultPlans keep Protocol 2 correct.

Hypothesis draws seeded plan shapes (crash budgets, loss levels, vote
patterns) and asserts the paper's end-to-end contract on BOTH tracks:
any plan with at most ``t`` crashes and finite loss yields unanimous
decisions among deciders, and — when the plan guarantees termination —
every nonfaulty processor decides.  The plan itself is drawn through
``FaultPlan.random``, so this also property-tests the campaign's plan
generator.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.commit import CommitProgram
from repro.faults.plan import FaultPlan
from repro.faults.sim_compile import compile_to_adversary
from repro.service.cluster import ServiceCluster, node_configs
from repro.service.virtualtime import run_virtual
from repro.sim.scheduler import Simulation

N = 5
T = 2
K = 4

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

plan_seeds = st.integers(0, 50_000)
votes_strategy = st.lists(
    st.integers(0, 1), min_size=N, max_size=N
)


def make_programs(votes):
    return [
        CommitProgram(
            pid=pid,
            n=N,
            t=T,
            initial_vote=vote,
            K=K,
            allow_sub_resilience=True,
        )
        for pid, vote in enumerate(votes)
    ]


def run_service(votes, plan, seed):
    cluster = ServiceCluster(
        node_configs(N, T, votes, K, seed), plan, seed=seed, K=K
    )
    return run_virtual(cluster.run(deadline=8.0))


def check_outcome(votes, decisions, crashed, terminated, plan):
    decided = {pid: bit for pid, bit in decisions.items() if bit is not None}
    # Agreement: never two different decisions, whatever the schedule.
    assert len(set(decided.values())) <= 1, (
        f"conflicting decisions {decided} under plan {plan.to_dict()}"
    )
    # Abort validity: a 0 vote forbids COMMIT decisions.
    if any(v == 0 for v in votes):
        assert all(bit == 0 for bit in decided.values())
    # Nonblocking: guaranteed-termination plans must terminate.
    if plan.guarantees_termination(T):
        assert terminated, (
            f"within-budget plan blocked: {plan.to_dict()}"
        )
        for pid in range(N):
            if pid not in crashed:
                assert decisions.get(pid) is not None


@given(seed=plan_seeds, votes=votes_strategy)
@SLOW
def test_within_budget_plans_keep_sim_track_correct(seed, votes):
    plan = FaultPlan.random(n=N, t=T, seed=seed, K=K)
    simulation = Simulation(
        programs=make_programs(votes),
        adversary=compile_to_adversary(plan, K=K),
        K=K,
        t=T,
        seed=seed,
        max_steps=30_000,
    )
    result = simulation.run()
    check_outcome(
        votes,
        result.decisions(),
        result.run.faulty(),
        result.terminated,
        plan,
    )


@given(seed=plan_seeds, votes=votes_strategy)
@SLOW
def test_within_budget_plans_keep_service_track_correct(seed, votes):
    plan = FaultPlan.random(n=N, t=T, seed=seed, K=K)
    result = run_service(votes, plan, seed)
    check_outcome(
        votes,
        result.decisions(),
        result.permanently_crashed,
        result.terminated,
        plan,
    )


@given(seed=plan_seeds)
@SLOW
def test_tracks_agree_on_all_commit_decision(seed):
    # With all-commit votes, whatever each track decides must agree
    # with the other track's deciders (both may also validly abort on
    # timeouts — the invariant is unanimity *within* each track, checked
    # above; across tracks we assert both stay safe and live).
    plan = FaultPlan.random(n=N, t=T, seed=seed, K=K)
    votes = [1] * N
    simulation = Simulation(
        programs=make_programs(votes),
        adversary=compile_to_adversary(plan, K=K),
        K=K,
        t=T,
        seed=seed,
        max_steps=30_000,
    )
    sim_result = simulation.run()
    run_result = run_service(votes, plan, seed)
    if plan.guarantees_termination(T):
        assert sim_result.terminated
        assert run_result.terminated
