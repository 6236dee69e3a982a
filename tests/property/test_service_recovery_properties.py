"""Property test: WAL replay reconstructs byte-identical node state.

Hypothesis draws random kill/recover schedules (through
``FaultPlan.random`` with a high recovery probability — the same
generator the service campaign track uses) plus vote patterns, runs the
cluster on the virtual clock, and asserts the crash-recovery contract:

* agreement holds across every kill, restart, and torn tail;
* each node's durable records — snapshot plus log suffix — replay to a
  multiplexer digest identical to the live node the records came from,
  which is exactly the property restart recovery relies on.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.service.cluster import ServiceCluster, node_configs
from repro.service.recovery import replay
from repro.service.virtualtime import run_virtual
from repro.service.wal import durable_records

N, T, K = 5, 2, 4

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

plan_seeds = st.integers(0, 50_000)
votes_strategy = st.lists(st.integers(0, 1), min_size=N, max_size=N)
snapshot_periods = st.sampled_from([0, 7])


@SLOW
@given(seed=plan_seeds, votes=votes_strategy, snapshot_every=snapshot_periods)
def test_replay_reconstructs_live_state(seed, votes, snapshot_every):
    plan = FaultPlan.random(N, T, seed, K=K, recovery_probability=0.9)
    configs = node_configs(N, T, votes, K, seed)
    cluster = ServiceCluster(
        configs,
        plan,
        seed=seed,
        K=K,
        snapshot_every=snapshot_every,
        torn_tail_probability=0.5,
    )
    result = run_virtual(cluster.run(deadline=8.0))

    # Safety: no schedule of kills, restarts, and torn tails may ever
    # produce two different decisions.
    assert result.consistent, (
        f"conflicting decisions {result.decisions(0)} under plan "
        f"{plan.to_dict()}"
    )
    if any(v == 0 for v in votes):
        assert all(d in (0, None) for d in result.decisions(0).values())

    # Durability: every surviving WAL replays to the exact state of the
    # live process that wrote it.
    for pid in range(N):
        if pid not in cluster.nodes:
            continue
        records = durable_records(cluster.stores[pid]).records
        if not records:
            continue
        replayed = replay(records, expect_config=configs[pid])
        live = cluster.nodes[pid]
        assert replayed.mux.digest() == live.mux.digest(), (
            f"p{pid} replay diverged from live state under plan "
            f"{plan.to_dict()}"
        )
        assert replayed.decisions() == live.decisions()
