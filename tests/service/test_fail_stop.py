"""The paper's fail-stop model on the service: kills that never restart.

A :class:`~repro.faults.plan.CrashFault` without ``recover_cycle`` is the
paper's crash — the node is killed and stays dead.  These pin the
graceful degradation the paper proves: up to ``t`` crashes leave the
survivors deciding one value; more than ``t`` may block them, which the
cluster reports as ``NONTERMINATED`` with the undecided nodes named —
never a hang, never two values.  Every run is on the virtual clock.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import CrashFault, FaultPlan
from repro.faults.safety import NONTERMINATED, TERMINATED
from repro.service.bus import FixedDelay, SpikeDelay, UniformDelay
from repro.service.cluster import ServiceCluster, node_configs
from repro.service.txn import DEFAULT_TXN, ShardMap
from repro.service.virtualtime import run_virtual

T, K = 2, 4


def run(votes=(1, 1, 1, 1, 1), crashes=(), t=T, seed=3, deadline=8.0, **kw):
    configs = node_configs(len(votes), t, list(votes), K, seed, **kw.pop(
        "config", {}
    ))
    plan = FaultPlan(n=len(votes), crashes=tuple(crashes))
    cluster = ServiceCluster(configs, plan, seed=seed, K=K, **kw)
    return run_virtual(cluster.run(deadline=deadline))


def survivors(result):
    return {
        pid: decision
        for pid, decision in result.decisions(DEFAULT_TXN).items()
        if pid not in result.permanently_crashed
    }


class TestValidation:
    def test_requires_nodes(self):
        with pytest.raises(ConfigurationError):
            ServiceCluster([])

    def test_shard_map_must_cover_the_cluster(self):
        configs = node_configs(3, 1, [1, 1, 1], K, seed=0)
        with pytest.raises(ConfigurationError):
            ServiceCluster(configs, shard_map=ShardMap(shards=2, group_size=3))

    def test_crash_target_in_range(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(n=3, crashes=(CrashFault(pid=5, cycle=1),))


class TestFaultFree:
    def test_uniform_delays_decide_one_value(self):
        result = run(delay=UniformDelay(), seed=1)
        assert result.outcome == TERMINATED
        assert None not in result.decisions(DEFAULT_TXN).values()
        assert result.consistent

    def test_spiky_network_stays_consistent(self):
        result = run(delay=SpikeDelay(late_probability=0.2), seed=3)
        assert result.terminated
        assert result.consistent

    def test_decisions_map_complete(self):
        result = run(votes=(1, 1, 1), t=1, delay=FixedDelay(0.001), seed=5)
        assert set(result.decisions(DEFAULT_TXN)) == {0, 1, 2}
        assert result.undecided == {}
        assert result.bus_stats["delivered"] > 0


class TestWithinBudget:
    def test_crash_before_vote(self):
        # Pid 4 dies in the first cycle, before its vote reaches anyone;
        # the survivors time out on it and agree.
        result = run(crashes=[CrashFault(pid=4, cycle=1)])
        assert result.outcome == TERMINATED
        assert result.permanently_crashed == {4}
        decided = survivors(result)
        assert set(decided) == {0, 1, 2, 3}
        assert None not in decided.values()
        assert len(set(decided.values())) == 1

    def test_crash_mid_agreement(self):
        result = run(crashes=[CrashFault(pid=3, cycle=3)])
        assert result.outcome == TERMINATED
        assert result.permanently_crashed == {3}
        assert result.recoveries == 0
        assert len(result.decision_values()) == 1

    def test_two_crashes_still_terminate(self):
        result = run(
            crashes=[CrashFault(pid=3, cycle=1), CrashFault(pid=4, cycle=3)]
        )
        assert result.outcome == TERMINATED
        assert result.permanently_crashed == {3, 4}
        assert None not in survivors(result).values()

    def test_decides_at_n_equals_2t_plus_1(self):
        # Theorem 14's resilient side: kill t of 2t + 1 and the rest
        # decide; a vote that never arrived can only mean abort.
        result = run(
            crashes=[CrashFault(pid=pid, cycle=1) for pid in range(1, T + 1)],
            delay=FixedDelay(0.001),
            seed=5,
        )
        assert result.terminated
        assert None not in survivors(result).values()
        assert result.decision_values() == {0}


class TestOverBudget:
    CRASHES = [CrashFault(pid=pid, cycle=1) for pid in (2, 3, 4)]

    def test_more_than_t_crashes_report_nonterminated(self):
        result = run(crashes=self.CRASHES, deadline=3.0)
        assert result.outcome == NONTERMINATED
        assert not result.terminated
        assert result.permanently_crashed == {2, 3, 4}
        assert len(result.decision_values()) <= 1  # never two answers

    def test_nonterminated_result_names_the_undecided(self):
        result = run(crashes=self.CRASHES, deadline=2.0)
        assert result.outcome == NONTERMINATED
        undecided = {
            pid for pid, decision in survivors(result).items()
            if decision is None
        }
        assert undecided
        assert result.undecided == {pid: [DEFAULT_TXN] for pid in undecided}
        assert result.bus_stats["delivered"] > 0

    def test_coordinator_lost_before_go_blocks_everyone(self):
        result = run(crashes=[CrashFault(pid=0, cycle=0)], deadline=1.0)
        assert result.outcome == NONTERMINATED
        assert result.decision_values() == set()
        assert sorted(result.undecided) == [1, 2, 3, 4]


@pytest.mark.parametrize("variant", ["commit", "broken-commit"])
def test_service_hosts_registered_variants(variant):
    """The node runs whatever program the variant registry builds; a
    clean unanimous run commits under the paper's protocol and under the
    planted-bug variant alike (its bug needs a timeout to fire)."""
    result = run(config={"variant": variant}, seed=2)
    assert result.terminated
    assert result.decision_values() == {1}


@pytest.mark.parametrize("variant", ["commit", "broken-commit"])
def test_a_no_vote_aborts_every_variant(variant):
    result = run(votes=(1, 0, 1, 1, 1), config={"variant": variant}, seed=2)
    assert result.terminated
    assert result.decision_values() == {0}
