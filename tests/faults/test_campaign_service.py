"""Campaign tests for the service track: config gates and trial sweeps."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import (
    CampaignConfig,
    TrialCase,
    execute_trial_case,
    run_campaign,
)
from repro.faults.plan import CrashFault, FaultPlan
from repro.telemetry.registry import MetricsRegistry, use_registry


class TestConfigGates:
    def test_recovery_probability_requires_service_track(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(recovery_probability=0.5)
        with pytest.raises(ConfigurationError):
            CampaignConfig(
                recovery_probability=0.5, tracks=("sim", "service")
            )
        config = CampaignConfig(recovery_probability=0.5, tracks=("service",))
        assert config.recovery_probability == 0.5

    def test_recovery_probability_range_checked(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(recovery_probability=1.5, tracks=("service",))

    def test_dict_form_stays_backward_compatible(self):
        # Pre-service reports must stay byte-identical: the new key is
        # emitted only when the feature is in use.
        assert "recovery_probability" not in CampaignConfig().to_dict()
        doc = CampaignConfig(
            recovery_probability=0.5, tracks=("service",)
        ).to_dict()
        assert doc["recovery_probability"] == 0.5

    def test_recovery_plans_rejected_on_fail_stop_tracks(self):
        plan = FaultPlan(
            n=3, crashes=(CrashFault(pid=1, cycle=2, recover_cycle=6),)
        )
        with pytest.raises(ConfigurationError):
            TrialCase(n=3, t=1, K=4, votes=(1, 1, 1), plan=plan, seed=0)
        case = TrialCase(
            n=3,
            t=1,
            K=4,
            votes=(1, 1, 1),
            plan=plan,
            seed=0,
            tracks=("service",),
        )
        assert case.tracks == ("service",)


class TestServiceTrialExecution:
    def test_kill_recover_trial_reports_recoveries(self):
        plan = FaultPlan(
            n=5,
            crashes=(
                CrashFault(pid=0, cycle=3, recover_cycle=10),
                CrashFault(pid=2, cycle=4, recover_cycle=12),
            ),
        )
        case = TrialCase(
            n=5,
            t=2,
            K=4,
            votes=(1, 1, 1, 1, 1),
            plan=plan,
            seed=17,
            tracks=("service",),
            deadline=8.0,
        )
        result = execute_trial_case(case)
        service = result["tracks"]["service"]
        assert service["outcome"] == "terminated"
        assert set(service["decisions"]) == {1}
        assert service["recoveries"] == 2
        assert service["crashed"] == []


class TestServiceCampaign:
    def test_small_service_sweep_is_safe(self):
        config = CampaignConfig(
            n=5,
            plans=6,
            base_seed=400,
            tracks=("service",),
            recovery_probability=0.75,
            deadline=8.0,
        )
        report = run_campaign(config, workers=1)
        summary = report["summary"]
        assert summary["safety_violations"] == 0
        service = summary["tracks"]["service"]["service"]
        assert service["recoveries"] >= 0
        assert "transfer_decisions" in service


class TestMultiTxnConfigGates:
    def test_multi_txn_requires_service_track(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(txns=4)
        with pytest.raises(ConfigurationError):
            CampaignConfig(shards=2, tracks=("sim", "service"))
        config = CampaignConfig(txns=4, shards=2, tracks=("service",))
        assert config.txns == 4
        assert config.shards == 2

    def test_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(txns=0, tracks=("service",))
        with pytest.raises(ConfigurationError):
            CampaignConfig(shards=0, tracks=("service",))
        with pytest.raises(ConfigurationError):
            CampaignConfig(
                txns=2, commit_bias=1.5, tracks=("service",)
            )

    def test_dict_form_stays_backward_compatible(self):
        assert "txns" not in CampaignConfig().to_dict()
        doc = CampaignConfig(
            txns=4, shards=2, commit_bias=0.9, tracks=("service",)
        ).to_dict()
        assert doc["txns"] == 4
        assert doc["shards"] == 2
        assert doc["commit_bias"] == 0.9


class TestMultiTxnTrialCase:
    def _plan(self, n):
        return FaultPlan(n=n)

    def test_plan_must_span_the_sharded_cluster(self):
        with pytest.raises(ConfigurationError):
            TrialCase(
                n=3,
                t=1,
                K=4,
                votes=(1, 1, 1),
                plan=self._plan(3),  # needs n * shards = 6
                seed=0,
                tracks=("service",),
                txns=4,
                shards=2,
            )

    def test_multi_txn_is_service_only(self):
        with pytest.raises(ConfigurationError):
            TrialCase(
                n=3,
                t=1,
                K=4,
                votes=(1, 1, 1),
                plan=self._plan(3),
                seed=0,
                txns=2,
            )

    def test_dict_roundtrip_preserves_workload(self):
        case = TrialCase(
            n=3,
            t=1,
            K=4,
            votes=(1, 1, 1),
            plan=self._plan(6),
            seed=5,
            tracks=("service",),
            txns=4,
            shards=2,
            commit_bias=0.8,
        )
        clone = TrialCase.from_dict(case.to_dict())
        assert clone.txns == 4
        assert clone.shards == 2
        assert clone.commit_bias == 0.8
        assert clone.multi_txn
        # Single-txn docs stay free of the new keys.
        single = TrialCase(
            n=3, t=1, K=4, votes=(1, 1, 1), plan=self._plan(3), seed=5
        )
        assert "txns" not in single.to_dict()

    def test_permanent_crash_voids_termination_obligation(self):
        # A permanently-dead coordinator of one group must not be read
        # as a liveness violation for that group's transactions.
        dead_coordinator = FaultPlan(
            n=6, crashes=(CrashFault(pid=3, cycle=2),)
        )
        case = TrialCase(
            n=3,
            t=1,
            K=4,
            votes=(1, 1, 1),
            plan=dead_coordinator,
            seed=0,
            tracks=("service",),
            txns=4,
            shards=2,
        )
        assert not case.expect_termination


class TestMultiTxnTrialExecution:
    def test_kill_recover_trial_decides_every_txn(self):
        plan = FaultPlan(
            n=6,
            crashes=(
                CrashFault(pid=1, cycle=3, recover_cycle=12),
                CrashFault(pid=4, cycle=5, recover_cycle=14),
            ),
        )
        case = TrialCase(
            n=3,
            t=1,
            K=4,
            votes=(1, 1, 1),
            plan=plan,
            seed=23,
            tracks=("service",),
            deadline=8.0,
            txns=4,
            shards=2,
        )
        result = execute_trial_case(case)
        service = result["tracks"]["service"]
        assert service["outcome"] == "terminated"
        assert service["txns"]["submitted"] == 4
        assert service["txns"]["decided"] == 4
        assert service["txns"]["undecided"] == {}
        assert service["recoveries"] == 2
        assert service["safety"]["safety_ok"]
        assert service["safety"]["liveness_ok"]
        assert service["safety"]["violations"] == []


class TestMultiTxnCampaign:
    def test_small_multi_txn_sweep_is_safe(self):
        config = CampaignConfig(
            n=3,
            plans=4,
            base_seed=700,
            tracks=("service",),
            recovery_probability=0.75,
            deadline=8.0,
            txns=3,
            shards=2,
        )
        report = run_campaign(config, workers=1)
        assert report["summary"]["safety_violations"] == 0
        assert report["config"]["txns"] == 3
        assert report["config"]["shards"] == 2


def _family_total(registry, name):
    family = registry.snapshot().get(name, {"samples": []})
    return sum(sample["value"] for sample in family["samples"])


class TestServiceProtocolCounters:
    """Each (node, transaction) instance is counted once, however often
    recovery replays it: the counters come from the instance's finished
    ``CommitStats``, never from a step."""

    def test_campaign_counts_each_instance_once(self):
        config = CampaignConfig(
            n=3,
            plans=20,
            base_seed=3,
            tracks=("service",),
            recovery_probability=1.0,
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            report = run_campaign(config, workers=1)
        services = [trial["tracks"]["service"] for trial in report["trials"]]
        assert sum(service["recoveries"] for service in services) > 0
        decided = sum(
            sum(1 for bit in service["decisions"] if bit is not None)
            - service["transfer_decisions"]
            for service in services
        )
        assert _family_total(registry, "commit_decisions_total") == decided
        assert (
            _family_total(registry, "commit_votes_total")
            <= config.plans * config.n
        )

    def test_closed_instances_counted_once_across_recoveries(self):
        from repro.service.virtualtime import run_virtual
        from repro.service.cluster import (
            ServiceCluster,
            TxnWorkload,
            shard_configs,
        )

        n, txns = 3, 6
        plan = FaultPlan(
            n=n, crashes=(CrashFault(pid=1, cycle=15, recover_cycle=40),)
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            cluster = ServiceCluster(
                shard_configs(1, n, t=1, K=4, seed=11),
                plan,
                seed=11,
                snapshot_every=4,
                workload=TxnWorkload.open_loop(txns, 50.0, 0.002),
            )
            result = run_virtual(cluster.run(deadline=8.0))
        assert result.terminated
        assert result.recoveries == 1
        assert _family_total(registry, "service_txns_closed_total") > 0
        decided = sum(
            1
            for node in cluster.nodes.values()
            for instance in node.mux.instances.values()
            if instance.decision_origin == "process"
        )
        assert decided > 0
        assert _family_total(registry, "commit_decisions_total") == decided
        assert _family_total(registry, "commit_votes_total") <= n * txns
