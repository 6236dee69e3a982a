"""Golden cross-core tests: the fast core must match the reference.

Two layers of contract, matching the two layers of the fast core:

* :class:`FastSimulation` produces byte-identical runs — checked as
  ``Run`` equality *and* equality of the serialized run-trace records
  (:func:`repro.telemetry.runio.run_to_records`), which covers events,
  envelopes, decisions, and pattern histories;
* the sweep path of ``run_commit_trial(..., core="fast")`` produces
  metrics equal (as Python objects) to the reference trial runner's.
"""

import pytest

from repro.adversary.base import CrashAt, CycleAdversary, DeliverAll
from repro.adversary.crash import ScheduledCrashAdversary
from repro.adversary.random_walk import RandomAdversary
from repro.adversary.scripted import ScriptedAdversary
from repro.adversary.standard import (
    LateMessageAdversary,
    OnTimeAdversary,
    SynchronousAdversary,
)
from repro.analysis.montecarlo import CommitTrialConfig, run_commit_trial
from repro.core.commit import CommitProgram
from repro.faults.plan import FaultPlan
from repro.faults.sim_compile import compile_to_adversary
from repro.sim.coreselect import set_default_sim_core
from repro.sim.fastcore import FastSimulation, sweep_eligible
from repro.sim.scheduler import Simulation
from repro.telemetry.runio import run_to_records


def _programs(votes, K=4, t=None):
    n = len(votes)
    if t is None:
        t = (n - 1) // 2
    return [
        CommitProgram(pid=pid, n=n, t=t, initial_vote=vote, K=K)
        for pid, vote in enumerate(votes)
    ]


def _run(sim_class, votes, adversary, K=4, t=None, seed=0, max_steps=50_000):
    n = len(votes)
    if t is None:
        t = (n - 1) // 2
    simulation = sim_class(
        programs=_programs(votes, K=K, t=t),
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

def assert_byte_identical(votes, adversary_factory, K=4, seed=0, **kwargs):
    """Run both cores from fresh adversaries; require identical runs."""
    reference = _run(
        Simulation, votes, adversary_factory(), K=K, seed=seed, **kwargs
    )
    fast = _run(
        FastSimulation, votes, adversary_factory(), K=K, seed=seed, **kwargs
    )
    assert fast.run == reference.run
    assert run_to_records(fast.run) == run_to_records(reference.run)
    assert fast.terminated == reference.terminated
    assert fast.run.decisions == reference.run.decisions
    return reference, fast


class TestFastSimulationGoldenTraces:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: SynchronousAdversary(seed=seed),
            lambda seed: OnTimeAdversary(K=4, seed=seed),
            lambda seed: LateMessageAdversary(K=4, seed=seed),
        ],
        ids=["synchronous", "ontime", "late"],
    )
    def test_standard_adversaries(self, factory, seed):
        assert_byte_identical(
            [1, 1, 0, 1, 1], lambda: factory(seed), seed=seed
        )

    def test_all_commit_votes(self):
        assert_byte_identical(
            [1] * 7, lambda: OnTimeAdversary(K=4, seed=3), seed=3
        )

    def test_crash_plan(self):
        assert_byte_identical(
            [1, 1, 1, 1, 1],
            lambda: ScheduledCrashAdversary(
                [CrashAt(cycle=2, pid=1), CrashAt(cycle=4, pid=3)], seed=5
            ),
            seed=5,
        )

    def test_random_adversary(self):
        assert_byte_identical(
            [1, 0, 1, 1, 0],
            lambda: RandomAdversary(seed=11, deliver_probability=0.6),
            seed=11,
        )

    @pytest.mark.parametrize("plan_seed", [0, 4, 9])
    def test_fault_plan_adversary(self, plan_seed):
        plan = FaultPlan.random(n=5, t=2, seed=plan_seed, K=4)
        assert_byte_identical(
            [1, 1, 1, 0, 1],
            lambda: compile_to_adversary(plan, K=4),
            seed=plan_seed,
            max_steps=20_000,
        )

    def test_scripted_prefix_replay(self):
        # Record a schedule on the reference core, then replay it as a
        # scripted prefix on both cores — the campaign's replay shape.
        adversary = OnTimeAdversary(K=4, seed=2)
        simulation = Simulation(
            programs=_programs([1, 1, 1, 1, 1]),
            adversary=adversary,
            K=4,
            t=2,
            seed=2,
        )
        schedule = []
        while not simulation.all_nonfaulty_done() and len(schedule) < 40:
            decision = simulation.adversary.decide(simulation.view)
            schedule.append(decision)
            simulation.apply(decision)

        def scripted():
            return ScriptedAdversary(
                tuple(schedule),
                then=CycleAdversary(seed=2, delivery=DeliverAll()),
            )

        assert_byte_identical([1, 1, 1, 1, 1], scripted, seed=2)

    def test_warm_late_cache_matches_cold(self):
        reference, fast = assert_byte_identical(
            [1, 1, 1, 1, 1, 1, 1],
            lambda: LateMessageAdversary(K=3, seed=6),
            K=3,
            seed=6,
        )
        assert fast.run.late_messages() == reference.run.late_messages()
        assert fast.run.is_on_time() == reference.run.is_on_time()
        assert [
            fast.run.is_late(env) for env in fast.run.envelopes.values()
        ] == [
            reference.run.is_late(env)
            for env in reference.run.envelopes.values()
        ]


class TestSweepTrials:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: SynchronousAdversary(seed=seed),
            lambda seed: OnTimeAdversary(K=4, seed=seed),
            lambda seed: LateMessageAdversary(K=4, seed=seed),
        ],
        ids=["synchronous", "ontime", "late"],
    )
    def test_metrics_equal_reference(self, factory):
        config = CommitTrialConfig(
            votes=[1, 1, 0, 1, 1, 1, 0], adversary_factory=factory, K=4
        )
        for seed in range(8):
            fast = run_commit_trial(config, seed, core="fast")
            assert fast == run_commit_trial(config, seed)

    def test_sweep_with_crashes(self):
        config = CommitTrialConfig(
            votes=[1] * 7,
            adversary_factory=lambda seed: OnTimeAdversary(
                K=4,
                seed=seed,
                crash_plan=[CrashAt(cycle=2, pid=seed % 7)],
            ),
            K=4,
        )
        for seed in range(6):
            metrics = run_commit_trial(config, seed, core="fast")
            assert metrics == run_commit_trial(config, seed)
            assert metrics.crashes == 1

    def test_sweep_horizon_nontermination(self):
        config = CommitTrialConfig(
            votes=[1] * 5,
            adversary_factory=lambda seed: OnTimeAdversary(K=4, seed=seed),
            K=4,
            max_steps=30,
        )
        for seed in range(4):
            metrics = run_commit_trial(config, seed, core="fast")
            assert metrics == run_commit_trial(config, seed)
            assert not metrics.terminated

    def test_fallback_for_non_whitelisted_adversary(self):
        # RandomAdversary is not a CycleAdversary: the sweep must refuse
        # it and the FastSimulation fallback must still match.
        assert not sweep_eligible(RandomAdversary(seed=0))
        config = CommitTrialConfig(
            votes=[1, 1, 1, 0, 1],
            adversary_factory=lambda seed: RandomAdversary(seed=seed),
            K=4,
        )
        for seed in range(4):
            fast = run_commit_trial(config, seed, core="fast")
            assert fast == run_commit_trial(config, seed)

    def test_consumed_adversary_not_sweep_eligible(self):
        adversary = OnTimeAdversary(K=4, seed=0)
        assert sweep_eligible(adversary)
        _run(Simulation, [1, 1, 1], adversary, max_steps=10)
        assert not sweep_eligible(adversary)


class TestWholePipelinesAcrossCores:
    @pytest.fixture(autouse=True)
    def _clear_override(self):
        set_default_sim_core(None)
        yield
        set_default_sim_core(None)

    def _with_core(self, core, fn):
        set_default_sim_core(core)
        try:
            return fn()
        finally:
            set_default_sim_core(None)

    def test_campaign_reports_identical(self):
        from repro.faults.campaign import CampaignConfig, run_campaign

        config = CampaignConfig(n=4, plans=6, tracks=("sim",), max_steps=8_000)
        reference = self._with_core(
            "reference", lambda: run_campaign(config)
        )
        fast = self._with_core("fast", lambda: run_campaign(config))
        assert fast == reference

    def test_mc_exploration_reports_identical(self):
        from repro.mc import MCConfig, explore

        config = MCConfig(
            n=3, t=1, K=2, max_cycles=5, crash_budget=1, votes=(1, 1, 0)
        )
        reference = self._with_core(
            "reference", lambda: explore(config).to_dict()
        )
        fast = self._with_core("fast", lambda: explore(config).to_dict())
        assert fast == reference

    def test_core_differential_finds_nothing(self):
        from repro.counterexample import run_core_differential
        from repro.faults.campaign import CampaignConfig

        config = CampaignConfig(n=4, plans=8, max_steps=8_000)
        report = run_core_differential(config)
        assert report["summary"]["findings"] == 0
        assert report["summary"]["events_compared"] > 0

    def test_core_differential_compares_the_campaign_record(
        self, monkeypatch
    ):
        # The fast core's campaign record comes from the fused sweep,
        # which builds no Run; the oracle holds it to the reference run.
        from repro.counterexample.oracle import run_core_case
        from repro.faults import campaign

        config = campaign.CampaignConfig(n=4, plans=1, max_steps=8_000)
        assert run_core_case(config, 0)["match"]
        honest = campaign.run_sim_track

        def off_by_one(case, core=None):
            record = honest(case, core)
            return {**record, "events": record["events"] + 1}

        monkeypatch.setattr(campaign, "run_sim_track", off_by_one)
        finding = run_core_case(config, 0)
        assert not finding["match"]
        assert finding["runs_match"] and not finding["records_match"]
        records = finding["campaign_records"]
        assert records["fast"]["events"] == records["reference"]["events"] + 1
