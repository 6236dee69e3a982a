"""Golden cross-core tests: the fused sweep must match the reference.

The fast core is the reference ``Simulation`` plus the fused sweep, and
:func:`repro.sim.coreselect.run_sim_trial` is the one place that picks
between them.  Two contracts:

* a trial the sweep takes gives what the reference kernel gives — the
  four campaign-record fields and the ``RunMetrics`` bundle, equal as
  Python objects — and builds no ``Simulation``;
* a trial the sweep declines runs on the reference kernel itself.
"""

import dataclasses

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
from repro.sim.coreselect import run_sim_trial, set_default_sim_core
from repro.sim.fastcore import adversary_sweep_supported
from repro.sim.scheduler import Simulation


def _programs(votes, K=4, t=None):
    n = len(votes)
    if t is None:
        t = (n - 1) // 2
    return [
        CommitProgram(pid=pid, n=n, t=t, initial_vote=vote, K=K)
        for pid, vote in enumerate(votes)
    ]


def _trial(core, votes, adversary, K=4, t=None, seed=0, max_steps=50_000):
    if t is None:
        t = (len(votes) - 1) // 2
    return run_sim_trial(
        _programs(votes, K=K, t=t), adversary, K, t, seed, max_steps, core
    )


def assert_cores_agree(simulations, votes, adversary_factory, **kwargs):
    """Run both cores from fresh adversaries; require equal results.

    Returns the two trials and how many ``Simulation`` objects the fast
    side built.
    """
    reference = _trial("reference", votes, adversary_factory(), **kwargs)
    del simulations[:]
    fast = _trial("fast", votes, adversary_factory(), **kwargs)
    built = len(simulations)
    assert fast == reference
    assert fast.metrics() == reference.metrics()
    return reference, fast, built


class TestSweepGoldenTrials:
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
    def test_standard_adversaries(self, simulations, factory, seed):
        _, _, built = assert_cores_agree(
            simulations, [1, 1, 0, 1, 1], lambda: factory(seed), seed=seed
        )
        assert built == 0

    def test_all_commit_votes(self, simulations):
        reference, _, built = assert_cores_agree(
            simulations, [1] * 7, lambda: OnTimeAdversary(K=4, seed=3), seed=3
        )
        assert built == 0
        assert reference.decisions == [1] * 7

    def test_crash_plan(self, simulations):
        reference, _, built = assert_cores_agree(
            simulations,
            [1, 1, 1, 1, 1],
            lambda: ScheduledCrashAdversary(
                [CrashAt(cycle=2, pid=1), CrashAt(cycle=4, pid=3)], seed=5
            ),
            seed=5,
        )
        assert built == 0
        assert reference.crashed == {1, 3}

    @pytest.mark.parametrize("plan_seed", [0, 4, 9])
    def test_fault_plan_adversary(self, simulations, plan_seed):
        plan = FaultPlan.random(n=5, t=2, seed=plan_seed, K=4)
        _, _, built = assert_cores_agree(
            simulations,
            [1, 1, 1, 0, 1],
            lambda: compile_to_adversary(plan, K=4),
            seed=plan_seed,
            max_steps=20_000,
        )
        assert built == 0

    def test_late_messages_counted_alike(self, simulations):
        # The sweep's flat lateness flags against Run.is_on_time.
        reference, _, built = assert_cores_agree(
            simulations,
            [1, 1, 1, 1, 1, 1, 1],
            lambda: LateMessageAdversary(K=3, seed=6),
            K=3,
            seed=6,
        )
        assert built == 0
        assert not reference.metrics().on_time


class TestDeclinedTrials:
    """What the sweep declines runs on the reference kernel, once."""

    def test_random_adversary(self, simulations):
        # RandomAdversary is not a CycleAdversary.
        assert not adversary_sweep_supported(RandomAdversary(seed=0))
        _, _, built = assert_cores_agree(
            simulations,
            [1, 0, 1, 1, 0],
            lambda: RandomAdversary(seed=11, deliver_probability=0.6),
            seed=11,
        )
        assert built == 1

    def test_scripted_prefix_replay(self, simulations):
        # Record a schedule on the reference core, then replay it as a
        # scripted prefix on both cores — the campaign's replay shape.
        simulation = Simulation(
            programs=_programs([1, 1, 1, 1, 1]),
            adversary=OnTimeAdversary(K=4, seed=2),
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

        _, _, built = assert_cores_agree(
            simulations, [1, 1, 1, 1, 1], scripted, seed=2
        )
        assert built == 1


class TestMetricsOnRequest:
    def test_records_build_no_metrics(self, monkeypatch):
        # A campaign record reads four fields; neither core may pay for
        # the RunMetrics bundle unless asked.
        from repro.analysis import metrics

        def forbidden(*args, **kwargs):
            raise AssertionError("metrics built without a request")

        monkeypatch.setattr(metrics, "trial_metrics", forbidden)
        for core in ("reference", "fast"):
            trial = _trial(core, [1, 1, 1, 1, 1], OnTimeAdversary(K=4, seed=1))
            assert trial.terminated
            with pytest.raises(AssertionError, match="without a request"):
                trial.metrics()


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
            assert fast == run_commit_trial(config, seed, core="reference")

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
            assert metrics == run_commit_trial(config, seed, core="reference")
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
            assert metrics == run_commit_trial(config, seed, core="reference")
            assert not metrics.terminated

    def test_fallback_for_non_whitelisted_adversary(self):
        # RandomAdversary is not a CycleAdversary: the sweep must refuse
        # it and the reference kernel must run the fast-core trial.
        assert not adversary_sweep_supported(RandomAdversary(seed=0))
        config = CommitTrialConfig(
            votes=[1, 1, 1, 0, 1],
            adversary_factory=lambda seed: RandomAdversary(seed=seed),
            K=4,
        )
        for seed in range(4):
            fast = run_commit_trial(config, seed, core="fast")
            assert fast == run_commit_trial(config, seed, core="reference")

    def test_consumed_adversary_not_sweep_supported(self):
        adversary = OnTimeAdversary(K=4, seed=0)
        assert adversary_sweep_supported(adversary)
        Simulation(
            programs=_programs([1, 1, 1]),
            adversary=adversary,
            K=4,
            t=1,
            max_steps=10,
        ).run()
        assert not adversary_sweep_supported(adversary)


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
        from repro.faults.campaign import CampaignConfig
        from repro.sim import fastcore

        config = CampaignConfig(n=4, plans=1, max_steps=8_000)
        assert run_core_case(config, 0)["match"]
        honest = fastcore.sweep_run

        def off_by_one(*args):
            record = honest(*args)
            return dataclasses.replace(record, events=record.events + 1)

        monkeypatch.setattr(fastcore, "sweep_run", off_by_one)
        finding = run_core_case(config, 0)
        assert not finding["match"]
        assert not finding["records_match"]
        records = finding["campaign_records"]
        assert records["fast"]["events"] == records["reference"]["events"] + 1

    @pytest.mark.parametrize("field", ["rounds", "messages", "on_time"])
    def test_core_differential_compares_the_run_metrics(
        self, monkeypatch, field
    ):
        # One wrong RunMetrics field of the sweep's is a finding, even
        # with the campaign record right.
        from repro.analysis import metrics as analysis_metrics
        from repro.counterexample.oracle import run_core_case
        from repro.faults.campaign import CampaignConfig
        from repro.sim import fastcore

        config = CampaignConfig(n=4, plans=1, max_steps=8_000)
        honest_run = fastcore.sweep_run
        honest_metrics = analysis_metrics.trial_metrics
        swept = []

        def recording_sweep_run(*args):
            record = honest_run(*args)
            swept.append(record)
            return record

        def one_field_wrong(programs, record, **kwargs):
            metrics = honest_metrics(programs, record, **kwargs)
            if not any(record is other for other in swept):
                return metrics
            value = getattr(metrics, field)
            wrong = (not value) if isinstance(value, bool) else value + 1
            return dataclasses.replace(metrics, **{field: wrong})

        monkeypatch.setattr(fastcore, "sweep_run", recording_sweep_run)
        monkeypatch.setattr(analysis_metrics, "trial_metrics", one_field_wrong)
        finding = run_core_case(config, 0)
        assert not finding["match"]
        assert finding["records_match"] and not finding["metrics_match"]
        reported = finding["metrics"]
        assert reported["fast"][field] != reported["reference"][field]
        others = set(reported["fast"]) - {field}
        assert all(
            reported["fast"][key] == reported["reference"][key]
            for key in others
        )


def _stock_sweep_adversaries(n):
    """Every stock adversary the sweep takes, as seed -> adversary."""
    t = (n - 1) // 2
    crashes = [CrashAt(cycle=2 * (i + 1), pid=2 * i + 1) for i in range(t)]
    return {
        "synchronous": lambda seed: SynchronousAdversary(seed=seed),
        "ontime": lambda seed: OnTimeAdversary(K=4, seed=seed),
        "late": lambda seed: LateMessageAdversary(K=4, seed=seed),
        "crash": lambda seed: ScheduledCrashAdversary(crashes, seed=seed),
        "fault-plan": lambda seed: compile_to_adversary(
            FaultPlan.random(n=n, t=t, seed=seed, K=4), K=4
        ),
    }


class TestRoundsFromRecords:
    """``RoundAnalyzer`` reads a ``TrialRecord``: the fused sweep's
    record gives the rounds of the reference kernel's ``Run``."""

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize(
        "name", ["synchronous", "ontime", "late", "crash", "fault-plan"]
    )
    def test_sweep_record_rounds_equal_reference_run(
        self, simulations, name, n
    ):
        from repro.sim.rounds import RoundAnalyzer

        factory = _stock_sweep_adversaries(n)[name]
        t = (n - 1) // 2
        for seed in range(4):
            votes = [1] * (n - 1) + [seed % 2]
            del simulations[:]
            fast = run_sim_trial(
                _programs(votes), factory(seed), 4, t, seed, 20_000, "fast"
            )
            assert not simulations, "the sweep took the trial"
            run = Simulation(
                _programs(votes),
                factory(seed),
                K=4,
                t=t,
                seed=seed,
                max_steps=20_000,
            ).run().run
            swept = RoundAnalyzer(fast.record)
            recorded = RoundAnalyzer(run.trial_record())
            assert [swept.boundaries(pid) for pid in range(n)] == [
                recorded.boundaries(pid) for pid in range(n)
            ]
            assert swept.decision_rounds() == recorded.decision_rounds()
            assert (
                swept.max_decision_round() == recorded.max_decision_round()
            )
