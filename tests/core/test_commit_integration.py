"""Integration tests: Protocol 2 under heavyweight adversaries end to end."""

from repro.adversary.omniscient import OmniscientBalancer
from repro.analysis.verify import verify_commit_run
from repro.sim.rounds import RoundAnalyzer
from tests.conftest import make_commit_simulation


class TestCommitUnderBalancer:
    """Even a content-reading attacker cannot break Protocol 2.

    The balancer can hold the agreement subroutine's first-phase
    messages in balanced patterns, but the GO message already fixed the
    shared coins, so a balanced stage yields unanimity on the next coin.
    """

    def test_all_commit_under_balancer(self):
        for seed in range(5):
            sim, programs = make_commit_simulation(
                [1] * 5, adversary=OmniscientBalancer(n=5, t=2, seed=seed),
                seed=seed, max_steps=80_000,
            )
            result = sim.run()
            assert result.terminated
            assert result.run.agreement_holds()
            stages = [
                p.stats.agreement.stages_started
                for p in programs
                if p.stats.agreement is not None
            ]
            assert stages and max(stages) <= 4

    def test_abort_vote_under_balancer(self):
        sim, _ = make_commit_simulation(
            [1, 0, 1, 1, 1],
            adversary=OmniscientBalancer(n=5, t=2, seed=1),
            seed=1,
            max_steps=80_000,
        )
        result = sim.run()
        assert result.terminated
        assert result.run.decision_values() == {0}


class TestFullBatteryAcrossAdversaries:
    def test_certification_over_the_roster(self):
        from repro.adversary.crash import ScheduledCrashAdversary
        from repro.adversary.base import CrashAt
        from repro.adversary.partition import PartitionAdversary
        from repro.adversary.random_walk import RandomAdversary
        from repro.adversary.standard import (
            LateMessageAdversary,
            OnTimeAdversary,
            SynchronousAdversary,
        )

        # Adversaries are stateful; build a fresh one per run.
        factories = [
            lambda: SynchronousAdversary(seed=1),
            lambda: OnTimeAdversary(K=4, seed=2),
            lambda: LateMessageAdversary(K=4, seed=3, late_probability=0.4),
            lambda: RandomAdversary(seed=4),
            lambda: ScheduledCrashAdversary(
                crash_plan=[CrashAt(pid=4, cycle=2)], seed=5
            ),
            lambda: PartitionAdversary(
                groups=[{0, 1, 2}, {3, 4}], start_cycle=1, heal_cycle=25
            ),
        ]
        for factory in factories:
            for votes in ([1] * 5, [1, 0, 1, 1, 1]):
                sim, _ = make_commit_simulation(
                    list(votes), adversary=factory()
                )
                run = sim.run().run
                report = verify_commit_run(run, list(votes))
                assert report.ok, report.render()

    def test_round_analysis_consistent_with_decisions(self):
        sim, _ = make_commit_simulation([1] * 7, t=3)
        result = sim.run()
        analyzer = RoundAnalyzer(result.run.trial_record())
        rounds = analyzer.decision_rounds()
        assert all(r is not None and r >= 1 for r in rounds.values())
        assert analyzer.max_decision_round() == max(rounds.values())
