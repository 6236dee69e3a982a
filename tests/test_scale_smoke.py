"""Scale smoke tests: the kernel handles larger systems comfortably."""

from repro.adversary.standard import OnTimeAdversary, SynchronousAdversary
from tests.conftest import make_agreement_simulation, make_commit_simulation


class TestScale:
    def test_commit_at_n_25(self):
        sim, _ = make_commit_simulation([1] * 25, t=12)
        result = sim.run()
        assert result.terminated
        assert set(result.decisions().values()) == {1}

    def test_commit_at_n_51_synchronous(self):
        sim, _ = make_commit_simulation([1] * 51, t=25)
        result = sim.run()
        assert result.terminated
        assert result.run.agreement_holds()

    def test_agreement_at_n_33_with_jitter(self):
        sim, _ = make_agreement_simulation(
            [pid % 2 for pid in range(33)],
            t=16,
            adversary=OnTimeAdversary(K=4, seed=1),
        )
        result = sim.run()
        assert result.terminated
        assert len(result.run.decision_values()) == 1

    def test_round_analysis_scales(self):
        sim, _ = make_commit_simulation([1] * 25, t=12)
        outcome = sim.run()
        from repro.sim.rounds import RoundAnalyzer

        analyzer = RoundAnalyzer(outcome.run.trial_record())
        assert analyzer.max_decision_round() <= 14
