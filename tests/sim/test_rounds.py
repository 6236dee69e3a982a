"""Tests for the asynchronous-round analyzer."""

import pytest

from repro.adversary.base import CycleAdversary, DelayCycles
from repro.adversary.standard import SynchronousAdversary
from repro.errors import AnalysisError
from repro.sim.rounds import RoundAnalyzer, round_at_clock
from tests.conftest import make_commit_simulation


class TestRoundAtClock:
    def test_round_lookup(self):
        ends = [0, 4, 8, 16]
        assert round_at_clock(ends, 0, 1) == 1
        assert round_at_clock(ends, 0, 4) == 1
        assert round_at_clock(ends, 0, 5) == 2
        assert round_at_clock(ends, 0, 16) == 3

    def test_non_positive_clock_rejected(self):
        with pytest.raises(AnalysisError):
            round_at_clock([0, 4], 0, 0)

    def test_beyond_computed_raises(self):
        with pytest.raises(AnalysisError):
            round_at_clock([0, 4], 0, 5)


class TestRoundAnalyzer:
    def test_round_one_ends_at_clock_K(self):
        sim, _ = make_commit_simulation([1] * 5, K=4)
        result = sim.run()
        analyzer = RoundAnalyzer(result.run.trial_record())
        for pid in range(5):
            assert analyzer.boundaries(pid)[1] == 4

    def test_rounds_are_monotone(self):
        sim, _ = make_commit_simulation([1] * 5, K=4)
        result = sim.run()
        analyzer = RoundAnalyzer(result.run.trial_record())
        for pid in range(5):
            ends = analyzer.boundaries(pid)
            assert all(a < b for a, b in zip(ends, ends[1:]))

    def test_rounds_last_at_least_K_ticks(self):
        sim, _ = make_commit_simulation([1] * 5, K=4)
        result = sim.run()
        analyzer = RoundAnalyzer(result.run.trial_record())
        for pid in range(5):
            ends = analyzer.boundaries(pid)
            for previous, current in zip(ends, ends[1:]):
                assert current - previous >= 4

    def test_decision_rounds_small_for_synchronous_runs(self):
        sim, _ = make_commit_simulation([1] * 5, K=4)
        result = sim.run()
        analyzer = RoundAnalyzer(result.run.trial_record())
        rounds = analyzer.decision_rounds()
        assert all(r is not None for r in rounds.values())
        assert analyzer.max_decision_round() <= 14  # Theorem 10 budget

    def test_delay_stretches_rounds_not_round_count(self):
        # Under uniform delay D, ticks at decision grow with D while the
        # round in which decision happens stays small: the round end is
        # defined relative to receipt of the previous round's messages.
        def decision_stats(delay):
            adversary = CycleAdversary(
                delivery=DelayCycles(min_cycles=delay, max_cycles=delay)
            )
            sim, _ = make_commit_simulation([1] * 5, K=4, adversary=adversary)
            result = sim.run()
            analyzer = RoundAnalyzer(result.run.trial_record())
            return result.run.max_decision_clock(), analyzer.max_decision_round()

        ticks_fast, rounds_fast = decision_stats(1)
        ticks_slow, rounds_slow = decision_stats(12)
        assert ticks_slow > 3 * ticks_fast
        assert rounds_slow <= rounds_fast + 4

    def test_crashed_senders_do_not_extend_rounds(self):
        from repro.adversary.base import CrashAt
        from repro.adversary.crash import ScheduledCrashAdversary

        adversary = ScheduledCrashAdversary(
            crash_plan=[CrashAt(pid=4, cycle=2)]
        )
        sim, _ = make_commit_simulation([1] * 5, K=4, adversary=adversary)
        result = sim.run()
        analyzer = RoundAnalyzer(result.run.trial_record())
        assert analyzer.max_decision_round() is not None

    def test_decision_round_matches_round_at_clock(self):
        sim, _ = make_commit_simulation([1] * 5, K=4)
        result = sim.run()
        analyzer = RoundAnalyzer(result.run.trial_record())
        for pid, clock in result.run.decision_clocks.items():
            assert analyzer.decision_rounds()[pid] == analyzer.round_at_clock(
                pid, clock
            )
