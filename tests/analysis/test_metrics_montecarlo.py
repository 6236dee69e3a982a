"""Tests for metric extraction and the Monte-Carlo runner."""

import pytest

from repro.adversary.standard import SynchronousAdversary
from repro.analysis.metrics import (
    abort_validity_satisfied,
    commit_validity_satisfied,
    metrics_from_run,
)
from repro.analysis.montecarlo import (
    CommitTrialConfig,
    TrialBatch,
    run_commit_batch,
    run_commit_trial,
    run_custom_batch,
)
from repro.core.api import ProtocolOutcome
from repro.errors import InsufficientDataError
from tests.conftest import make_commit_simulation


def outcome_and_programs(votes, **kwargs):
    sim, programs = make_commit_simulation(votes, **kwargs)
    return ProtocolOutcome(result=sim.run()), programs


class TestExtractMetrics:
    def test_happy_path_metrics(self):
        outcome, programs = outcome_and_programs([1] * 5)
        metrics = metrics_from_run(outcome.run, programs=programs)
        assert metrics.terminated
        assert metrics.consistent
        assert metrics.decision == 1
        assert metrics.rounds is not None and metrics.rounds >= 1
        assert metrics.ticks is not None
        assert metrics.stages is not None and metrics.stages >= 1
        assert metrics.crashes == 0
        assert metrics.on_time

    def test_without_programs_stage_metrics_absent(self):
        outcome, _ = outcome_and_programs([1] * 3)
        metrics = metrics_from_run(outcome.run)
        assert metrics.stages is None
        assert metrics.decision_stage is None

    def test_abort_metrics(self):
        outcome, programs = outcome_and_programs([1, 0, 1, 1, 1])
        metrics = metrics_from_run(outcome.run, programs=programs)
        assert metrics.decision == 0


class TestValidityCheckers:
    def test_commit_validity_holds_on_happy_path(self):
        outcome, _ = outcome_and_programs([1] * 5)
        assert commit_validity_satisfied(outcome, [1] * 5)

    def test_commit_validity_vacuous_with_abort_vote(self):
        outcome, _ = outcome_and_programs([1, 0, 1, 1, 1])
        assert commit_validity_satisfied(outcome, [1, 0, 1, 1, 1])

    def test_abort_validity_enforced(self):
        outcome, _ = outcome_and_programs([1, 0, 1, 1, 1])
        assert abort_validity_satisfied(outcome, [1, 0, 1, 1, 1])

    def test_abort_validity_vacuous_for_all_ones(self):
        outcome, _ = outcome_and_programs([1] * 5)
        assert abort_validity_satisfied(outcome, [1] * 5)


class TestTrialBatch:
    def make_batch(self, trials=5):
        config = CommitTrialConfig(
            votes=[1] * 5,
            adversary_factory=lambda seed: SynchronousAdversary(seed=seed),
        )
        return run_commit_batch(config, trials=trials)

    def test_batch_size(self):
        assert len(self.make_batch(4)) == 4

    def test_summary_over_metric(self):
        batch = self.make_batch()
        rounds = batch.summary("rounds")
        assert rounds.count == 5
        assert rounds.mean >= 1

    def test_rates(self):
        batch = self.make_batch()
        assert batch.termination_rate == 1.0
        assert batch.consistency_rate == 1.0
        assert batch.commit_rate == 1.0

    def test_summary_of_absent_metric_raises(self):
        batch = TrialBatch()
        batch.add(self.make_batch(1).metrics[0])
        object.__setattr__(batch.metrics[0], "rounds", None)
        with pytest.raises(InsufficientDataError):
            batch.summary("rounds")

    def test_zero_trials_rejected(self):
        config = CommitTrialConfig(
            votes=[1] * 3,
            adversary_factory=lambda seed: SynchronousAdversary(seed=seed),
        )
        with pytest.raises(InsufficientDataError):
            run_commit_batch(config, trials=0)

    def test_votes_factory(self):
        config = CommitTrialConfig(
            votes=lambda seed: [1, 1, seed % 2, 1, 1],
            adversary_factory=lambda seed: SynchronousAdversary(seed=seed),
        )
        even = run_commit_trial(config, seed=0)
        odd = run_commit_trial(config, seed=1)
        assert even.decision == 0
        assert odd.decision == 1

    def test_custom_batch(self):
        config = CommitTrialConfig(
            votes=[1] * 3,
            adversary_factory=lambda seed: SynchronousAdversary(seed=seed),
        )
        batch = run_custom_batch(
            lambda seed: run_commit_trial(config, seed), trials=3
        )
        assert len(batch) == 3
