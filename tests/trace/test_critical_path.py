"""Critical-path extraction and round attribution (repro.trace)."""

import pytest

from repro.adversary.standard import OnTimeAdversary
from repro.core.api import run_commit
from repro.sim.rounds import RoundAnalyzer
from repro.trace.build import record_run
from repro.trace.critical_path import critical_paths_from_records
from repro.trace.export import recorder_to_records
from repro.trace.spans import SpanRecorder


def _ontime_outcome(seed, votes=(1, 1, 1, 1, 1), K=4):
    return run_commit(
        list(votes),
        K=K,
        seed=seed,
        adversary=OnTimeAdversary(K=K, seed=seed),
        max_steps=50_000,
    )


def _paths(run):
    """An in-memory run's critical paths: its record's spans, then the
    recorder's records."""
    recorder = SpanRecorder()
    record_run(recorder, run.trial_record())
    return critical_paths_from_records(recorder_to_records(recorder))


class TestFromRun:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 11])
    def test_chain_round_span_matches_decision_round(self, seed):
        """ISSUE acceptance: on an E2-style run (on-time delivery,
        ``K = 4``) the longest causal chain fully accounts for the
        decision round — no round ends on the timer alone."""
        outcome = _ontime_outcome(seed)
        assert outcome.terminated
        paths = _paths(outcome.run)
        assert paths, "every on-time all-commit run decides"
        analyzer = RoundAnalyzer(outcome.run.trial_record())
        assert (
            max(p.round_span for p in paths)
            == analyzer.max_decision_round()
        )
        # Per processor the chain never overshoots its decision round
        # (round_span counts *sender* rounds, so a decision triggered
        # by a prior-round message may trail it by one), and at least
        # one decider's chain accounts for its decision round exactly.
        assert all(
            p.timer_gap is not None and p.timer_gap >= 0 for p in paths
        )
        assert any(p.timer_gap == 0 for p in paths)

    def test_one_path_per_decider_with_nonempty_chain(self):
        outcome = _ontime_outcome(7, votes=(1, 1, 0, 1, 1))
        paths = _paths(outcome.run)
        deciders = {
            pid
            for pid, decision in outcome.run.decisions.items()
            if decision is not None
        }
        assert {p.pid for p in paths} == deciders
        for path in paths:
            assert path.length >= 1
            assert path.hops[-1].recipient == path.pid
            # Hops are causally ordered: each received no later than
            # the next was sent.
            for earlier, later in zip(path.hops, path.hops[1:]):
                assert earlier.receive_time <= later.send_time
                assert earlier.recipient == later.sender

    def test_rounds_monotone_along_chain(self):
        outcome = _ontime_outcome(3)
        for path in _paths(outcome.run):
            labelled = [h.round for h in path.hops if h.round is not None]
            assert labelled == sorted(labelled)

    def test_undecided_run_yields_no_paths(self):
        # A run cut off almost immediately decides nothing.
        outcome = run_commit([1, 1, 1], K=4, seed=0, max_steps=4)
        assert not outcome.terminated
        assert _paths(outcome.run) == []


class TestFromRecords:
    def test_agrees_with_round_analysis(self):
        outcome = _ontime_outcome(7, votes=(1, 1, 0, 1, 1))
        run = outcome.run
        paths = _paths(run)
        rounds = RoundAnalyzer(run.trial_record()).decision_rounds()
        assert [p.pid for p in paths] == sorted(
            pid for pid, r in rounds.items() if r is not None
        )
        for path in paths:
            assert path.decision == run.decisions[path.pid]
            assert path.decision_round == rounds[path.pid]
            for hop in path.hops:
                # Every hop is a delivered envelope of the run, and the
                # sim track's time axis is the event index.
                env = run.envelopes[hop.message]
                assert (hop.sender, hop.recipient) == (
                    env.sender,
                    env.recipient,
                )
                assert (hop.send_time, hop.receive_time) == (
                    env.send_event,
                    env.receive_event,
                )

    def test_campaign_trace_yields_paths_per_trial(self):
        rec = SpanRecorder()
        for trial, seed in enumerate([0, 1]):
            outer = rec.begin_span(
                f"trial-{seed}", kind="trial", track="campaign", start=trial
            )
            outcome = _ontime_outcome(seed)
            record_run(rec, outcome.run.trial_record())
            rec.end_span(outer, trial + 1)
        paths = critical_paths_from_records(recorder_to_records(rec))
        # Two trials, five deciders each; trial labels differ.
        assert len(paths) == 10
        assert len({p.trial for p in paths}) == 2

    def test_campaign_nesting_groups_by_trial_span(self):
        """A campaign nests ``campaign → trial-<seed> → sim-run``, so
        every trial shares one root; message ids and pids restart in
        each trial, and the paths must be computed per trial."""
        rec = SpanRecorder()
        campaign = rec.begin_span(
            "campaign", kind="campaign", track="campaign", start=0
        )
        expected = []
        for seed in (0, 1, 2):
            outer = rec.begin_span(
                f"trial-{seed}", kind="trial", track="campaign", start=seed
            )
            run = _ontime_outcome(seed).run
            expected.extend(_paths(run))
            record_run(rec, run.trial_record())
            rec.end_span(outer, seed + 1)
        rec.end_span(campaign, 3)
        paths = critical_paths_from_records(recorder_to_records(rec))
        assert len({p.trial for p in paths}) == 3
        assert {p.track for p in paths} == {"sim"}
        strip = lambda p: (p.pid, p.decision, p.decision_round, p.hops)
        assert [strip(p) for p in paths] == [strip(p) for p in expected]

    def test_to_dict_round_trips_fields(self):
        outcome = _ontime_outcome(0)
        path = _paths(outcome.run)[0]
        doc = path.to_dict()
        assert doc["pid"] == path.pid
        assert doc["length"] == path.length == len(doc["hops"])
        assert doc["round_span"] == path.round_span
        assert doc["timer_gap"] == path.timer_gap
        assert doc["hops"][0]["sender"] == path.hops[0].sender
