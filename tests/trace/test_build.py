"""Building the sim span tree from completed runs (repro.trace.build)."""

from repro.adversary.crash import ScheduledCrashAdversary
from repro.adversary.base import CrashAt
from repro.adversary.standard import OnTimeAdversary
from repro.core.api import run_commit
from repro.sim.rounds import RoundAnalyzer
from repro.trace.build import record_run
from repro.trace.spans import SpanRecorder


def _ontime_outcome(votes=(1, 1, 0, 1, 1), seed=7, K=4):
    return run_commit(
        list(votes),
        K=K,
        seed=seed,
        adversary=OnTimeAdversary(K=K, seed=seed),
        max_steps=50_000,
    )


class TestRecordRun:
    def test_span_tree_shape(self):
        outcome = _ontime_outcome()
        rec = SpanRecorder()
        trial = record_run(rec, outcome.run.trial_record())

        trial_span = rec.spans[trial]
        assert trial_span.kind == "trial"
        assert trial_span.parent is None
        assert trial_span.start == 0
        assert trial_span.end == outcome.run.event_count
        assert trial_span.attrs["n"] == 5
        assert trial_span.attrs["K"] == 4

        rounds = [s for s in rec.spans.values() if s.kind == "round"]
        phases = [s for s in rec.spans.values() if s.kind == "phase"]
        analyzer = RoundAnalyzer(outcome.run.trial_record())
        assert {s.attrs["round"] for s in rounds} == set(
            range(1, analyzer.max_decision_round() + 1)
        )
        assert all(s.parent == trial for s in rounds)
        round_ids = {s.id for s in rounds}
        assert all(s.parent in round_ids for s in phases)
        # One phase per (pid, round) that the processor actually reached.
        assert len(phases) == len(
            {(s.attrs["pid"], s.attrs["round"]) for s in phases}
        )

    def test_message_events_and_edges(self):
        outcome = _ontime_outcome()
        rec = SpanRecorder()
        record_run(rec, outcome.run.trial_record())

        run = outcome.run
        sends = [e for e in rec.events if e.name == "send"]
        delivers = [e for e in rec.events if e.name == "deliver"]
        assert len(sends) == len(run.envelopes)
        received = [
            env
            for env in run.envelopes.values()
            if env.receive_event is not None
        ]
        assert len(delivers) == len(received)
        # Every delivered envelope yields exactly one causal edge, and
        # the send side always precedes the deliver side.
        assert len(rec.edges) == len(received)
        assert all(edge.src < edge.dst for edge in rec.edges)

    def test_decide_events_one_per_decider(self):
        outcome = _ontime_outcome()
        rec = SpanRecorder()
        record_run(rec, outcome.run.trial_record())
        decides = [e for e in rec.events if e.name == "decide"]
        deciders = {
            pid
            for pid, decision in outcome.run.decisions.items()
            if decision is not None
        }
        assert {e.attrs["pid"] for e in decides} == deciders
        assert len(decides) == len(deciders)
        for event in decides:
            assert event.attrs["decision"] in (0, 1)
            assert event.attrs["round"] is not None

    def test_crash_events_recorded(self):
        adversary = ScheduledCrashAdversary(
            crash_plan=[CrashAt(pid=4, cycle=2)], seed=3
        )
        outcome = run_commit(
            [1, 1, 1, 1, 1], K=4, seed=3, adversary=adversary
        )
        rec = SpanRecorder()
        record_run(rec, outcome.run.trial_record())
        crashes = [e for e in rec.events if e.name == "crash"]
        assert {e.attrs["pid"] for e in crashes} == {4}

    def test_trial_nests_under_open_span(self):
        outcome = _ontime_outcome()
        rec = SpanRecorder()
        outer = rec.begin_span(
            "trial-0", kind="trial", track="campaign", start=0
        )
        trial = record_run(rec, outcome.run.trial_record())
        assert rec.spans[trial].parent == outer

    def test_extra_attrs_land_on_trial_span(self):
        outcome = _ontime_outcome()
        rec = SpanRecorder()
        trial = record_run(rec, outcome.run.trial_record(), outcome="decided")
        assert rec.spans[trial].attrs["outcome"] == "decided"
