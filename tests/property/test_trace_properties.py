"""Property tests: the causal span graph is well formed on every run.

Hypothesis drives randomized schedules (``RandomAdversary``) and
seeded fault plans (the campaign's own trial executor) and asserts the
structural invariants the trace layer promises:

* span ids and point-event ids are unique within one recorder (dense,
  starting at 1);
* every span's parent exists, shares no id with the span itself, and
  parent chains reach a root without cycles;
* the causal edge set is acyclic — edges always point forward in
  recording order (``src < dst``), which is acyclicity by construction
  since event ids are a total order consistent with happens-before;
* every edge joins a ``send`` to a ``deliver`` event of the same
  message on the same track, never crossing trial scopes.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.random_walk import RandomAdversary
from repro.core.api import run_commit
from repro.faults.campaign import CampaignConfig, case_from_config, execute_trial_case
from repro.trace.build import record_run
from repro.trace.spans import SpanRecorder, use_recorder

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_well_formed(rec: SpanRecorder) -> None:
    span_ids = list(rec.spans)
    assert len(span_ids) == len(set(span_ids))
    assert span_ids == sorted(span_ids)
    event_ids = [event.id for event in rec.events]
    assert len(event_ids) == len(set(event_ids))

    # Parentage: parents exist, and parent chains terminate at a root.
    for span in rec.spans.values():
        if span.parent is not None:
            assert span.parent in rec.spans
            assert span.parent != span.id
        seen = set()
        cursor = span.id
        while cursor is not None:
            assert cursor not in seen, f"parent cycle through span {cursor}"
            seen.add(cursor)
            cursor = rec.spans[cursor].parent

    # Events attach to known spans (or to none at all).
    for event in rec.events:
        if event.span is not None:
            assert event.span in rec.spans

    # Causal edges: forward in recording order (hence acyclic), each
    # joining one send to one deliver of the same message and track.
    events_by_id = {event.id: event for event in rec.events}
    seen_dsts = set()
    for edge in rec.edges:
        assert edge.src < edge.dst
        assert edge.dst not in seen_dsts, "deliver matched twice"
        seen_dsts.add(edge.dst)
        src, dst = events_by_id[edge.src], events_by_id[edge.dst]
        assert src.name == "send"
        assert dst.name == "deliver"
        assert src.track == dst.track
        if "message" in src.attrs:
            assert src.attrs["message"] == dst.attrs["message"]


class TestRandomSchedules:
    @SLOW
    @given(
        seed=st.integers(0, 10_000),
        votes=st.lists(st.integers(0, 1), min_size=3, max_size=6),
        deliver_probability=st.sampled_from([0.3, 0.5, 0.9]),
    )
    def test_span_graph_well_formed(self, seed, votes, deliver_probability):
        outcome = run_commit(
            votes,
            K=4,
            seed=seed,
            adversary=RandomAdversary(
                seed=seed, deliver_probability=deliver_probability
            ),
            max_steps=5_000,
        )
        rec = SpanRecorder()
        record_run(rec, outcome.run.trial_record())
        assert_well_formed(rec)

    @SLOW
    @given(seeds=st.lists(st.integers(0, 10_000), min_size=2, max_size=3))
    def test_multi_trial_recorder_stays_well_formed(self, seeds):
        # One recorder across several runs: scopes must keep the trials'
        # message keys apart, so no edge may span two trial subtrees.
        rec = SpanRecorder()
        roots = []
        for seed in seeds:
            outcome = run_commit(
                [1, 1, 0, 1, 1],
                K=4,
                seed=seed,
                adversary=RandomAdversary(seed=seed),
                max_steps=5_000,
            )
            roots.append(record_run(rec, outcome.run.trial_record()))
        assert_well_formed(rec)

        def root_of(span_id):
            while rec.spans[span_id].parent is not None:
                span_id = rec.spans[span_id].parent
            return span_id

        events_by_id = {event.id: event for event in rec.events}
        for edge in rec.edges:
            src, dst = events_by_id[edge.src], events_by_id[edge.dst]
            assert root_of(src.span) == root_of(dst.span)


class TestFaultPlans:
    @SLOW
    @given(seed=st.integers(0, 10_000))
    def test_traced_campaign_trial_well_formed(self, seed):
        config = CampaignConfig(
            plans=1, n=5, base_seed=seed, tracks=("sim",), max_steps=5_000
        )
        rec = SpanRecorder()
        with use_recorder(rec):
            case = case_from_config(config, seed)
            execute_trial_case(case)
        assert_well_formed(rec)
        # The campaign wrapper span exists and the sim trial nests in it.
        kinds = {span.kind for span in rec.spans.values()}
        assert "trial" in kinds
