"""The reference kernel builds its records on read.

``Simulation`` records one flat row per event; pattern entries, trace
events and the ``Run`` are built from the rows only when something reads
them, and lateness is evaluated once per distinct send event.  These
tests hold each lazy path equal to what an eager build gives, and check
that a trial which reads nothing builds nothing.
"""

from bisect import bisect_left, bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.adversary.base import CycleAdversary, DeliverAll
from repro.adversary.crash import AdaptiveCrashAdversary
from repro.adversary.scripted import ScriptedAdversary
from repro.adversary.standard import OnTimeAdversary
from repro.analysis.metrics import metrics_from_run
from repro.faults.campaign import CampaignConfig, case_from_config, run_sim_track
from repro.faults.plan import CrashFault, FaultPlan
from repro.faults.sim_compile import compile_to_adversary
from repro.faults.variants import make_programs
from repro.sim.coreselect import run_sim_trial
from repro.sim.decisions import CrashDecision, StepDecision
from repro.sim.pattern import PatternEntry, SentRecord
from repro.sim.scheduler import Simulation
from repro.sim.trace import TraceEvent, send_deadlines
from repro.trace.spans import disable_tracing, enable_tracing


def late_by_pairs(K, pid_steps, send, receive):
    """The oracle: more than ``K`` steps of some processor strictly
    between ``send`` and ``receive``, counted with two bisects."""
    return any(
        bisect_left(steps, receive) - bisect_right(steps, send) > K
        for steps in pid_steps
    )


@st.composite
def step_lists(draw):
    """Per-processor step events of a run of ``length`` events, some of
    them crashes (no processor's step), plus sends within the run."""
    n = draw(st.integers(1, 5))
    length = draw(st.integers(0, 60))
    actors = draw(
        st.lists(st.integers(-1, n - 1), min_size=length, max_size=length)
    )
    pid_steps = [[] for _ in range(n)]
    for index, actor in enumerate(actors):
        if actor >= 0:
            pid_steps[actor].append(index)
    sends = draw(st.lists(st.integers(0, max(0, length - 1)), max_size=12))
    if length:
        sends.append(length - 1)  # a send at the last event
    return pid_steps, sends, length


@given(step_lists(), st.integers(1, 6))
def test_deadline_equals_pairwise_bisect_definition(case, K):
    pid_steps, sends, length = case
    deadlines = send_deadlines(K, pid_steps, sends)
    assert set(deadlines) == set(sends)
    for send in sends:
        for receive in range(send + 1, length + 2):
            assert (deadlines[send] < receive) == late_by_pairs(
                K, pid_steps, send, receive
            )


def test_deadline_of_processors_without_steps_is_infinite():
    assert send_deadlines(1, [[], []], [0, 3]) == {
        0: float("inf"),
        3: float("inf"),
    }


def test_deadline_is_the_earliest_k_plus_first_step():
    # p0 steps at 1, 2, 3; p1 at 4, 5.  After event 0 with K=1, p0's
    # second step is event 2 and p1's is 5: a message sent at 0 is late
    # if received after event 2.
    assert send_deadlines(1, [[1, 2, 3], [4, 5]], [0]) == {0: 2}


# -- trials ------------------------------------------------------------------

N, T, K, SEED, MAX_STEPS = 5, 2, 4, 11, 20_000


def on_time():
    return OnTimeAdversary(K=K, seed=SEED)


def fault_plan():
    plan = FaultPlan(n=N, crashes=(CrashFault(pid=1, cycle=3),))
    return compile_to_adversary(plan, K=K)


def crash_after_sends():
    # Reads view.history() at every decision.
    return AdaptiveCrashAdversary(victims=[0], kill_after_sends=2, seed=SEED)


def scripted():
    script = [StepDecision(pid=pid) for pid in range(N)] + [CrashDecision(pid=4)]
    return ScriptedAdversary(
        script, then=CycleAdversary(seed=SEED, delivery=DeliverAll())
    )


ADVERSARIES = {
    "on-time": on_time,
    "fault-plan": fault_plan,
    "crash-after-sends": crash_after_sends,
    "scripted": scripted,
}


def programs():
    return make_programs("commit", N, T, [1] * N, K)


def eager_metrics(adversary):
    trial_programs = programs()
    simulation = Simulation(
        programs=trial_programs,
        adversary=adversary,
        K=K,
        t=T,
        seed=SEED,
        max_steps=MAX_STEPS,
    )
    result = simulation.run()
    return metrics_from_run(result.run, programs=trial_programs)


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_reference_trial_metrics_equal_a_fresh_run(name):
    make = ADVERSARIES[name]
    trial = run_sim_trial(
        programs(), make(), K, T, SEED, MAX_STEPS, core="reference"
    )
    assert trial.metrics() == eager_metrics(make())


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_lazy_history_equals_the_trace(name):
    adversary = ADVERSARIES[name]()
    simulation = Simulation(programs(), adversary, K=K, t=T, seed=SEED)
    simulation.run()
    run = simulation.result().run
    history = simulation.view.history()
    assert len(history) == run.event_count
    for entry, event in zip(history, run.events):
        assert (entry.index, entry.kind, entry.actor, entry.delivered) == (
            event.index,
            event.kind,
            event.actor,
            event.delivered,
        )
        assert tuple(record.message_id for record in entry.sent) == event.sent
        assert all(
            run.envelopes[record.message_id].recipient == record.recipient
            for record in entry.sent
        )


def test_result_is_built_once():
    simulation = Simulation(programs(), on_time(), K=K, t=T, seed=SEED)
    result = simulation.run()
    assert simulation.result() is result


def counting(monkeypatch, cls):
    """Count constructions of ``cls`` for the rest of the test."""
    calls = []
    original = cls.__init__

    def init(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)
    return calls


def test_a_reference_campaign_trial_builds_no_trace_or_pattern(monkeypatch):
    config = CampaignConfig(n=N, t=T, plans=4, tracks=("sim",))
    cases = [case_from_config(config, seed) for seed in range(4)]
    events = counting(monkeypatch, TraceEvent)
    entries = counting(monkeypatch, PatternEntry)
    records = counting(monkeypatch, SentRecord)
    for case in cases:
        assert run_sim_track(case, core="reference")["events"] > 0
    assert (events, entries, records) == ([], [], [])
    # The spies see constructions where there are any.
    Simulation(programs(), crash_after_sends(), K=K, t=T, seed=SEED).run()
    assert events and entries


def test_a_traced_reference_trial_records_its_spans_once():
    recorder = enable_tracing()
    try:
        trial = run_sim_trial(
            programs(), on_time(), K, T, SEED, MAX_STEPS, core="reference"
        )
        recorded = len(recorder.spans)
        trial.metrics()
        trial.metrics()
    finally:
        disable_tracing()
    trials = [span for span in recorder.spans.values() if span.kind == "trial"]
    assert len(trials) == 1
    assert recorded == len(recorder.spans)
