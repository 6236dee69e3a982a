"""The model checker's on-time verdict is the run's.

At a terminal arrival the explorer calls a crash-free run *benign*
(commit validity must then hold) when it charged no late marks and no
delivered envelope is past its deadline.  It reads the deadlines off the
live kernel (``Simulation.step_events`` and ``Simulation.envelopes``)
through the one lateness comparison,
:func:`repro.sim.trace.late_envelopes`.  These tests hold that verdict
to ``Run.is_on_time`` of the run the kernel builds.
"""

import pytest

from repro.adversary.standard import LateMessageAdversary
from repro.core.commit import CommitProgram
from repro.faults.safety import SafetyMonitor
from repro.mc import MCConfig, explore
from repro.mc import explorer as explorer_module
from repro.sim.scheduler import Simulation
from repro.sim.trace import late_envelopes

#: Node arrivals of each ``mc explore`` configuration (n=3, t=1, the
#: default bounds), keyed by ``(K, votes)``: checking the verdict must
#: not change what is explored.
STATES_VISITED = {
    (2, (1, 1, 1)): 3396,
    (2, (1, 1, 0)): 3160,
    (3, (1, 1, 1)): 3493,
    (3, (1, 1, 0)): 3493,
}


#: A cheap set of bounds that reaches more than the defaults'
#: one crash-free terminal per vote vector (``docs/MODELCHECK.md``).
WIDER_BOUNDS = dict(crash_budget=0, delay_budget=2, max_late=1)


def _crash_free_terminals(monkeypatch, config):
    """Explore ``config``; return the report and, per crash-free terminal
    arrival, the explorer's ``benign`` verdict and the built run's
    ``is_on_time()``."""
    live = {}
    verdicts = []
    check_state = explorer_module._SubtreeExplorer.check_state
    check = SafetyMonitor.check

    def remember_sim(self, sim, *args):
        live["sim"] = sim
        return check_state(self, sim, *args)

    def compare(self, **kwargs):
        if kwargs["terminated"] and not kwargs["crashed"]:
            run = live["sim"].build_run()
            verdicts.append((kwargs["benign"], run.is_on_time()))
        return check(self, **kwargs)

    monkeypatch.setattr(
        explorer_module._SubtreeExplorer, "check_state", remember_sim
    )
    monkeypatch.setattr(SafetyMonitor, "check", compare)
    return explore(config, workers=1), verdicts


@pytest.mark.parametrize(("K", "votes"), sorted(STATES_VISITED))
def test_benign_verdict_is_the_runs_on_time(monkeypatch, K, votes):
    report, verdicts = _crash_free_terminals(
        monkeypatch, MCConfig(n=3, t=1, K=K, votes=votes)
    )
    assert report.stats.states_visited == STATES_VISITED[(K, votes)]
    assert verdicts
    assert all(benign == on_time for benign, on_time in verdicts)


def test_wider_bounds_reach_more_on_time_crash_free_terminals(monkeypatch):
    report, verdicts = _crash_free_terminals(
        monkeypatch, MCConfig(n=3, t=1, K=2, votes=(1, 1, 1), **WIDER_BOUNDS)
    )
    assert not report.violations
    assert report.stats.states_visited == 363
    assert sum(on_time for _benign, on_time in verdicts) > 1
    # A benign verdict is never given to a late run.
    assert all(on_time for benign, on_time in verdicts if benign)


@pytest.mark.parametrize("seed", range(3))
def test_live_kernel_lateness_is_the_built_runs_after_every_event(seed):
    # The exploration above only reaches on-time crash-free terminals,
    # so drive the explorer's inputs through late deliveries as well.
    K, votes = 2, (1, 1, 1)
    programs = [
        CommitProgram(pid=pid, n=3, t=1, initial_vote=vote, K=K)
        for pid, vote in enumerate(votes)
    ]
    adversary = LateMessageAdversary(K, seed=seed, late_probability=0.5)
    sim = Simulation(programs, adversary, K=K, t=1, seed=seed, max_steps=500)
    late_seen = False
    while not sim.all_nonfaulty_done() and sim.event_count < sim.max_steps:
        sim.apply(adversary.decide(sim.view))
        run = sim.build_run()
        assert sim.step_events() == [
            [e.index for e in run.events if e.kind == "step" and e.actor == p]
            for p in range(run.n)
        ]
        late = late_envelopes(sim.K, sim.step_events(), sim.envelopes())
        built = run.late_messages()
        assert [e.message_id for e in late] == [e.message_id for e in built]
        late_seen = late_seen or bool(late)
    assert late_seen
