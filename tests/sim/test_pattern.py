"""Tests for the adversary's pattern view."""

from repro.adversary.standard import SynchronousAdversary
from repro.sim.decisions import CrashDecision, StepDecision
from tests.conftest import make_commit_simulation


class TestPatternView:
    def make(self):
        sim, _ = make_commit_simulation([1] * 3, t=1)
        return sim

    def test_static_parameters(self):
        sim = self.make()
        view = sim.view
        assert view.n == 3
        assert view.t == 1
        assert view.K == 4

    def test_event_count_tracks_events(self):
        sim = self.make()
        assert sim.view.event_count == 0
        sim.apply(StepDecision(pid=0))
        assert sim.view.event_count == 1

    def test_alive_and_crashed(self):
        sim = self.make()
        assert sim.view.alive() == [0, 1, 2]
        sim.apply(CrashDecision(pid=1))
        assert sim.view.alive() == [0, 2]
        assert sim.view.crashed() == frozenset({1})

    def test_pending_ids_oldest_first(self):
        sim = self.make()
        sim.apply(StepDecision(pid=0))  # coordinator fans out GO
        ids = sim.view.pending_ids(1)
        assert ids == sorted(ids)

    def test_view_is_contents_free(self):
        sim = self.make()
        sim.apply(StepDecision(pid=0))
        for pending in sim.view.pending(1):
            assert not hasattr(pending, "payloads")
        for entry in sim.view.history():
            assert not hasattr(entry, "payloads")
