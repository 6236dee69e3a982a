"""A finished reference trial is freed by its reference count.

The kernel holds no reference back to itself (``Simulation.view`` is
built per access), so a trial's whole record goes the moment its last
user lets go, without waiting for the cyclic collector.  This test runs
with that collector off and requires the ``Simulation`` of a finished
``run_commit_trial`` to be gone when the call returns.
"""

import gc
import weakref

import pytest

from repro.adversary.standard import OnTimeAdversary
from repro.analysis.montecarlo import CommitTrialConfig, run_commit_trial
from repro.sim.scheduler import Simulation


@pytest.fixture
def no_cyclic_gc():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def test_finished_commit_trial_is_freed_without_the_collector(
    monkeypatch, no_cyclic_gc
):
    made = []
    init = Simulation.__init__

    def noting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(Simulation, "__init__", noting)
    config = CommitTrialConfig(
        votes=[1] * 5, adversary_factory=lambda s: OnTimeAdversary(K=4, seed=s)
    )
    metrics = run_commit_trial(config, 3, core="reference")
    assert metrics.events > 0
    assert len(made) == 1
    assert made[0]() is None

