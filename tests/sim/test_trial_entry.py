"""The whole-trial callers that go through ``run_sim_trial``.

The experiments' agreement trials (``run_programs``), E13's abort
trials and the Theorem 14 and 17 runs reach the kernel only through
:func:`repro.sim.coreselect.run_sim_trial`.  Each gives the same result
on both cores, and on the default core each runs on the fused sweep.
"""

import pytest

import repro.sim.fastcore as fastcore
from repro.adversary import SynchronousAdversary
from repro.experiments.common import agreement_trial
from repro.experiments.e13_early_abort import _abort_trial
from repro.lowerbound.theorem14 import run_boundary_case
from repro.lowerbound.theorem17 import run_delay_point
from repro.sim.coreselect import set_default_sim_core

CALLERS = {
    "agreement_trial": lambda: agreement_trial(
        n=5, t=2, values=(0, 1, 0, 1, 1), adversary=SynchronousAdversary(seed=4),
        seed=4,
    ),  # fmt: skip
    "e13_partition_abort": lambda: _abort_trial(
        5, (0, 1, 0, 1, 1), "timeout abort (partition)", True, 20_000
    ),
    "theorem14_blocks": lambda: run_boundary_case(n=4, t=2, max_steps=4_000),
    "theorem14_decides": lambda: run_boundary_case(n=5, t=2, max_steps=15_000),
    "theorem17_late": lambda: run_delay_point(n=5, delay_cycles=16, K=4),
}


@pytest.fixture(autouse=True)
def _clear_override():
    set_default_sim_core(None)
    yield
    set_default_sim_core(None)


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_the_same_result_on_both_cores(caller):
    set_default_sim_core("reference")
    reference = CALLERS[caller]()
    set_default_sim_core("fast")
    assert CALLERS[caller]() == reference


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_the_default_core_runs_it_on_the_sweep(caller, monkeypatch):
    swept = []
    sweep_run = fastcore.sweep_run

    def counting_sweep_run(*args):
        swept.append(args)
        return sweep_run(*args)

    monkeypatch.setattr(fastcore, "sweep_run", counting_sweep_run)
    CALLERS[caller]()
    assert len(swept) == 1

