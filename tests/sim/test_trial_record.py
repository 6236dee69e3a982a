"""A finished trial's flat record, and the ``Run`` built beside it.

Both kernels hand over a :class:`~repro.sim.trace.TrialRecord`, and the
trial's ``RunMetrics`` are read off it
(:func:`repro.analysis.metrics.trial_metrics`).  A ``Run`` is still
built for callers that return or export one, and
:func:`~repro.analysis.metrics.metrics_from_run` reaches the same
derivation through ``Run.trial_record``.  These tests keep
``Simulation.build_run`` checked now that the metrics path does not
build it: on both kernels, over the stock adversaries and random fault
plans, the metrics of ``sim.build_run()`` equal the record's.
"""

import pytest

from repro.adversary.base import CrashAt
from repro.adversary.crash import ScheduledCrashAdversary
from repro.adversary.standard import (
    LateMessageAdversary,
    OnTimeAdversary,
    SynchronousAdversary,
)
from repro.analysis.metrics import metrics_from_run, trial_metrics
from repro.core.commit import CommitProgram
from repro.faults.plan import FaultPlan
from repro.faults.sim_compile import compile_to_adversary
from repro.sim.fastcore import sweep_gate, sweep_run
from repro.sim.scheduler import Simulation

N, T, K = 5, 2, 4
MAX_STEPS = 6_000

ADVERSARIES = {
    "synchronous": lambda seed: SynchronousAdversary(seed=seed),
    "ontime": lambda seed: OnTimeAdversary(K=K, seed=seed),
    "late": lambda seed: LateMessageAdversary(
        K=K, seed=seed, late_probability=0.3
    ),
    "crash": lambda seed: ScheduledCrashAdversary(
        [CrashAt(pid=seed % N, cycle=1 + seed % 7)], seed=seed
    ),
    "plan": lambda seed: compile_to_adversary(
        FaultPlan.random(n=N, t=T, seed=seed, K=K), K=K
    ),
    "plan-over-budget": lambda seed: compile_to_adversary(
        FaultPlan.random(n=N, t=T, seed=seed, K=K, over_budget=True), K=K
    ),
}

SEEDS = range(4)


def _programs(seed):
    votes = [0 if (seed + pid) % 7 == 0 else 1 for pid in range(N)]
    return [
        CommitProgram(pid=pid, n=N, t=T, initial_vote=vote, K=K)
        for pid, vote in enumerate(votes)
    ]


def _reference(name, seed):
    programs = _programs(seed)
    simulation = Simulation(
        programs, ADVERSARIES[name](seed), K=K, t=T, seed=seed,
        max_steps=MAX_STEPS,
    )
    simulation.execute()
    return programs, simulation


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_build_run_metrics_equal_the_record_metrics(name, seed):
    programs, simulation = _reference(name, seed)
    from_run = metrics_from_run(
        simulation.build_run(), record=False, programs=programs
    )
    assert from_run == trial_metrics(
        programs, simulation.trial_record(), record=False
    )

    adversary = ADVERSARIES[name](seed)
    assert sweep_gate(adversary)
    swept_programs = _programs(seed)
    swept = sweep_run(swept_programs, adversary, K, T, seed, MAX_STEPS)
    assert trial_metrics(swept_programs, swept, record=False) == from_run


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_the_run_reduces_to_the_kernels_record(name):
    # Everything but the envelope objects: the kernel hands over its
    # own, the Run holds the same ones by id.
    _, simulation = _reference(name, 1)
    kernel = simulation.trial_record()
    from_run = simulation.build_run().trial_record()
    for field in (
        "n", "t", "K", "decisions", "decision_clocks", "crashes",
        "step_events", "events", "terminated",
    ):
        assert getattr(from_run, field) == getattr(kernel, field), field
    assert [env.message_id for env in from_run.envelopes] == [
        env.message_id for env in kernel.envelopes
    ]
