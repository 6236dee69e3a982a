"""Which stock adversaries fall off the fused sweep, pinned.

Every adversary class that ``repro.adversary`` exports runs one small
fast-core trial under a metrics registry.  The stock schedulers that
``sim_fastcore_fallbacks_total`` names are exactly ``RandomAdversary``,
``AdaptiveCrashAdversary`` and ``OmniscientBalancer``; docs/MODELS.md
("How to write a policy that stays on the sweep") says why each stays
off.  The schedule-replaying and fuzzing classes are off the sweep by
construction and are pinned separately, so a new class has to be put
in one group or the other.
"""

import inspect

import pytest

import repro.adversary as adversaries
from repro.adversary import (
    AdaptiveCrashAdversary,
    ChaosAdversary,
    CrashAt,
    CycleAdversary,
    FunctionAdversary,
    LateMessageAdversary,
    OmniscientBalancer,
    OnTimeAdversary,
    PartitionAdversary,
    RandomAdversary,
    ScheduledCrashAdversary,
    ScriptedAdversary,
    SplitVoteAdversary,
    SynchronousAdversary,
)
from repro.core.commit import CommitProgram
from repro.sim.coreselect import run_sim_trial
from repro.sim.decisions import StepDecision
from repro.telemetry.registry import MetricsRegistry, use_registry

N, T, K, SEED = 5, 2, 4, 3

COUNTER = "sim_fastcore_fallbacks_total"


def _round_robin(view):
    pid = view.alive()[view.event_count % len(view.alive())]
    return StepDecision(pid=pid, deliver=tuple(view.pending_ids(pid)))


#: The stock schedulers, one small instance each.
STOCK = {
    CycleAdversary: lambda: CycleAdversary(seed=SEED),
    SynchronousAdversary: lambda: SynchronousAdversary(seed=SEED),
    OnTimeAdversary: lambda: OnTimeAdversary(K=K, seed=SEED),
    LateMessageAdversary: lambda: LateMessageAdversary(K=K, seed=SEED),
    ScheduledCrashAdversary: lambda: ScheduledCrashAdversary(
        crash_plan=[CrashAt(pid=1, cycle=2)], seed=SEED
    ),
    AdaptiveCrashAdversary: lambda: AdaptiveCrashAdversary(
        victims=[0], suppress_to={3, 4}, seed=SEED
    ),
    PartitionAdversary: lambda: PartitionAdversary(
        groups=[{0, 1, 2}, {3, 4}], start_cycle=1, heal_cycle=6, seed=SEED
    ),
    SplitVoteAdversary: lambda: SplitVoteAdversary(n=N, seed=SEED),
    RandomAdversary: lambda: RandomAdversary(seed=SEED),
    OmniscientBalancer: lambda: OmniscientBalancer(n=N, t=T, seed=SEED),
}

#: Classes that replay a given schedule or fuzz one: not schedulers a
#: trial is drawn from, and not cycle-structured.
TOOLS = {
    ScriptedAdversary: lambda: ScriptedAdversary(
        [], then=SynchronousAdversary(seed=SEED)
    ),
    FunctionAdversary: lambda: FunctionAdversary(_round_robin),
    ChaosAdversary: lambda: ChaosAdversary(n=N, max_crashes=T, seed=SEED),
}


def _fallback_labels(factories) -> set[str]:
    registry = MetricsRegistry()
    with use_registry(registry):
        for make in factories.values():
            programs = [
                CommitProgram(pid=pid, n=N, t=T, initial_vote=1, K=K)
                for pid in range(N)
            ]
            run_sim_trial(programs, make(), K, T, SEED, 3_000, core="fast")
    family = registry.snapshot().get(COUNTER, {"samples": []})
    return {sample["labels"]["adversary"] for sample in family["samples"]}


def test_every_exported_adversary_class_is_in_one_group():
    exported = {
        cls
        for name in adversaries.__all__
        if inspect.isclass(cls := getattr(adversaries, name))
        and issubclass(cls, adversaries.Adversary)
        and cls is not adversaries.Adversary
    }
    assert exported == set(STOCK) | set(TOOLS)


def test_only_three_stock_adversaries_fall_off_the_sweep():
    assert _fallback_labels(STOCK) == {
        "RandomAdversary",
        "AdaptiveCrashAdversary",
        "OmniscientBalancer",
    }


@pytest.mark.parametrize("cls", sorted(TOOLS, key=lambda c: c.__name__))
def test_replay_and_fuzzing_tools_run_on_the_kernel(cls):
    assert _fallback_labels({cls: TOOLS[cls]}) == {cls.__name__}
