"""Theorem 17, executably: expected clock ticks to decision are unbounded.

The theorem says that for any constant ``B`` there is an adversary making
the expected decision time exceed ``B`` clock ticks — no protocol in this
model terminates in bounded expected time, which is why the paper defines
asynchronous rounds instead.  The constructed adversary simply *slows the
messages down*: the processors keep ticking while deliveries take ``D``
cycles, so decision ticks grow without bound in ``D``.

The companion fact that justifies the round measure is that the very same
runs decide in a (small) constant number of *asynchronous rounds*: a
round stretches to absorb the delay, because its end is defined relative
to the receipt of the previous round's messages.  Experiment E8 sweeps
``D`` and reports both series side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.base import CycleAdversary, DelayCycles
from repro.core.commit import CommitProgram
from repro.sim.coreselect import run_sim_trial
from repro.types import Vote


@dataclass(frozen=True)
class DelayScalingPoint:
    """Metrics of one run under a uniform delivery delay of ``D`` cycles.

    Attributes:
        delay_cycles: the delay ``D`` every message experiences.
        terminated: whether the run decided (it always should).
        decision_ticks: max clock at a decide step.
        decision_rounds: asynchronous rounds to the last decision.
        on_time: whether the run was on time (false once ``D > K``).
    """

    delay_cycles: int
    terminated: bool
    decision_ticks: int | None
    decision_rounds: int | None
    on_time: bool


def uniform_delay_adversary(delay_cycles: int, seed: int = 0) -> CycleAdversary:
    """Fair round-robin stepping with every delivery held ``D`` cycles."""
    if delay_cycles < 1:
        raise ValueError(f"delay must be at least one cycle, got {delay_cycles}")
    return CycleAdversary(
        seed=seed,
        delivery=DelayCycles(min_cycles=delay_cycles, max_cycles=delay_cycles),
    )


def run_delay_point(
    n: int,
    delay_cycles: int,
    K: int = 4,
    t: int | None = None,
    seed: int = 0,
    max_steps: int = 400_000,
) -> DelayScalingPoint:
    """Run Protocol 2 (all-commit votes) under a uniform delay of ``D``."""
    if t is None:
        t = (n - 1) // 2
    programs = [
        CommitProgram(pid=pid, n=n, t=t, initial_vote=Vote.COMMIT, K=K)
        for pid in range(n)
    ]
    metrics = run_sim_trial(
        programs,
        uniform_delay_adversary(delay_cycles, seed=seed),
        K,
        t,
        seed,
        max_steps,
    ).metrics()
    return DelayScalingPoint(
        delay_cycles=delay_cycles,
        terminated=metrics.terminated,
        decision_ticks=metrics.ticks,
        decision_rounds=metrics.rounds,
        on_time=metrics.on_time,
    )


def measure_delay_scaling(
    n: int,
    delays: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    K: int = 4,
    seed: int = 0,
) -> list[DelayScalingPoint]:
    """Sweep the delay ``D`` and collect tick/round series."""
    return [
        run_delay_point(n=n, delay_cycles=d, K=K, seed=seed) for d in delays
    ]
