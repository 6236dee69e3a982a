"""Valency, executably: the initial configuration is bivalent (Lemma 15).

Section 5 classifies configurations by the decision values reachable from
them under x-slow, F-compatible runs; Lemma 15 shows that on the
failure-free on-time path from the all-commit initial configuration there
is a configuration from which *both* decisions are reachable.  The
bivalence of the initial configuration itself has a crisp executable
witness: fix the processors, their votes (all commit), and the entire
random-tape collection ``F`` — then exhibit two admissible schedules, one
on-time (the decision must be commit, by commit validity) and one slow
(the GO/vote collection times out and the decision is abort).  Same
protocol, same coins, same initial state; only the message timing
differs, and so does the outcome.

This is the engine of Theorem 17: because timing alone separates the two
decisions, an adversary can hold the protocol at the fork arbitrarily
long, so no bound on expected clock ticks can exist.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.base import CycleAdversary, DelayCycles
from repro.adversary.standard import SynchronousAdversary
from repro.core.api import ProtocolOutcome
from repro.core.commit import CommitProgram
from repro.sim.scheduler import Simulation
from repro.types import Decision, Vote


@dataclass(frozen=True)
class ValencyWitness:
    """Two runs from identical initial configurations and tapes.

    Attributes:
        fast: the on-time run (must decide COMMIT by commit validity).
        slow: the delayed run (decides ABORT via the 2K timeouts).
        tape_seed: the shared seed of the tape collection ``F``.
    """

    fast: ProtocolOutcome
    slow: ProtocolOutcome
    tape_seed: int

    @property
    def is_bivalent(self) -> bool:
        """Whether the witness demonstrates both reachable decisions."""
        return (
            self.fast.unanimous_decision is Decision.COMMIT
            and self.slow.unanimous_decision is Decision.ABORT
        )


def _run_with(
    n: int, t: int, K: int, adversary, tape_seed: int, max_steps: int
) -> ProtocolOutcome:
    programs = [
        CommitProgram(pid=pid, n=n, t=t, initial_vote=Vote.COMMIT, K=K)
        for pid in range(n)
    ]
    simulation = Simulation(
        programs=programs,
        adversary=adversary,
        K=K,
        t=t,
        seed=tape_seed,
        max_steps=max_steps,
    )
    return ProtocolOutcome(result=simulation.run())


def bivalence_witness(
    n: int = 5,
    K: int = 4,
    tape_seed: int = 0,
    slow_factor: int = 4,
    max_steps: int = 200_000,
) -> ValencyWitness:
    """Build the bivalence witness for the all-commit initial configuration.

    Args:
        n: number of processors (``t`` is the optimum).
        K: the on-time bound.
        tape_seed: seed of the shared tape collection ``F`` — both runs
            use the *same* tapes, so the coins are identical.
        slow_factor: the slow run delays every delivery by
            ``slow_factor * K`` cycles (late by construction).
    """
    t = (n - 1) // 2
    fast = _run_with(
        n=n,
        t=t,
        K=K,
        adversary=SynchronousAdversary(seed=tape_seed),
        tape_seed=tape_seed,
        max_steps=max_steps,
    )
    slow = _run_with(
        n=n,
        t=t,
        K=K,
        adversary=CycleAdversary(
            seed=tape_seed,
            delivery=DelayCycles(
                min_cycles=slow_factor * K, max_cycles=slow_factor * K
            ),
        ),
        tape_seed=tape_seed,
        max_steps=max_steps,
    )
    return ValencyWitness(fast=fast, slow=slow, tape_seed=tape_seed)
