"""Theorem 14, executably: no transaction commit protocol for ``n <= 2t``.

The theorem quantifies over *all* protocols, which no simulation can do;
what we make executable is (a) the proof's schedule machinery (Lemmas 12
and 13 are property-tested in the test suite via
:mod:`repro.lowerbound.replay`) and (b) the proof's adversary — kill half
the processors — instantiated against our own protocol at the boundary:

* at ``n = 2t + 1`` (one above the bound) killing ``t`` processors leaves
  ``n - t`` alive; the survivors' waits are satisfiable, the "more than
  n/2" majority threshold is reachable among them, and the protocol
  decides;
* at ``n = 2t`` (on the bound) killing ``t`` leaves exactly ``t = n - t``
  alive: every ``n - t`` wait is still (barely) satisfiable, but a group
  of ``t`` can never produce "more than n/2 = t" matching first-phase
  messages, so no S-message is ever sent, no processor ever decides, and
  the run blocks forever.  Our protocol *fails to terminate* rather than
  producing a wrong answer — graceful degradation (Theorem 11) exactly
  where Theorem 14 says success is impossible.

The surviving group cannot tell this run from one where the dead half is
merely slow — the indistinguishability at the heart of the proof.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.base import CrashAt
from repro.adversary.crash import ScheduledCrashAdversary
from repro.core.commit import CommitProgram
from repro.sim.coreselect import run_sim_trial
from repro.types import Vote


@dataclass(frozen=True)
class BoundaryResult:
    """One run at the resilience boundary.

    Attributes:
        n: processors.
        t: fault budget (= number of processors actually killed).
        terminated: whether every nonfaulty program returned.
        consistent: whether at most one decision value appeared.
        decided_values: the set of decided values.
    """

    n: int
    t: int
    terminated: bool
    consistent: bool
    decided_values: frozenset[int]


def kill_half_adversary(
    n: int, t: int, crash_cycle: int = 1, seed: int = 0
) -> ScheduledCrashAdversary:
    """The Theorem 14 adversary: fail-stop ``t`` processors early.

    Kills processors ``1 .. t`` (sparing the coordinator so the protocol
    is actually started — the admissibility definition requires some
    nonfaulty processor to receive a message).  Everything else is fair
    round-robin with prompt delivery, so the adversary is
    ``t``-admissible.
    """
    if t >= n:
        raise ValueError(f"cannot kill {t} of {n} processors")
    victims = [CrashAt(pid=pid, cycle=crash_cycle) for pid in range(1, t + 1)]
    return ScheduledCrashAdversary(crash_plan=victims, seed=seed)


def run_boundary_case(
    n: int,
    t: int,
    K: int = 4,
    seed: int = 0,
    max_steps: int = 40_000,
) -> BoundaryResult:
    """Run Protocol 2 (all-commit votes) with ``t`` processors killed."""
    programs = [
        CommitProgram(
            pid=pid,
            n=n,
            t=t,
            initial_vote=Vote.COMMIT,
            K=K,
            allow_sub_resilience=True,
        )
        for pid in range(n)
    ]
    trial = run_sim_trial(
        programs, kill_half_adversary(n, t, seed=seed), K, t, seed, max_steps
    )
    decided = frozenset(d for d in trial.decisions if d is not None)
    return BoundaryResult(
        n=n,
        t=t,
        terminated=trial.terminated,
        consistent=len(decided) <= 1,
        decided_values=decided,
    )


def demonstrate_boundary(
    t: int, K: int = 4, seed: int = 0, max_steps: int = 40_000
) -> tuple[BoundaryResult, BoundaryResult]:
    """The sharp threshold: ``n = 2t`` blocks, ``n = 2t + 1`` decides.

    Returns the pair of results (at the bound, above the bound).
    """
    at_bound = run_boundary_case(
        n=2 * t, t=t, K=K, seed=seed, max_steps=max_steps
    )
    above_bound = run_boundary_case(
        n=2 * t + 1, t=t, K=K, seed=seed, max_steps=max_steps
    )
    return at_bound, above_bound
