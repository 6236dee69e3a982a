"""E9 — the introduction's comparison: late messages break [S]/[DS]-style
protocols; they never break Protocol 2.

Claim: "a single violation of the timing assumptions (i.e., a late
message) can cause the protocol to produce the wrong answer" (about the
synchronous-model protocols), while Protocol 2 stays safe under any
timing and merely aborts; and the blocking variant of 2PC shows the
blocking problem those protocols were designed around.

Workload: all-commit votes, four protocols (Protocol 2, 2PC with
presume-abort timeouts, 2PC with blocking timeouts, 3PC) under three
environments: well-behaved (synchronous), late messages (random spikes),
and a coordinator that commits and crashes mid-fan-out.  Reported: the
inconsistency rate (conflicting decisions — wrong answers) and the
blocking rate.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.adversary.base import Adversary
from repro.adversary.crash import AdaptiveCrashAdversary
from repro.adversary.standard import LateMessageAdversary, SynchronousAdversary
from repro.analysis.tables import ResultTable
from repro.core.commit import CommitProgram
from repro.engine import run_trials
from repro.experiments.common import run_programs
from repro.protocols.decentralized import DecentralizedCommitProgram
from repro.protocols.threepc import ThreePCProgram
from repro.protocols.twopc import TimeoutAction, TwoPCProgram
from repro.sim.process import Program

_K = 4


def _protocol_factories(n: int, t: int) -> dict[str, Callable[[], list[Program]]]:
    return {
        "Protocol 2": lambda: [
            CommitProgram(pid=p, n=n, t=t, initial_vote=1, K=_K)
            for p in range(n)
        ],
        "2PC presume-abort": lambda: [
            TwoPCProgram(
                pid=p,
                n=n,
                initial_vote=1,
                K=_K,
                timeout_action=TimeoutAction.PRESUME_ABORT,
            )
            for p in range(n)
        ],
        "2PC blocking": lambda: [
            TwoPCProgram(
                pid=p,
                n=n,
                initial_vote=1,
                K=_K,
                timeout_action=TimeoutAction.BLOCK,
            )
            for p in range(n)
        ],
        "3PC": lambda: [
            ThreePCProgram(pid=p, n=n, initial_vote=1, K=_K) for p in range(n)
        ],
        "decentralized 1PC": lambda: [
            DecentralizedCommitProgram(pid=p, n=n, initial_vote=1, K=_K)
            for p in range(n)
        ],
    }


def _environments(n: int) -> dict[str, Callable[[int], Adversary]]:
    return {
        "well-behaved": lambda seed: SynchronousAdversary(seed=seed),
        "late messages": lambda seed: LateMessageAdversary(
            K=_K,
            seed=seed,
            late_probability=0.35,
            lateness_factor=4,
            target_senders={0},
        ),
        "crash mid-fanout": lambda seed: AdaptiveCrashAdversary(
            victims=[0],
            kill_after_sends=2,
            suppress_to=set(range(1, n)),
            seed=seed,
        ),
    }


def _safety_trial(
    seed: int, protocol: str, environment: str, n: int, t: int, max_steps: int
):
    """One picklable E9 trial, protocol and environment keyed by name."""
    build = _protocol_factories(n, t)[protocol]
    adversary = _environments(n)[environment](seed)
    return run_programs(
        build(), adversary, K=_K, t=t, seed=seed, max_steps=max_steps
    )


def run(
    trials: int = 30,
    base_seed: int = 0,
    quick: bool = False,
    workers: int | None = None,
) -> ResultTable:
    """Run E9 and render its table."""
    n = 5
    t = (n - 1) // 2
    trials = min(trials, 6) if quick else trials
    max_steps = 8_000 if quick else 20_000
    table = ResultTable(
        title=(
            "E9: safety of Protocol 2 vs synchronous-model baselines -- "
            "paper: late messages give [S]/[DS]-style protocols wrong "
            "answers, never Protocol 2"
        ),
        columns=[
            "protocol",
            "environment",
            "trials",
            "wrong answers",
            "blocked",
            "commits",
            "aborts",
        ],
    )
    for protocol_name in _protocol_factories(n, t):
        for env_name in _environments(n):
            wrong = 0
            blocked = 0
            commits = 0
            aborts = 0
            for metrics in run_trials(
                partial(
                    _safety_trial,
                    protocol=protocol_name,
                    environment=env_name,
                    n=n,
                    t=t,
                    max_steps=max_steps,
                ),
                trials=trials,
                base_seed=base_seed,
                workers=workers,
            ):
                if not metrics.consistent:
                    wrong += 1
                elif not metrics.terminated:
                    blocked += 1
                elif metrics.decision == 1:
                    commits += 1
                elif metrics.decision == 0:
                    aborts += 1
            table.add_row(
                protocol_name,
                env_name,
                trials,
                wrong,
                blocked,
                commits,
                aborts,
            )
    table.add_note(
        "wrong answers = runs with two decision values (conflicting "
        "commit/abort).  Protocol 2's column must be zero everywhere; "
        "under bad timing it trades commits for aborts instead."
    )
    return table
