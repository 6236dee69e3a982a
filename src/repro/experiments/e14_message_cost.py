"""E14 (ablation) — what nonblocking commitment costs in messages.

The paper's comparison with [S]/[DS] is about *robustness* (they err or
block; Protocol 2 never errs), but the flip side — price — is the theme
of the cited Dwork–Skeen paper ("The Inherent Cost of Nonblocking
Commitment").  This ablation measures it on our substrate: envelopes and
steps per decided transaction for centralized 2PC (O(n) messages), 3PC
(O(n), one more round trip), and Protocol 2 (O(n^2) per stage — every
participant broadcasts), across system sizes, on the same failure-free
on-time schedule.

Expected shape: 2PC cheapest, 3PC ~1.5x 2PC, Protocol 2 quadratic — the
robustness of randomized nonblocking commit is bought with message
complexity, which is exactly why the paper's protocol aims its claims at
fault tolerance and expected rounds rather than message counts.
"""

from __future__ import annotations

from functools import partial

from repro.adversary.standard import SynchronousAdversary
from repro.analysis.montecarlo import run_custom_batch
from repro.analysis.tables import ResultTable
from repro.core.commit import CommitProgram
from repro.experiments.common import run_programs
from repro.protocols.decentralized import DecentralizedCommitProgram
from repro.protocols.threepc import ThreePCProgram
from repro.protocols.twopc import TwoPCProgram

_K = 4


def _build(protocol: str, n: int):
    t = (n - 1) // 2
    if protocol == "2PC":
        return [TwoPCProgram(pid=p, n=n, initial_vote=1, K=_K) for p in range(n)]
    if protocol == "3PC":
        return [
            ThreePCProgram(pid=p, n=n, initial_vote=1, K=_K) for p in range(n)
        ]
    if protocol == "decentralized 1PC":
        return [
            DecentralizedCommitProgram(pid=p, n=n, initial_vote=1, K=_K)
            for p in range(n)
        ]
    if protocol == "Protocol 2":
        return [
            CommitProgram(pid=p, n=n, t=t, initial_vote=1, K=_K)
            for p in range(n)
        ]
    raise ValueError(f"unknown protocol {protocol!r}")


PROTOCOLS = ("2PC", "3PC", "decentralized 1PC", "Protocol 2")


def _cost_trial(seed: int, protocol: str, n: int):
    """One picklable E14 trial: one protocol at one size and seed."""
    return run_programs(
        _build(protocol, n),
        SynchronousAdversary(seed=seed),
        K=_K,
        t=(n - 1) // 2,
        seed=seed,
        max_steps=100_000,
    )


def run(
    trials: int = 10,
    base_seed: int = 0,
    quick: bool = False,
    workers: int | None = None,
) -> ResultTable:
    """Run E14 and render its table."""
    sizes = (5, 9) if quick else (5, 9, 17, 33)
    trials = min(trials, 3) if quick else trials
    table = ResultTable(
        title=(
            "E14 (ablation): message cost of commitment, failure-free "
            "on-time runs -- 2PC/3PC O(n); decentralized 1PC and "
            "Protocol 2 O(n^2)"
        ),
        columns=[
            "protocol",
            "n",
            "trials",
            "mean envelopes",
            "envelopes / n",
            "mean events",
            "committed",
        ],
    )
    for protocol in PROTOCOLS:
        for n in sizes:
            batch = run_custom_batch(
                partial(_cost_trial, protocol=protocol, n=n),
                trials=trials,
                base_seed=base_seed,
                workers=workers,
            )
            envelopes = batch.summary("messages")
            events = batch.summary("events")
            table.add_row(
                protocol,
                n,
                len(batch),
                envelopes.mean,
                envelopes.mean / n,
                events.mean,
                f"{batch.commit_rate:.0%}",
            )
    table.add_note(
        "envelopes = point-to-point messages on the wire (one broadcast "
        "= n - 1 envelopes); robustness is bought with the quadratic "
        "column — the trade the Dwork-Skeen citation is about."
    )
    return table
