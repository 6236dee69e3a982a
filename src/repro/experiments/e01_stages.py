"""E1 — Lemma 8: Protocol 1 decides in < 4 expected stages.

Claim: with a shared coin list of length >= n, all nonfaulty processors
decide in a constant expected number of stages (the paper derives
E[X] < 4, and Remark 3 notes it approaches 3 as the list grows).

Workload: standalone agreement with maximally-split inputs (0,1,0,1,...)
— the hardest honest input — over a sweep of ``n``, under both a fair
random scheduler and the camp-splitting pattern adversary.  The reported
metric is the max stage at which any nonfaulty processor decided.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.adversary.base import Adversary
from repro.adversary.random_walk import RandomAdversary
from repro.adversary.splitter import SplitVoteAdversary
from repro.analysis.montecarlo import run_custom_batch
from repro.analysis.tables import ResultTable
from repro.engine import SeededFactory
from repro.experiments.common import agreement_trial, alternating_values


def _stage_trial(
    seed: int, n: int, t: int, adversary_factory: Callable[[int], Adversary]
):
    """One picklable E1 trial: split inputs, one adversary, one seed."""
    return agreement_trial(
        n=n,
        t=t,
        values=alternating_values(n),
        adversary=adversary_factory(seed),
        seed=seed,
    )


def run(
    trials: int = 60,
    base_seed: int = 0,
    quick: bool = False,
    workers: int | None = None,
) -> ResultTable:
    """Run E1 and render its table."""
    sizes = (4, 8) if quick else (4, 8, 16, 24)
    trials = min(trials, 12) if quick else trials

    def adversaries(n: int) -> dict[str, SeededFactory]:
        return {
            "random": SeededFactory.of(RandomAdversary),
            "splitter": SeededFactory.of(SplitVoteAdversary, n=n),
        }
    table = ResultTable(
        title=(
            "E1 (Lemma 8): expected stages of Protocol 1 with |coins| >= n "
            "-- paper: < 4"
        ),
        columns=[
            "n",
            "t",
            "adversary",
            "trials",
            "mean stages",
            "95% CI high",
            "max stages",
            "terminated",
        ],
    )
    for n in sizes:
        t = (n - 1) // 2
        for name, factory in adversaries(n).items():
            batch = run_custom_batch(
                partial(_stage_trial, n=n, t=t, adversary_factory=factory),
                trials=trials,
                base_seed=base_seed,
                workers=workers,
            )
            stages = batch.summary("decision_stage")
            table.add_row(
                n,
                t,
                name,
                len(batch),
                stages.mean,
                stages.ci_high,
                int(stages.maximum),
                f"{batch.termination_rate:.0%}",
            )
    table.add_note(
        "decision stage = max stage at which a nonfaulty processor decided; "
        "Lemma 8 bounds its expectation below 4."
    )
    return table
