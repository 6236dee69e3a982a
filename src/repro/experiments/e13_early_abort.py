"""E13 (ablation) — the unilateral early abort of Protocol 2's line 7.

The paper remarks in passing that after line 7, "any processor that has
abort as its vote can actually implement the abort": its 0 vote makes
every processor's Protocol 1 input 0, so validity fixes the outcome.
This ablation measures what the optimisation buys: the clock tick at
which the *first* processor enters the abort decision state, with and
without it, across abort triggers (initial no-voters; a timeout-induced
abort under a transient partition).

Expected shape: identical final decisions either way (it is an
optimisation, not a semantic change), with the first abort decision
landing several ticks earlier — before the vote collection and the whole
agreement subroutine instead of after them.
"""

from __future__ import annotations

from functools import partial

from repro.adversary.partition import PartitionAdversary
from repro.adversary.standard import OnTimeAdversary
from repro.analysis.montecarlo import run_custom_batch
from repro.analysis.tables import ResultTable
from repro.core.commit import CommitProgram
from repro.sim.coreselect import run_sim_trial

_K = 4


def _scenario_adversary(scenario: str, seed: int):
    if scenario == "timeout abort (partition)":
        return PartitionAdversary(
            groups=[{0, 1, 2}, {3, 4}],
            start_cycle=1,
            heal_cycle=30,
            seed=seed,
        )
    return OnTimeAdversary(K=_K, seed=seed)


def _abort_trial(
    seed: int,
    votes: tuple[int, ...],
    scenario: str,
    early: bool,
    max_steps: int,
):
    """One picklable E13 trial: one vote pattern, one scenario, one seed."""
    n = len(votes)
    t = (n - 1) // 2
    programs = [
        CommitProgram(
            pid=pid,
            n=n,
            t=t,
            initial_vote=vote,
            K=_K,
            early_abort=early,
        )
        for pid, vote in enumerate(votes)
    ]
    return run_sim_trial(
        programs, _scenario_adversary(scenario, seed), _K, t, seed, max_steps
    ).metrics()


def run(
    trials: int = 30,
    base_seed: int = 0,
    quick: bool = False,
    workers: int | None = None,
) -> ResultTable:
    """Run E13 and render its table."""
    n = 5
    trials = min(trials, 8) if quick else trials
    scenarios = {
        "one no-voter": (1, 1, 0, 1, 1),
        "two no-voters": (0, 1, 0, 1, 1),
        "timeout abort (partition)": (1,) * n,
    }
    table = ResultTable(
        title=(
            "E13 (ablation): unilateral early abort (the paper's line-7 "
            "aside) -- same decisions, earlier first abort"
        ),
        columns=[
            "scenario",
            "early abort",
            "trials",
            "mean first-abort ticks",
            "mean last-decision ticks",
            "abort rate",
            "consistent",
        ],
    )
    for scenario, votes in scenarios.items():
        for early in (False, True):
            batch = run_custom_batch(
                partial(
                    _abort_trial,
                    votes=votes,
                    scenario=scenario,
                    early=early,
                    max_steps=20_000,
                ),
                trials=trials,
                base_seed=base_seed,
                workers=workers,
            )
            first = batch.summary("first_decision_ticks")
            last = batch.summary("ticks")
            table.add_row(
                scenario,
                "yes" if early else "no",
                len(batch),
                first.mean,
                last.mean,
                f"{batch.rate(lambda m: m.decision == 0):.0%}",
                f"{batch.consistency_rate:.0%}",
            )
    table.add_note(
        "first-abort ticks = earliest clock at which any processor "
        "entered its decision state; with early abort the no-voters "
        "decide at line 7, before vote collection and the agreement."
    )
    return table
