"""Shared helpers for the experiment runners.

Every experiment is a function ``run(trials, base_seed, quick) ->
ResultTable``.  ``quick`` shrinks the workload to benchmark-friendly
sizes; the full sizes regenerate the EXPERIMENTS.md numbers.  All trials
derive their randomness from ``base_seed`` so tables are replayable.
"""

from __future__ import annotations

from typing import Sequence

from repro.adversary.base import Adversary
from repro.analysis.metrics import RunMetrics
from repro.core.agreement import AgreementProgram
from repro.core.api import shared_coins
from repro.core.coins import CoinList
from repro.core.halting import HaltingMode
from repro.engine import seeds as seed_scheme
from repro.sim.coreselect import run_sim_trial
from repro.sim.process import Program


def run_programs(
    programs: Sequence[Program],
    adversary: Adversary,
    K: int,
    t: int,
    seed: int,
    max_steps: int,
) -> RunMetrics:
    """Run arbitrary programs under an adversary and extract metrics."""
    from repro.models import apply_active_model

    adversary = apply_active_model(adversary, K=K, seed=seed)
    return run_sim_trial(
        list(programs), adversary, K, t, seed, max_steps
    ).metrics()


def agreement_trial(
    n: int,
    t: int,
    values: Sequence[int],
    adversary: Adversary,
    seed: int,
    K: int = 4,
    coins: CoinList | None = None,
    halting: HaltingMode = HaltingMode.DECIDE_BROADCAST,
    max_steps: int = 100_000,
) -> RunMetrics:
    """One standalone agreement run with the given adversary."""
    if coins is None:
        coins = shared_coins(n, seed=seed_scheme.coin_seed(seed))
    programs = [
        AgreementProgram(
            pid=pid,
            n=n,
            t=t,
            initial_value=value,
            coins=coins,
            halting=halting,
        )
        for pid, value in enumerate(values)
    ]
    return run_programs(
        programs, adversary, K=K, t=t, seed=seed, max_steps=max_steps
    )


def alternating_values(n: int) -> list[int]:
    """The maximally-split input pattern 0, 1, 0, 1, ..."""
    return [pid % 2 for pid in range(n)]
