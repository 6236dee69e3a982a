"""E5 — Remark 3: the shared coin list is the engine of fast termination.

Claim: the shared coin list is what lowers Ben-Or's exponential expected
time to a constant, and longer lists push the expected stage count from
(just under) 4 toward 3 — "by having the coordinator flip more than n
coins, the expected value in Lemma 8 can get arbitrarily close to 3".

Workload: standalone agreement with split inputs against the strongest
attacker we have — the content-reading balancer (itself outside the
paper's model, so this is an *over*-adversarial ablation).  We sweep the
coin-list length ``m``: at ``m = 0`` the protocol *is* Ben-Or and stages
blow up; any ``m >= 1`` restores constant stages because the first
balanced stage lands everyone on the same shared coin.  The private-coin
fallback beyond the list is also exercised (``m`` between 1 and the
stage count reached).
"""

from __future__ import annotations

from functools import partial

from repro.adversary.omniscient import OmniscientBalancer
from repro.analysis.montecarlo import run_custom_batch
from repro.analysis.tables import ResultTable
from repro.core.api import shared_coins
from repro.engine import seeds as seed_scheme
from repro.experiments.common import agreement_trial, alternating_values


def _ablation_trial(seed: int, n: int, t: int, m: int, max_steps: int):
    """One picklable E5 trial at coin-list length ``m``."""
    adversary = OmniscientBalancer(n=n, t=t, seed=seed)
    return agreement_trial(
        n=n,
        t=t,
        values=alternating_values(n),
        adversary=adversary,
        seed=seed,
        coins=shared_coins(
            m, seed=seed_scheme.derive(seed, seed_scheme.ABLATION_COIN_STREAM)
        ),
        max_steps=max_steps,
    )


def run(
    trials: int = 25,
    base_seed: int = 0,
    quick: bool = False,
    workers: int | None = None,
) -> ResultTable:
    """Run E5 and render its table."""
    n = 6
    t = (n - 1) // 2
    lengths = (0, 1, n) if quick else (0, 1, n // 2, n, 4 * n)
    trials = min(trials, 8) if quick else trials
    max_steps = 60_000 if quick else 250_000
    table = ResultTable(
        title=(
            "E5 (Remark 3): agreement stages vs shared-coin-list length, "
            "content-reading balancer, split inputs"
        ),
        columns=[
            "n",
            "|coins|",
            "trials",
            "mean stages",
            "max stages",
            "shared-coin stages",
            "private-coin stages",
            "terminated",
        ],
    )
    for m in lengths:
        batch = run_custom_batch(
            partial(_ablation_trial, n=n, t=t, m=m, max_steps=max_steps),
            trials=trials,
            base_seed=base_seed,
            workers=workers,
        )
        stages = batch.summary("stages")
        shared_used = batch.summary("shared_coin_stages")
        private_used = batch.summary("private_coin_stages")
        table.add_row(
            n,
            m,
            len(batch),
            stages.mean,
            int(stages.maximum),
            shared_used.mean,
            private_used.mean,
            f"{batch.termination_rate:.0%}",
        )
    table.add_note(
        "m = 0 degenerates to Ben-Or (local coins only): stages explode "
        "under the balancer; any m >= 1 restores constant stages."
    )
    return table
