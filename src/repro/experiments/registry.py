"""The experiment registry: every reproduced claim, by id.

The paper has no numbered tables or figures; its quantitative claims
(lemmas, theorems, and the remarks after Theorem 11) play that role.
DESIGN.md §3 maps each claim to an experiment id; this registry maps each
id to the module that runs it, imported only when it runs.  ``run_all``
regenerates every table (EXPERIMENTS.md is its rendered output).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

from repro.analysis.tables import ResultTable
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger

_log = get_logger("experiments")


@dataclass(frozen=True)
class ExperimentInfo:
    """Registry metadata for one experiment.

    ``module`` names the experiment's module in :mod:`repro.experiments`;
    it is imported when the experiment runs, so running one experiment
    loads only its own module.
    """

    id: str
    title: str
    claim: str
    expectation: str
    module: str

    @property
    def runner(self) -> Callable[..., ResultTable]:
        """The module's ``run(trials, base_seed, quick, workers)``."""
        return import_module(f"repro.experiments.{self.module}").run


EXPERIMENTS: dict[str, ExperimentInfo] = {
    info.id: info
    for info in (
        ExperimentInfo(
            id="E1",
            title="Agreement stages (Lemma 8)",
            claim="Protocol 1 decides in < 4 expected stages with |coins| >= n",
            expectation="mean decision stage below 4 for every n and adversary",
            module="e01_stages",
        ),
        ExperimentInfo(
            id="E2",
            title="Commit rounds (Theorem 10)",
            claim="Protocol 2 decides in <= 14 expected asynchronous rounds",
            expectation="mean decision round well below 14",
            module="e02_rounds",
        ),
        ExperimentInfo(
            id="E3",
            title="Failure-free ticks (Remark 1)",
            claim="failure-free on-time runs decide within 8K clock ticks",
            expectation="max ticks <= 8K on every run",
            module="e03_ticks",
        ),
        ExperimentInfo(
            id="E4",
            title="On-time ticks with crashes (Remark 2)",
            claim="on-time runs decide in constant expected ticks despite <= t crashes",
            expectation="mean ticks stay near the failure-free value as crashes grow",
            module="e04_ontime_crashes",
        ),
        ExperimentInfo(
            id="E5",
            title="Coin-list ablation (Remark 3)",
            claim="the shared coin list is what makes termination fast",
            expectation="stages explode at |coins| = 0, constant for |coins| >= 1",
            module="e05_coin_ablation",
        ),
        ExperimentInfo(
            id="E6",
            title="Graceful degradation (Theorem 11)",
            claim="beyond t faults: never a conflict, only non-termination",
            expectation="conflict rate 0 at every crash count",
            module="e06_graceful_degradation",
        ),
        ExperimentInfo(
            id="E7",
            title="Resilience bound (Theorem 14)",
            claim="no commit protocol for n <= 2t; threshold is sharp",
            expectation="blocks at n = 2t, decides at n = 2t + 1, no conflicts",
            module="e07_resilience_bound",
        ),
        ExperimentInfo(
            id="E8",
            title="Time lower bound (Theorem 17)",
            claim="expected clock ticks unbounded; asynchronous rounds constant",
            expectation="ticks grow ~linearly with delay D, rounds flat",
            module="e08_time_lower_bound",
        ),
        ExperimentInfo(
            id="E9",
            title="Baseline safety comparison (Introduction)",
            claim="late messages give [S]/[DS]-style protocols wrong answers, never Protocol 2",
            expectation="nonzero wrong answers for 2PC/3PC under lateness; zero for Protocol 2",
            module="e09_baseline_safety",
        ),
        ExperimentInfo(
            id="E10",
            title="Ben-Or comparison (Section 3)",
            claim="shared coins lower Ben-Or's exponential expected time to constant",
            expectation="Ben-Or stages ~2^(n-1) under the balancer; Protocol 1 flat",
            module="e10_benor_comparison",
        ),
        ExperimentInfo(
            id="E11",
            title="Fault-tolerance threshold (Section 1)",
            claim="works for every t < n/2 — optimal by Theorem 14",
            expectation="termination cliff exactly at t = ceil(n/2) - 1 crashes",
            module="e11_fault_tolerance_sweep",
        ),
        ExperimentInfo(
            id="E12",
            title="Coin-mechanism ablation (related work)",
            claim=(
                "local coins are exponential; dealer [R], weak-shared "
                "[CMS], and coordinator-list coins are all fast but "
                "differ in trust and fault envelope"
            ),
            expectation=(
                "Ben-Or explodes under the balancer; all shared "
                "mechanisms flat; CMS-style max t is (n-1)//6 vs "
                "(n-1)//2 for the lists"
            ),
            module="e12_coin_mechanisms",
        ),
        ExperimentInfo(
            id="E13",
            title="Early-abort ablation (Protocol 2, line 7)",
            claim=(
                "a processor whose vote is abort can implement the abort "
                "unilaterally at line 7"
            ),
            expectation=(
                "identical decisions; the first abort decision lands "
                "several ticks earlier with the optimisation on"
            ),
            module="e13_early_abort",
        ),
        ExperimentInfo(
            id="E14",
            title="Message cost of commitment (Dwork-Skeen citation)",
            claim=(
                "nonblocking randomized commit pays O(n^2) messages where "
                "centralized 2PC/3PC pay O(n)"
            ),
            expectation=(
                "envelopes/n flat for 2PC/3PC, growing ~linearly in n "
                "for Protocol 2"
            ),
            module="e14_message_cost",
        ),
    )
}


def run_experiment(
    experiment_id: str,
    trials: int | None = None,
    quick: bool = False,
    workers: int | None = None,
) -> ResultTable:
    """Run one experiment by id.

    Each trial's metric extraction already feeds the telemetry registry
    (see :mod:`repro.analysis.metrics`); this wrapper adds the
    experiment-level counter and wall-clock histogram so registry
    snapshots and the rendered tables describe the same execution.
    ``workers`` fans the trial batches out over worker processes via
    :mod:`repro.engine`; the tables are byte-identical at every count.
    """
    info = EXPERIMENTS[experiment_id]
    _log.info(
        "running experiment %s (quick=%s, workers=%s)",
        experiment_id,
        quick,
        workers,
    )
    start = time.perf_counter()
    if trials is None:
        table = info.runner(quick=quick, workers=workers)
    else:
        table = info.runner(trials=trials, quick=quick, workers=workers)
    elapsed = time.perf_counter() - start
    _log.info("experiment %s finished in %.2fs", experiment_id, elapsed)
    if telemetry.enabled():
        telemetry.count(
            "experiment_runs_total",
            help="experiment executions, by id",
            id=experiment_id,
        )
        telemetry.observe(
            "experiment_seconds",
            elapsed,
            help="wall-clock seconds per experiment execution",
            id=experiment_id,
        )
    return table


def run_all(
    quick: bool = False,
    report: Callable[[str], None] | None = None,
    workers: int | None = None,
) -> dict[str, ResultTable]:
    """Run every experiment; optionally report progress."""
    tables: dict[str, ResultTable] = {}
    for experiment_id in EXPERIMENTS:
        if report is not None:
            report(f"running {experiment_id} ...")
        tables[experiment_id] = run_experiment(
            experiment_id, quick=quick, workers=workers
        )
    return tables
