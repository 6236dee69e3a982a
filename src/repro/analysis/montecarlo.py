"""Monte-Carlo trial running.

Randomized protocols are analysed in expectation, so every experiment is
a batch of independent trials: trial ``i`` derives its tape seed and its
adversary seed from ``base_seed + i``, making whole batches replayable
from one integer.  :class:`TrialBatch` aggregates the per-run metric
bundles into the summaries the experiment tables print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

from repro.adversary.base import Adversary
from repro.analysis.metrics import (
    RunMetrics,
    abort_validity_holds,
    commit_validity_holds,
    extract_metrics,
)
from repro.analysis.stats import Summary, proportion, summarize
from repro.core.api import ProtocolOutcome
from repro.core.commit import CommitProgram
from repro.core.halting import HaltingMode
from repro.engine.executor import run_trials
from repro.errors import InsufficientDataError
from repro.models import apply_active_model
from repro.sim.coreselect import resolve_sim_core, simulation_class


@dataclass
class TrialBatch:
    """Metrics of a batch of independent trials of one configuration."""

    metrics: list[RunMetrics] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.metrics)

    def __iter__(self) -> Iterator[RunMetrics]:
        return iter(self.metrics)

    def add(self, metric: RunMetrics) -> None:
        self.metrics.append(metric)

    def summary(self, name: str, confidence: float = 0.95) -> Summary:
        """Summarise one numeric metric field over trials where it exists.

        Raises:
            InsufficientDataError: if no trial produced the metric (e.g.
                asking for decision rounds in a batch that never decided).
        """
        values = [
            getattr(m, name) for m in self.metrics if getattr(m, name) is not None
        ]
        if not values:
            raise InsufficientDataError(
                f"metric {name!r} absent from all {len(self.metrics)} trials"
            )
        return summarize(values, confidence=confidence)

    def rate(self, predicate: Callable[[RunMetrics], bool]) -> float:
        """Fraction of trials satisfying ``predicate``."""
        return proportion(
            sum(1 for m in self.metrics if predicate(m)), len(self.metrics)
        )

    @property
    def termination_rate(self) -> float:
        return self.rate(lambda m: m.terminated)

    @property
    def consistency_rate(self) -> float:
        return self.rate(lambda m: m.consistent)

    @property
    def commit_rate(self) -> float:
        return self.rate(lambda m: m.decision == 1)


#: A factory building a fresh adversary for trial ``seed``.
AdversaryFactory = Callable[[int], Adversary]


@dataclass(frozen=True)
class CommitTrialConfig:
    """Configuration of one commit Monte-Carlo batch.

    Attributes mirror :func:`repro.core.api.run_commit`; ``votes`` may be
    a fixed list or a per-seed factory for randomized vote patterns.
    """

    votes: Sequence[int] | Callable[[int], Sequence[int]]
    adversary_factory: AdversaryFactory
    t: int | None = None
    K: int = 4
    coin_count: int | None = None
    halting: HaltingMode = HaltingMode.DECIDE_BROADCAST
    max_steps: int = 100_000
    allow_sub_resilience: bool = False

    def votes_for(self, seed: int) -> list[int]:
        if callable(self.votes):
            return [int(v) for v in self.votes(seed)]
        return [int(v) for v in self.votes]


def run_commit_trial(
    config: CommitTrialConfig, seed: int, core: str | None = None
) -> RunMetrics:
    """Run one commit trial and extract its metrics.

    Executes on the resolved simulation core (``core`` / ``--sim-core`` /
    ``REPRO_SIM_CORE``).  On the fast core a trial that passes
    :func:`repro.sim.fastcore.sweep_gate` runs on the fused sweep
    (:func:`repro.sim.fastcore.sweep_trial`); otherwise, and on
    the reference core always, the trial runs on
    ``simulation_class(core)`` and the metrics are read off its trace.
    Either way the metrics are equal.  Batches pickle ``(config, seed)``
    for the engine's worker pool, which installs the parent's core.
    """
    core = resolve_sim_core(core)
    votes = config.votes_for(seed)
    n = len(votes)
    t = config.t if config.t is not None else (n - 1) // 2
    programs = [
        CommitProgram(
            pid=pid,
            n=n,
            t=t,
            initial_vote=vote,
            K=config.K,
            coin_count=config.coin_count,
            halting=config.halting,
            allow_sub_resilience=config.allow_sub_resilience,
        )
        for pid, vote in enumerate(votes)
    ]
    adversary = apply_active_model(
        config.adversary_factory(seed), K=config.K, seed=seed
    )
    swept = None
    if core == "fast":
        from repro.sim.fastcore import sweep_gate, sweep_trial

        if sweep_gate(adversary):
            swept = sweep_trial(
                programs, adversary, config.K, t, seed, config.max_steps
            )
    if swept is not None:
        metrics, decisions, nonfaulty = swept
    else:
        simulation = simulation_class(core)(
            programs=programs,
            adversary=adversary,
            K=config.K,
            t=t,
            seed=seed,
            max_steps=config.max_steps,
        )
        attach = getattr(adversary, "attach", None)
        if attach is not None:
            attach(simulation)
        outcome = ProtocolOutcome(result=simulation.run())
        metrics = extract_metrics(outcome, programs=programs)
        decisions, nonfaulty = outcome.run.decisions, outcome.run.nonfaulty()
    if not abort_validity_holds(votes, decisions, nonfaulty):
        raise AssertionError(
            f"abort validity violated in commit trial seed={seed}"
        )
    if not commit_validity_holds(
        votes, decisions, nonfaulty, metrics.crashes == 0, metrics.on_time
    ):
        raise AssertionError(
            f"commit validity violated in commit trial seed={seed}"
        )
    return metrics


def run_commit_batch(
    config: CommitTrialConfig,
    trials: int,
    base_seed: int = 0,
    workers: int | None = None,
) -> TrialBatch:
    """Run ``trials`` independent commit trials.

    Routed through the :mod:`repro.engine` executor: ``workers > 1`` fans
    the trials out over worker processes when the configuration pickles
    (use :class:`~repro.engine.spec.SeededFactory` and plain vote lists),
    and falls back to the in-process loop otherwise.  Results are in seed
    order either way.
    """
    return run_custom_batch(
        partial(run_commit_trial, config),
        trials=trials,
        base_seed=base_seed,
        workers=workers,
    )


def run_custom_batch(
    trial: Callable[[int], RunMetrics],
    trials: int,
    base_seed: int = 0,
    workers: int | None = None,
) -> TrialBatch:
    """Run an arbitrary per-seed trial function as a batch."""
    if trials <= 0:
        raise InsufficientDataError(f"need at least one trial, got {trials}")
    batch = TrialBatch()
    for metrics in run_trials(
        trial, trials=trials, base_seed=base_seed, workers=workers
    ):
        batch.add(metrics)
    return batch
