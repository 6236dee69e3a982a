"""Metric extraction from protocol outcomes.

Each metric corresponds to a quantity the paper reasons about:

* ``stages`` — agreement stages until the last nonfaulty decision
  (Lemma 8: expected < 4 with ``|coins| >= n``);
* ``rounds`` — asynchronous rounds until the last nonfaulty decision
  (Theorem 10: expected <= 14 for Protocol 2);
* ``ticks`` — largest clock reading at a decide step (Remark 1: <= 8K in
  failure-free on-time runs);
* safety flags — consistency, termination, validity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Mapping, Sequence

from repro.core.agreement import program_stats
from repro.core.api import ProtocolOutcome
from repro.errors import AnalysisError
from repro.sim.rounds import RoundAnalyzer
from repro.sim.trace import Run
from repro.telemetry import registry as telemetry
from repro.types import Decision, ProcessStatus


@dataclass(frozen=True)
class RunMetrics:
    """The standard metric bundle extracted from one run.

    Attributes:
        terminated: every nonfaulty program returned.
        consistent: at most one decision value in the run.
        decision: the unanimous decision bit, if any.
        rounds: asynchronous rounds to the last nonfaulty decision.
        ticks: max clock at a decide step.
        first_decision_ticks: min clock at a decide step (how early the
            first processor entered a decision state — the E13 metric).
        stages: max agreement stages started by a nonfaulty processor.
        decision_stage: max stage at which a nonfaulty processor decided.
        shared_coin_stages: max stages resolved with the shared coin list.
        private_coin_stages: max stages resolved with private flips.
        messages: total envelopes sent.
        events: total events in the run.
        crashes: number of crashed processors.
        on_time: whether the run had no late messages.
    """

    terminated: bool
    consistent: bool
    decision: int | None
    rounds: int | None
    ticks: int | None
    first_decision_ticks: int | None
    stages: int | None
    decision_stage: int | None
    shared_coin_stages: int | None
    private_coin_stages: int | None
    messages: int
    events: int
    crashes: int
    on_time: bool


#: The stage-telemetry fields of a bundle built without the programs.
_NO_STAGES = dict.fromkeys(
    ("stages", "decision_stage", "shared_coin_stages", "private_coin_stages")
)


def assemble_metrics(
    *,
    terminated: bool,
    decisions: Iterable[int | None],
    decision_clocks: Iterable[int | None],
    rounds: Callable[[], int | None],
    on_time: bool,
    messages: int,
    events: int,
    crashes: int,
    stages: Mapping[str, int | None] = _NO_STAGES,
) -> RunMetrics:
    """The one assembly of a :class:`RunMetrics` bundle from run facts.

    ``rounds`` computes the rounds to the last nonfaulty decision; it is
    called only for a terminated run, and an :class:`AnalysisError` from
    it reads as ``None``.  ``stages`` holds the four stage-telemetry
    fields (:func:`stage_statistics`), all ``None`` by default.  Both
    kernels' bundles come from here: :func:`metrics_from_run` feeds it a
    :class:`~repro.sim.trace.Run`, the fused sweep
    (:func:`repro.sim.fastcore.sweep_metrics`) its flat state.
    """
    decision_values = {d for d in decisions if d is not None}
    decided_clocks = [c for c in decision_clocks if c is not None]
    max_round: int | None = None
    if terminated:
        try:
            max_round = rounds()
        except AnalysisError:
            max_round = None
    return RunMetrics(
        terminated=terminated,
        consistent=len(decision_values) <= 1,
        decision=(
            next(iter(decision_values)) if len(decision_values) == 1 else None
        ),
        rounds=max_round,
        ticks=max(decided_clocks, default=None),
        first_decision_ticks=min(decided_clocks, default=None),
        messages=messages,
        events=events,
        crashes=crashes,
        on_time=on_time,
        **stages,
    )


def metrics_from_run(
    run: Run,
    analyzer: RoundAnalyzer | None = None,
    record: bool = True,
    programs: Iterable | None = None,
) -> RunMetrics:
    """Build the metric bundle from a recorded run.

    Without ``programs`` this is the trace-derivable subset: everything
    except the program stage telemetry (``stages``, ``decision_stage``,
    coin-source splits), which lives on the program objects and is
    therefore ``None``.  Because it needs nothing but the
    :class:`~repro.sim.trace.Run`, the same function applies to live runs
    and to traces re-imported through :mod:`repro.telemetry.runio` — the
    JSONL round-trip tests assert the two agree exactly.
    """
    metrics = assemble_metrics(
        terminated=all(
            run.statuses.get(pid) is ProcessStatus.RETURNED
            for pid in run.nonfaulty()
        ),
        decisions=run.decisions.values(),
        decision_clocks=run.decision_clocks.values(),
        rounds=lambda: (
            analyzer if analyzer is not None else RoundAnalyzer(run)
        ).max_decision_round(),
        on_time=run.is_on_time(),
        messages=run.messages_sent(),
        events=run.event_count,
        crashes=len(run.faulty()),
        stages=(
            _NO_STAGES
            if programs is None
            else stage_statistics(programs, run.nonfaulty())
        ),
    )
    if record:
        _record_run_metrics(metrics)
    return metrics


def _record_run_metrics(metrics: RunMetrics) -> None:
    """Mirror a metric bundle into the telemetry registry.

    Wired into both extraction paths so experiment tables (built from
    :class:`RunMetrics`) and registry snapshots agree by construction.
    """
    if not telemetry.enabled():
        return
    telemetry.count(
        "analysis_runs_total",
        help="metric bundles extracted, by outcome flags",
        terminated=metrics.terminated,
        consistent=metrics.consistent,
        on_time=metrics.on_time,
    )
    if metrics.rounds is not None:
        telemetry.observe(
            "analysis_decision_rounds",
            metrics.rounds,
            help="rounds to the last nonfaulty decision (Theorem 10)",
            buckets=telemetry.COUNT_BUCKETS,
        )
    if metrics.ticks is not None:
        telemetry.observe(
            "analysis_decision_ticks",
            metrics.ticks,
            help="clock ticks to the last decision (Remark 1)",
            buckets=(8, 16, 32, 64, 128, 256, 512, 1024),
        )
    if metrics.stages is not None:
        telemetry.observe(
            "analysis_stages",
            metrics.stages,
            help="agreement stages started (Lemma 8)",
            buckets=telemetry.COUNT_BUCKETS,
        )
    telemetry.observe(
        "analysis_messages",
        metrics.messages,
        help="envelopes sent per run",
        buckets=(16, 64, 256, 1024, 4096, 16384),
    )


def stage_statistics(
    programs: Iterable, nonfaulty: Collection[int]
) -> dict[str, int | None]:
    """The four stage-telemetry fields of :class:`RunMetrics`.

    Read off the program objects of the nonfaulty processors (the trace
    does not carry them), so both execution cores call this with the
    programs they ran.
    """
    stage_values = []
    decision_stage_values = []
    shared_values = []
    private_values = []
    for _stats, agreement in program_stats(
        program for program in programs if program.pid in nonfaulty
    ):
        if agreement is None:
            continue
        stage_count = getattr(agreement, "stages_started", None)
        if stage_count is not None:
            stage_values.append(stage_count)
        decided_at = getattr(agreement, "decision_stage", None)
        if decided_at is not None:
            decision_stage_values.append(decided_at)
        shared_values.append(getattr(agreement, "shared_coin_stages", 0))
        private_values.append(getattr(agreement, "private_coin_stages", 0))
    return {
        "stages": max(stage_values, default=None),
        "decision_stage": max(decision_stage_values, default=None),
        "shared_coin_stages": max(shared_values, default=None),
        "private_coin_stages": max(private_values, default=None),
    }


def extract_metrics(
    outcome: ProtocolOutcome,
    programs: list | None = None,
) -> RunMetrics:
    """Build the metric bundle for one outcome.

    Args:
        outcome: the protocol outcome.
        programs: the program objects (for stage telemetry).  When omitted,
            stage metrics are ``None``.
    """
    return metrics_from_run(
        outcome.run,
        analyzer=outcome.rounds if outcome.terminated else None,
        programs=programs,
    )


def commit_validity_holds(
    initial_votes: Sequence[int],
    decisions: Mapping[int, int | None] | Sequence[int | None],
    nonfaulty: Collection[int],
    failure_free: bool,
    on_time: bool,
) -> bool:
    """The paper's commit validity condition, on bare run facts.

    If the run is deciding, all initial votes are 1, and the run is
    failure-free and on time, the nonfaulty processors must decide 1.
    Vacuously true otherwise.
    """
    preconditions = (
        failure_free
        and on_time
        and all(v == 1 for v in initial_votes)
        and all(decisions[pid] is not None for pid in nonfaulty)
    )
    if not preconditions:
        return True
    return all(decisions[pid] == int(Decision.COMMIT) for pid in nonfaulty)


def abort_validity_holds(
    initial_votes: Sequence[int],
    decisions: Mapping[int, int | None] | Sequence[int | None],
    nonfaulty: Collection[int],
) -> bool:
    """The paper's abort validity condition, on bare run facts.

    If the run is deciding and any initial vote is 0, the nonfaulty
    processors must decide 0 — no matter the timing behaviour.
    """
    if all(v == 1 for v in initial_votes) or not all(
        decisions[pid] is not None for pid in nonfaulty
    ):
        return True
    return all(decisions[pid] == int(Decision.ABORT) for pid in nonfaulty)


def commit_validity_satisfied(
    outcome: ProtocolOutcome, initial_votes: list[int]
) -> bool:
    """:func:`commit_validity_holds` on a recorded run."""
    run = outcome.run
    failure_free = not run.faulty()
    return commit_validity_holds(
        initial_votes,
        run.decisions,
        run.nonfaulty(),
        failure_free,
        failure_free and run.is_on_time(),
    )


def abort_validity_satisfied(
    outcome: ProtocolOutcome, initial_votes: list[int]
) -> bool:
    """:func:`abort_validity_holds` on a recorded run."""
    run = outcome.run
    return abort_validity_holds(initial_votes, run.decisions, run.nonfaulty())
