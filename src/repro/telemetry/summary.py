"""Per-phase counters and machine-readable run documents.

Bridges a finished trial's flat record
(:class:`~repro.sim.trace.TrialRecord`) and the metrics registry:
:func:`run_counters` reads the per-phase counter bundle the paper's
claims are stated over (messages by payload kind, stage transitions,
round boundaries, late messages, coin-source usage) off a recorded
run's ``trial_record()``;
:func:`record_run` replays those counters into a registry (used by
``repro stats`` on archived traces); :func:`record_trial` counts one
finished trial into the protocol and kernel families (every live
kernel and the service call it); and the ``*_document`` builders
assemble the schema-versioned JSON the CLI emits with ``--json``.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import asdict
from typing import Any, Callable, Iterable, Sequence

from repro.core.agreement import AgreementStats, program_stats
from repro.core.commit import CommitStats
from repro.errors import AnalysisError
from repro.sim.rounds import RoundAnalyzer
from repro.sim.trace import Run, TrialRecord
from repro.telemetry.registry import COUNT_BUCKETS, MetricsRegistry
from repro.telemetry.runio import TRACE_SCHEMA, TRACE_VERSION, run_to_records

#: Schema identifier of the ``run-commit --json`` document.
RUN_DOCUMENT_SCHEMA = "repro.run-commit"
RUN_DOCUMENT_VERSION = 1

#: Schema identifier of the ``experiment --json`` document.
EXPERIMENT_DOCUMENT_SCHEMA = "repro.experiment"
EXPERIMENT_DOCUMENT_VERSION = 1


def _agreement_counters(programs: Sequence[Any] | None) -> dict[str, Any]:
    """Stage/coin counters from program stats (None when unavailable)."""
    if not programs:
        return {}
    stages: list[int] = []
    decision_stages: list[int] = []
    shared = 0
    private = 0
    for _stats, agreement in program_stats(programs):
        if agreement is None:
            continue
        started = getattr(agreement, "stages_started", None)
        if started is not None:
            stages.append(started)
        decided_at = getattr(agreement, "decision_stage", None)
        if decided_at is not None:
            decision_stages.append(decided_at)
        shared += getattr(agreement, "shared_coin_stages", 0)
        private += getattr(agreement, "private_coin_stages", 0)
    if not stages and not decision_stages and not shared and not private:
        return {}
    return {
        "stages": max(stages) if stages else None,
        "decision_stage": max(decision_stages) if decision_stages else None,
        "coin_usage": {"shared": shared, "private": private},
    }


def payload_kinds(envelopes: Iterable[Any]) -> dict[str, int]:
    """Payload tallies by payload class name, sorted by kind.

    The unit is the protocol message (payload), not the envelope: one
    envelope packs every payload one step addressed to one recipient.
    """
    return dict(
        sorted(
            TallyCounter(
                type(payload).__name__
                for env in envelopes
                for payload in env.payloads
            ).items()
        )
    )


def record_trial(
    registry: MetricsRegistry,
    programs: Iterable[Any],
    trial: TrialRecord | None = None,
    seconds: float | None = None,
) -> None:
    """Count one finished trial into the protocol and kernel families.

    The ``commit_*`` and ``agreement_*`` families come from each
    program's ``stats`` (a :class:`~repro.core.commit.CommitStats`, or
    an :class:`~repro.core.agreement.AgreementStats` directly).  With a
    kernel's ``trial`` record the ``sim_*`` families come from it: the
    outcome, the event count, the crashes, and every envelope sent (its
    ``payloads``, and its ``receive_event`` once delivered); ``seconds``
    is the trial's wall-clock time.  Both kernels call this once per
    trial and the service once per transaction instance, so a count is a function of
    the finished trial, never of a replay.  A family is created only
    when it gets a sample.
    """

    def count(name: str, help: str, amount: float = 1, **labels: Any) -> None:
        if amount:
            registry.counter(name, help).inc(amount, **labels)

    for stats, agreement in program_stats(programs):
        if isinstance(stats, CommitStats):
            _record_commit_stats(stats, count)
        if not isinstance(agreement, AgreementStats):
            continue
        count(
            "agreement_stage_transitions_total",
            "stage entries across all processors",
            agreement.stages_started,
        )
        coins = "stage coins consumed, by source"
        count(
            "agreement_coin_flips_total",
            coins,
            agreement.shared_coin_stages,
            source="shared",
        )
        count(
            "agreement_coin_flips_total",
            coins,
            agreement.private_coin_stages,
            source="private",
        )
        if agreement.adopted_from_broadcast:
            via = "adoption"
        elif agreement.decided_value is not None:
            via = "quorum"
            registry.histogram(
                "agreement_decision_stage",
                "stage at which processors decide",
                buckets=COUNT_BUCKETS,
            ).observe(agreement.decision_stage)
        else:
            continue
        count(
            "agreement_decisions_total",
            "agreement decisions, by how they were reached",
            via=via,
        )

    if trial is None:
        return
    if seconds is not None:
        registry.histogram(
            "sim_run_seconds", "wall-clock seconds per simulation run"
        ).observe(seconds)
    count(
        "sim_runs_total",
        "completed simulations, by outcome",
        outcome="terminated" if trial.terminated else "horizon",
    )
    events = trial.events
    envelopes = trial.envelopes
    crashes = len(trial.crashes)
    kinds = "scheduler events applied, by kind"
    count("sim_events_total", kinds, events - crashes, kind="step")
    count("sim_events_total", kinds, crashes, kind="crash")
    count("sim_crashes_total", "fail-stop crashes applied", crashes)
    count(
        "sim_envelopes_sent_total", "envelopes handed to buffers", len(envelopes)
    )
    for kind, amount in payload_kinds(envelopes).items():
        count(
            "sim_payloads_sent_total",
            "payloads sent, by payload kind",
            amount,
            kind=kind,
        )
    delivered = payload_kinds(
        env for env in envelopes if env.receive_event is not None
    )
    for kind, amount in delivered.items():
        count(
            "sim_payloads_delivered_total",
            "payloads delivered, by payload kind",
            amount,
            kind=kind,
        )


def _record_commit_stats(stats: CommitStats, count: Callable[..., None]) -> None:
    """The ``commit_*`` counts of one Protocol 2 execution."""
    timeouts = "2K-tick waits that expired, by phase"
    if stats.go_timed_out:
        count("commit_timeouts_total", timeouts, phase="go")
    if stats.vote_timed_out:
        count("commit_timeouts_total", timeouts, phase="vote")
    if stats.vote_broadcast is not None:
        count(
            "commit_votes_total",
            "votes broadcast at line 7, by value",
            vote=stats.vote_broadcast,
        )
    if stats.early_abort_decided:
        count("commit_early_aborts_total", "unilateral aborts taken at line 7")
    if stats.agreement_input is not None:
        count(
            "commit_agreement_inputs_total",
            "values fed to Protocol 1 at line 12",
            value=stats.agreement_input,
        )
    if stats.decision is not None:
        count(
            "commit_decisions_total",
            "final transaction decisions, by value",
            decision=stats.decision.name.lower(),
        )


def run_counters(
    run: Run, programs: Sequence[Any] | None = None
) -> dict[str, Any]:
    """The per-phase counter bundle for one completed run.

    Everything here is read off the run's flat record
    (``run.trial_record()``), plus program stats when supplied, so the
    same numbers are available for live runs and for archived traces
    re-imported through :mod:`repro.telemetry.runio`.
    """
    record = run.trial_record()
    crashes = len(record.crashes)
    by_kind = {"crash": crashes, "step": record.events - crashes}
    envelopes = record.envelopes
    delivered = [env for env in envelopes if env.receive_event is not None]
    try:
        rounds = RoundAnalyzer(record).decision_rounds()
    except AnalysisError:
        rounds = None
    counters: dict[str, Any] = {
        "events": {
            "total": record.events,
            "by_kind": {kind: n for kind, n in by_kind.items() if n},
        },
        "messages": {
            "envelopes_sent": len(envelopes),
            "envelopes_delivered": len(delivered),
            "sent_by_kind": payload_kinds(envelopes),
            "delivered_by_kind": payload_kinds(delivered),
            "late": len(run.late_messages()),
        },
        "rounds": {
            "decision_rounds": (
                {str(pid): r for pid, r in sorted(rounds.items())}
                if rounds is not None
                else None
            ),
            "max_decision_round": (
                max(
                    (r for r in rounds.values() if r is not None),
                    default=None,
                )
                if rounds is not None
                else None
            ),
        },
        "crashes": crashes,
    }
    agreement = _agreement_counters(programs)
    if agreement:
        counters["agreement"] = agreement
    return counters


def record_run(
    run: Run,
    registry: MetricsRegistry,
    programs: Sequence[Any] | None = None,
) -> None:
    """Replay a completed run's counters into ``registry``.

    Used by ``repro stats`` on imported traces and by tests; a live run
    counts its ``sim_*`` families once, at its end, through
    :func:`record_trial`.
    """
    if not registry.enabled:
        return
    counters = run_counters(run, programs=programs)
    events = registry.counter("run_events_total", "trace events by kind")
    for kind, count in counters["events"]["by_kind"].items():
        events.inc(count, kind=kind)
    sent = registry.counter(
        "run_messages_sent_total", "payloads sent, by payload kind"
    )
    for kind, count in counters["messages"]["sent_by_kind"].items():
        sent.inc(count, kind=kind)
    delivered = registry.counter(
        "run_messages_delivered_total", "payloads delivered, by payload kind"
    )
    for kind, count in counters["messages"]["delivered_by_kind"].items():
        delivered.inc(count, kind=kind)
    registry.counter("run_late_messages_total", "late envelopes").inc(
        counters["messages"]["late"]
    )
    registry.counter("run_crashes_total", "crashed processors").inc(
        counters["crashes"]
    )
    registry.counter("runs_recorded_total", "runs recorded").inc()
    max_round = counters["rounds"]["max_decision_round"]
    if max_round is not None:
        registry.histogram(
            "run_decision_rounds",
            "rounds to the last decision",
            buckets=COUNT_BUCKETS,
        ).observe(max_round)
    ticks = run.max_decision_clock()
    if ticks is not None:
        registry.histogram(
            "run_decision_ticks",
            "clock ticks to the last decision",
            buckets=(8, 16, 32, 64, 128, 256, 512, 1024),
        ).observe(ticks)


def run_commit_document(
    run: Run,
    params: dict[str, Any],
    programs: Sequence[Any] | None = None,
    metrics: Any | None = None,
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """The schema-versioned JSON document for ``run-commit --json``.

    The embedded ``trace`` section is the full JSONL record list, so the
    document round-trips through :func:`repro.telemetry.runio.run_from_records`
    with identical :class:`~repro.analysis.metrics.RunMetrics`.
    """
    from repro.analysis.metrics import metrics_from_run

    if metrics is None:
        metrics = metrics_from_run(run)
    document: dict[str, Any] = {
        "schema": RUN_DOCUMENT_SCHEMA,
        "version": RUN_DOCUMENT_VERSION,
        "params": params,
        "metrics": asdict(metrics),
        "counters": run_counters(run, programs=programs),
        "trace": {
            "schema": TRACE_SCHEMA,
            "version": TRACE_VERSION,
            "records": run_to_records(run),
        },
    }
    if registry is not None:
        document["telemetry"] = registry.snapshot()
    return document


def experiment_document(
    experiment_id: str,
    table: Any,
    seconds: float,
    registry: MetricsRegistry | None = None,
) -> dict[str, Any]:
    """The schema-versioned JSON document for ``experiment --json``."""
    document: dict[str, Any] = {
        "schema": EXPERIMENT_DOCUMENT_SCHEMA,
        "version": EXPERIMENT_DOCUMENT_VERSION,
        "id": experiment_id,
        "table": table.to_dict(),
        "seconds": seconds,
    }
    if registry is not None:
        document["telemetry"] = registry.snapshot()
    return document
