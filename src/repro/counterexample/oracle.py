"""Cross-track differential oracle: simulator vs service, plan by plan.

The repo executes every FaultPlan on two independent stacks — the
deterministic cycle simulator and the crash-recovery commit service
co-hosted on a virtual clock (:mod:`repro.service.cluster`, where a
fail-stop crash is a kill with no restart).  They share *no* scheduling
code, so semantic disagreement between them is a first-class finding:
either one track mistranslates the plan, one track's hosting of the
protocol is wrong, or the safety monitor is inconsistent.

What counts as divergence is deliberately narrow.  The tracks schedule
messages differently, and Protocol 2's commit/abort decision is
legitimately schedule-dependent (a vote-phase timeout on one track but
not the other flips the agreement input — both outcomes are *safe*).
Measured over seeded campaigns, roughly one plan in ten decides
commit on one track and abort on the other; flagging that would drown
real signal in noise.  A **finding** is therefore only:

* ``safety-mismatch`` — the tracks violate *different sets of safety
  properties* (one track sees an agreement violation the other does
  not, etc.); on a correct protocol both sets are empty, so any
  violation anywhere is automatically also a mismatch or a shared bug;
* ``termination-mismatch`` — the plan guarantees termination
  (within budget, coordinator survives its fan-out) yet exactly one
  track terminates.

Benign schedule-dependent drift (decision differs, or termination
differs on plans with no termination guarantee) is counted separately
in the summary — visible, but not a finding.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Any

from repro.faults.campaign import (
    CampaignConfig,
    run_campaign,
)
from repro.faults.safety import SAFETY_PROPERTIES, TERMINATED

#: Schema tag of the differential report document.  v2: the second
#: track, and each finding's key for it, is ``service`` (v1 compared the
#: removed fail-stop ``runtime`` track).
DIFFERENTIAL_SCHEMA = "repro.fault-differential v2"

#: Schema tag of the cross-core differential report document.
CORE_DIFFERENTIAL_SCHEMA = "repro.core-differential v1"


def _safety_set(outcome: dict[str, Any]) -> list[str]:
    return sorted(
        {
            violation["property"]
            for violation in outcome["safety"]["violations"]
            if violation["property"] in SAFETY_PROPERTIES
        }
    )


def _decision_class(outcome: dict[str, Any]) -> str:
    bits = {bit for bit in outcome["decisions"] if bit is not None}
    if bits == {1}:
        return "commit"
    if bits == {0}:
        return "abort"
    if not bits:
        return "undecided"
    return "mixed"


def classify_trial(record: dict[str, Any]) -> dict[str, Any]:
    """Classify one two-track trial record into findings and drift.

    Returns ``{"findings": [...], "decision_drift": bool,
    "termination_drift": bool}``; the input must carry both tracks.
    """
    sim = record["tracks"]["sim"]
    service = record["tracks"]["service"]
    findings: list[dict[str, Any]] = []
    sim_safety = _safety_set(sim)
    service_safety = _safety_set(service)
    if sim_safety != service_safety:
        findings.append(
            {
                "kind": "safety-mismatch",
                "seed": record["seed"],
                "sim": sim_safety,
                "service": service_safety,
            }
        )
    sim_terminated = sim["outcome"] == TERMINATED
    service_terminated = service["outcome"] == TERMINATED
    termination_differs = sim_terminated != service_terminated
    if termination_differs and record["expect_termination"]:
        findings.append(
            {
                "kind": "termination-mismatch",
                "seed": record["seed"],
                "sim": sim["outcome"],
                "service": service["outcome"],
            }
        )
    return {
        "findings": findings,
        "decision_drift": _decision_class(sim) != _decision_class(service),
        "termination_drift": termination_differs
        and not record["expect_termination"],
    }


def run_differential(
    config: CampaignConfig, workers: int | None = None
) -> dict[str, Any]:
    """Sweep a campaign on both tracks and report semantic divergence.

    The campaign's ``tracks`` setting is overridden to run both tracks;
    everything else (plans, seeds, program variant) is honoured, so the
    oracle can be pointed at broken variants too.  The report embeds the
    violating plans, making every finding replayable.
    """
    config = dataclasses.replace(config, tracks=("sim", "service"))
    campaign = run_campaign(config, workers=workers)
    findings: list[dict[str, Any]] = []
    decision_drift = 0
    termination_drift = 0
    for record in campaign["trials"]:
        verdict = classify_trial(record)
        for finding in verdict["findings"]:
            finding["plan"] = record["plan"]
            findings.append(finding)
        decision_drift += verdict["decision_drift"]
        termination_drift += verdict["termination_drift"]
    by_kind: dict[str, int] = {}
    for finding in findings:
        by_kind[finding["kind"]] = by_kind.get(finding["kind"], 0) + 1
    return {
        "schema": DIFFERENTIAL_SCHEMA,
        "config": config.to_dict(),
        "summary": {
            "plans": config.plans,
            "findings": len(findings),
            "findings_by_kind": by_kind,
            "benign_decision_drift": decision_drift,
            "benign_termination_drift": termination_drift,
            "campaign_safety_violations": campaign["summary"][
                "safety_violations"
            ],
        },
        "findings": findings,
    }


def run_core_case(config: CampaignConfig, seed: int) -> dict[str, Any]:
    """Execute trial ``seed``'s sim-track case on both execution cores.

    The reference core runs the case on ``Simulation``; the fast core
    runs it the way a fast-core campaign does (on the fused sweep when
    :func:`repro.sim.fastcore.sweep_gate` admits it).  Two things read
    off each side are compared: the campaign record, and the
    :class:`~repro.analysis.metrics.RunMetrics` bundle
    (:func:`repro.analysis.metrics.trial_metrics` of each kernel's
    :class:`~repro.sim.trace.TrialRecord`).  This is the enforcement
    point of the fast core's equal-results contract.
    """
    from repro.faults.campaign import (
        case_from_config,
        sim_track_adversary,
        sim_track_record,
    )
    from repro.faults.variants import make_programs
    from repro.sim.coreselect import run_sim_trial

    case = case_from_config(config, seed)
    records: dict[str, Any] = {}
    metrics: dict[str, Any] = {}
    for core in ("reference", "fast"):
        trial = run_sim_trial(
            make_programs(case.program, case.n, case.t, case.votes, case.K),
            sim_track_adversary(case),
            case.K,
            case.t,
            case.seed,
            case.max_steps,
            core,
        )
        records[core] = sim_track_record(trial)
        metrics[core] = trial.metrics()
    records_match = records["fast"] == records["reference"]
    metrics_match = metrics["fast"] == metrics["reference"]
    record: dict[str, Any] = {
        "seed": seed,
        "match": records_match and metrics_match,
        "events": records["reference"]["events"],
    }
    if not record["match"]:
        record["plan"] = case.plan.to_dict()
        record["records_match"] = records_match
        record["metrics_match"] = metrics_match
        if not records_match:
            record["campaign_records"] = records
        if not metrics_match:
            record["metrics"] = {
                core: dataclasses.asdict(value)
                for core, value in metrics.items()
            }
    return record


def run_core_differential(
    config: CampaignConfig, workers: int | None = None
) -> dict[str, Any]:
    """Sweep a campaign's sim-track cases across both execution cores.

    Same plan/vote drawing as the campaign (so findings are replayable
    with the campaign tooling), but the comparison axis is the
    *execution core* rather than the track: every case must produce an
    equal campaign record and an equal ``RunMetrics`` bundle under
    ``reference`` and ``fast`` (see :func:`run_core_case`).  Any
    divergence is a finding — there is no benign drift here.
    """
    from repro.engine.executor import run_trials

    records = run_trials(
        partial(run_core_case, config),
        trials=config.plans,
        base_seed=config.base_seed,
        workers=workers,
    )
    mismatches = [record for record in records if not record["match"]]
    return {
        "schema": CORE_DIFFERENTIAL_SCHEMA,
        "config": config.to_dict(),
        "summary": {
            "plans": config.plans,
            "findings": len(mismatches),
            "events_compared": sum(record["events"] for record in records),
        },
        "findings": mismatches,
    }


def render_core_differential_summary(report: dict[str, Any]) -> str:
    """A short human-readable digest of a cross-core report."""
    summary = report["summary"]
    verdict = "BYTE-IDENTICAL" if summary["findings"] == 0 else "DIVERGED"
    return "\n".join(
        [
            f"core differential: {summary['plans']} plans on both cores",
            f"  events compared: {summary['events_compared']}",
            f"  diverging plans: {summary['findings']}",
            f"  verdict: {verdict}",
        ]
    )


def render_differential_summary(report: dict[str, Any]) -> str:
    """A short human-readable digest of a differential report."""
    summary = report["summary"]
    lines = [
        f"differential oracle: {summary['plans']} plans on both tracks",
        f"  findings: {summary['findings']}"
        + (
            f" ({', '.join(f'{k}={v}' for k, v in sorted(summary['findings_by_kind'].items()))})"
            if summary["findings_by_kind"]
            else ""
        ),
        f"  benign drift: {summary['benign_decision_drift']} decision, "
        f"{summary['benign_termination_drift']} termination "
        f"(schedule-dependent, not findings)",
    ]
    verdict = "CONSISTENT" if summary["findings"] == 0 else "DIVERGED"
    lines.append(f"  verdict: {verdict}")
    return "\n".join(lines)
