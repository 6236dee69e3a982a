"""Cross-track differential oracle: simulator vs runtime, plan by plan.

The repo executes every FaultPlan on two independent stacks — the
deterministic cycle simulator and the asyncio runtime on a virtual
clock.  They share *no* scheduling code, so semantic disagreement
between them is a first-class finding: either one compiler mistranslates
the plan, one track's protocol implementation is wrong, or the safety
monitor is inconsistent.

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
import json
from functools import partial
from typing import Any

from repro.faults.campaign import (
    CampaignConfig,
    run_campaign,
)
from repro.faults.safety import SAFETY_PROPERTIES
from repro.runtime.cluster import TERMINATED

#: Schema tag of the differential report document.
DIFFERENTIAL_SCHEMA = "repro.fault-differential v1"

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
    runtime = record["tracks"]["runtime"]
    findings: list[dict[str, Any]] = []
    sim_safety = _safety_set(sim)
    runtime_safety = _safety_set(runtime)
    if sim_safety != runtime_safety:
        findings.append(
            {
                "kind": "safety-mismatch",
                "seed": record["seed"],
                "sim": sim_safety,
                "runtime": runtime_safety,
            }
        )
    sim_terminated = sim["outcome"] == TERMINATED
    runtime_terminated = runtime["outcome"] == TERMINATED
    termination_differs = sim_terminated != runtime_terminated
    if termination_differs and record["expect_termination"]:
        findings.append(
            {
                "kind": "termination-mismatch",
                "seed": record["seed"],
                "sim": sim["outcome"],
                "runtime": runtime["outcome"],
            }
        )
    return {
        "findings": findings,
        "decision_drift": _decision_class(sim) != _decision_class(runtime),
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
    config = dataclasses.replace(config, tracks=("sim", "runtime"))
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

    The two runs are serialized through the run-trace schema
    (:func:`repro.telemetry.runio.run_to_records`) and compared
    byte-for-byte — events, envelopes, decisions, pattern histories,
    everything the trace format captures.  This is the enforcement
    point of the fast core's byte-identical-``Run`` contract.

    The case's campaign record is compared too: the one the fast core's
    sim track produces (on the fused sweep when eligible, which builds
    no ``Run``) must equal the one read off the reference run.
    """
    from repro.faults.campaign import (
        case_from_config,
        run_sim_track,
        sim_track_adversary,
        sim_track_record,
    )
    from repro.faults.variants import make_programs
    from repro.sim.coreselect import simulation_class
    from repro.telemetry.runio import run_to_records

    case = case_from_config(config, seed)
    serialized: dict[str, str] = {}
    outcomes: dict[str, Any] = {}
    campaign_records: dict[str, Any] = {}
    for core in ("reference", "fast"):
        simulation = simulation_class(core)(
            programs=make_programs(
                case.program, case.n, case.t, case.votes, case.K
            ),
            adversary=sim_track_adversary(case),
            K=case.K,
            t=case.t,
            seed=case.seed,
            max_steps=case.max_steps,
        )
        result = simulation.run()
        serialized[core] = json.dumps(
            run_to_records(result.run), sort_keys=True
        )
        outcomes[core] = {
            "terminated": result.terminated,
            "decisions": [
                result.run.decisions[pid] for pid in range(case.n)
            ],
            "events": result.run.event_count,
        }
        if core == "reference":
            campaign_records[core] = sim_track_record(
                result.terminated,
                outcomes[core]["decisions"],
                result.run.faulty(),
                result.run.event_count,
            )
    campaign_records["fast"] = run_sim_track(case, core="fast")
    runs_match = serialized["reference"] == serialized["fast"]
    records_match = campaign_records["fast"] == campaign_records["reference"]
    record: dict[str, Any] = {
        "seed": seed,
        "match": runs_match and records_match,
        "events": outcomes["reference"]["events"],
    }
    if not record["match"]:
        record["plan"] = case.plan.to_dict()
        record["reference"] = outcomes["reference"]
        record["fast"] = outcomes["fast"]
        record["runs_match"] = runs_match
        record["records_match"] = records_match
        if not records_match:
            record["campaign_records"] = campaign_records
    return record


def run_core_differential(
    config: CampaignConfig, workers: int | None = None
) -> dict[str, Any]:
    """Sweep a campaign's sim-track cases across both execution cores.

    Same plan/vote drawing as the campaign (so findings are replayable
    with the campaign tooling), but the comparison axis is the
    *execution core* rather than the track: every case must produce a
    byte-identical serialized ``Run`` under ``reference`` and ``fast``,
    and the fast core's campaign record (from the fused sweep) must
    equal the one read off the reference run.  Any divergence is a
    finding — there is no benign drift here.
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
