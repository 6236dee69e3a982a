"""Replay artifacts: a violating trial pinned down to a JSONL file.

An artifact captures one :class:`~repro.faults.campaign.TrialCase`
(the fully-specified trial — plan, votes, seed, budgets, program
variant) together with the per-track results observed when the
violation was found.  Because both campaign and replay execute through
:func:`~repro.faults.campaign.execute_trial_case`, and both tracks are
deterministic in the case (the simulator by construction, the service
via the virtual clock and per-envelope RNG streams), re-running the
case must reproduce the recorded results *byte for byte* —
:func:`verify_replay` checks exactly that and reports any drift.

Wire format (``repro.counterexample`` v1), one JSON object per line
through :mod:`repro.telemetry.runio`:

* ``{"record": "header", "schema": "repro.counterexample", "version": 1}``
* ``{"record": "case", "case": {...TrialCase.to_dict()...}}``
* one ``{"record": "expected", "track": ..., "result": {...}}`` per track
* ``{"record": "final", "properties": [...], "within_budget": ...,
  "expect_termination": ...}``
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Any

from repro.engine.executor import run_trials
from repro.errors import AnalysisError
from repro.faults.campaign import (
    CampaignConfig,
    TrialCase,
    execute_trial_case,
    run_campaign_trial,
)
from repro.faults.plan import FaultPlan
from repro.faults.safety import SAFETY_PROPERTIES
from repro.telemetry.runio import (
    check_header,
    read_jsonl_records,
    write_jsonl_records,
)

#: Schema identifier carried in every artifact header.
ARTIFACT_SCHEMA = "repro.counterexample"

#: Format version; bump on breaking changes.
ARTIFACT_VERSION = 1

def violated_properties(tracks: dict[str, Any]) -> list[str]:
    """Sorted safety properties violated on any track (liveness excluded)."""
    properties = {
        violation["property"]
        for outcome in tracks.values()
        for violation in outcome["safety"]["violations"]
        if violation["property"] in SAFETY_PROPERTIES
    }
    return sorted(properties)


def artifact_records(
    case: TrialCase, result: dict[str, Any]
) -> list[dict[str, Any]]:
    """Serialize one case plus its observed results to artifact records."""
    records: list[dict[str, Any]] = [
        {
            "record": "header",
            "schema": ARTIFACT_SCHEMA,
            "version": ARTIFACT_VERSION,
        },
        {"record": "case", "case": case.to_dict()},
    ]
    for track in case.tracks:
        records.append(
            {
                "record": "expected",
                "track": track,
                "result": result["tracks"][track],
            }
        )
    records.append(
        {
            "record": "final",
            "properties": violated_properties(result["tracks"]),
            "within_budget": result["within_budget"],
            "expect_termination": result["expect_termination"],
        }
    )
    return records


def write_artifact(
    case: TrialCase, result: dict[str, Any], path: str | Path
) -> Path:
    """Write one replay artifact; returns the path written."""
    return write_jsonl_records(artifact_records(case, result), path)


def read_artifact(
    path: str | Path,
) -> tuple[TrialCase, dict[str, dict[str, Any]]]:
    """Read an artifact back as ``(case, expected results per track)``.

    Raises:
        AnalysisError: on missing/mismatched header, missing case
            record, or tracks recorded that the case does not declare.
    """
    records = read_jsonl_records(path)
    check_header(records, ARTIFACT_SCHEMA, ARTIFACT_VERSION)
    case: TrialCase | None = None
    expected: dict[str, dict[str, Any]] = {}
    for record in records[1:]:
        kind = record.get("record")
        if kind == "case":
            case = TrialCase.from_dict(record["case"])
        elif kind == "expected":
            expected[record["track"]] = record["result"]
        elif kind == "final":
            pass
        else:
            raise AnalysisError(f"unknown artifact record type {kind!r}")
    if case is None:
        raise AnalysisError(f"artifact {path} has no case record")
    extra = set(expected) - set(case.tracks)
    if extra:
        raise AnalysisError(
            f"artifact {path} records tracks {sorted(extra)} the case "
            f"does not declare"
        )
    return case, expected


def verify_replay(path: str | Path) -> dict[str, Any]:
    """Re-execute an artifact's case and diff against its recorded results.

    Returns a report dict: ``match`` (all tracks byte-identical),
    per-track ``tracks[track]["match"]``, and for any drifting track the
    sorted keys whose values differ — the signal that determinism broke
    somewhere between recording and replay.
    """
    case, expected = read_artifact(path)
    result = execute_trial_case(case)
    tracks: dict[str, Any] = {}
    for track in case.tracks:
        want = expected.get(track)
        got = result["tracks"][track]
        if want is None:
            tracks[track] = {"match": False, "missing_expected": True}
            continue
        diverging = sorted(
            key
            for key in set(want) | set(got)
            if want.get(key) != got.get(key)
        )
        tracks[track] = {"match": not diverging, "diverging_keys": diverging}
    return {
        "artifact": str(path),
        "match": all(data["match"] for data in tracks.values()),
        "properties": violated_properties(result["tracks"]),
        "case": case.to_dict(),
        "tracks": tracks,
    }


def artifacts_from_report(
    report: dict[str, Any], out_dir: str | Path
) -> list[Path]:
    """Write one replay artifact per safety-violating trial of a campaign.

    Rebuilds each violating trial's :class:`TrialCase` from the report's
    embedded config and trial record, so artifacts can be cut from any
    stored campaign report without re-running the campaign.
    """
    config = report["config"]
    out = Path(out_dir)
    written: list[Path] = []
    for trial in report["trials"]:
        properties = violated_properties(trial["tracks"])
        if not properties:
            continue
        case = _case_from_report_trial(config, trial)
        result = {
            "within_budget": trial["within_budget"],
            "expect_termination": trial["expect_termination"],
            "tracks": trial["tracks"],
        }
        path = out / f"counterexample-seed{trial['seed']}.jsonl"
        written.append(write_artifact(case, result, path))
    return written


def _case_from_report_trial(
    config: dict[str, Any], trial: dict[str, Any]
) -> TrialCase:
    return TrialCase(
        n=config["n"],
        t=config["t"],
        K=config["K"],
        votes=tuple(trial["votes"]),
        plan=FaultPlan.from_dict(trial["plan"]),
        seed=trial["seed"],
        tracks=tuple(config["tracks"]),
        max_steps=config["max_steps"],
        deadline=config["deadline"],
        tick_interval=config["tick_interval"],
        program=config.get("program", "commit"),
    )


def first_violating_case(
    config: CampaignConfig, workers: int | None = None
) -> tuple[TrialCase, dict[str, Any]] | None:
    """Scan a campaign's seed range for its earliest safety violation.

    This is the trial-count/seed half of shrinking: a whole campaign
    collapses to the single lowest-seed ``(case, result)`` pair that
    violates safety, which the plan shrinker then minimizes further.
    Returns ``None`` when every trial is safe.
    """
    records = run_trials(
        partial(run_campaign_trial, config),
        trials=config.plans,
        base_seed=config.base_seed,
        workers=workers,
    )
    for record in records:
        if violated_properties(record["tracks"]):
            case = _case_from_report_trial(config.to_dict(), record)
            result = {
                "within_budget": record["within_budget"],
                "expect_termination": record["expect_termination"],
                "tracks": record["tracks"],
            }
            return case, result
    return None
