"""Tests for the cross-track differential oracle."""

from __future__ import annotations

import json

from repro.counterexample.oracle import (
    DIFFERENTIAL_SCHEMA,
    classify_trial,
    render_differential_summary,
    run_differential,
)
from repro.faults.campaign import CampaignConfig


def _trial(
    sim_violations=(),
    service_violations=(),
    sim_outcome="terminated",
    service_outcome="terminated",
    sim_decisions=(1, 1, 1),
    service_decisions=(1, 1, 1),
    expect_termination=True,
):
    def track(violations, outcome, decisions):
        return {
            "outcome": outcome,
            "decisions": list(decisions),
            "crashed": [],
            "safety": {
                "violations": [
                    {"property": prop, "detail": "x"} for prop in violations
                ]
            },
        }

    return {
        "seed": 7,
        "expect_termination": expect_termination,
        "tracks": {
            "sim": track(sim_violations, sim_outcome, sim_decisions),
            "service": track(
                service_violations, service_outcome, service_decisions
            ),
        },
    }


class TestClassifyTrial:
    def test_agreeing_tracks_produce_nothing(self):
        verdict = classify_trial(_trial())
        assert verdict["findings"] == []
        assert not verdict["decision_drift"]
        assert not verdict["termination_drift"]

    def test_mismatched_safety_sets_are_a_finding(self):
        verdict = classify_trial(_trial(sim_violations=("agreement",)))
        kinds = [f["kind"] for f in verdict["findings"]]
        assert kinds == ["safety-mismatch"]
        assert verdict["findings"][0]["sim"] == ["agreement"]
        assert verdict["findings"][0]["service"] == []

    def test_shared_safety_violation_is_not_a_mismatch(self):
        # Both tracks catching the same bug is detector agreement.
        verdict = classify_trial(
            _trial(
                sim_violations=("agreement",),
                service_violations=("agreement",),
            )
        )
        assert verdict["findings"] == []

    def test_liveness_violations_do_not_enter_the_safety_set(self):
        verdict = classify_trial(
            _trial(sim_violations=("nonblocking",))
        )
        assert verdict["findings"] == []

    def test_guaranteed_termination_disagreement_is_a_finding(self):
        verdict = classify_trial(
            _trial(service_outcome="nonterminated", expect_termination=True)
        )
        kinds = [f["kind"] for f in verdict["findings"]]
        assert kinds == ["termination-mismatch"]

    def test_unguaranteed_termination_disagreement_is_benign(self):
        verdict = classify_trial(
            _trial(service_outcome="nonterminated", expect_termination=False)
        )
        assert verdict["findings"] == []
        assert verdict["termination_drift"]

    def test_decision_drift_is_benign_not_a_finding(self):
        # Protocol 2's decision is schedule-dependent: commit on one
        # track, abort on the other is legal as long as each track is
        # internally safe.
        verdict = classify_trial(
            _trial(sim_decisions=(1, 1, 1), service_decisions=(0, 0, 0))
        )
        assert verdict["findings"] == []
        assert verdict["decision_drift"]


class TestRunDifferential:
    def test_correct_protocol_has_zero_findings(self):
        report = run_differential(
            CampaignConfig(n=4, t=1, plans=12, base_seed=0)
        )
        assert report["schema"] == DIFFERENTIAL_SCHEMA
        assert report["summary"]["findings"] == 0
        assert report["summary"]["plans"] == 12
        assert json.loads(json.dumps(report)) == report

    def test_single_track_config_is_forced_to_both(self):
        report = run_differential(
            CampaignConfig(n=4, t=1, plans=2, tracks=("sim",))
        )
        assert set(report["config"]["tracks"]) == {"sim", "service"}

    def test_summary_counts_match_findings_list(self):
        report = run_differential(
            CampaignConfig(
                n=4, t=1, plans=10, base_seed=0, program="broken-commit"
            )
        )
        assert report["summary"]["findings"] == len(report["findings"])
        total_by_kind = sum(
            report["summary"]["findings_by_kind"].values()
        )
        assert total_by_kind == report["summary"]["findings"]
        for finding in report["findings"]:
            assert "plan" in finding  # every finding is replayable

    def test_render_summary_verdict(self):
        report = run_differential(CampaignConfig(n=4, t=1, plans=4))
        text = render_differential_summary(report)
        assert "4 plans" in text
        assert ("CONSISTENT" in text) or ("DIVERGED" in text)
