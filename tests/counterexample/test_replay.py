"""Tests for replay artifacts: write, read, byte-identical re-execution."""

from __future__ import annotations

import json

import pytest

from repro.counterexample.replay import (
    ARTIFACT_SCHEMA,
    ARTIFACT_VERSION,
    artifacts_from_report,
    first_violating_case,
    read_artifact,
    verify_replay,
    violated_properties,
    write_artifact,
)
from repro.cli import main
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.campaign import (
    CampaignConfig,
    TrialCase,
    case_from_config,
    execute_trial_case,
    run_campaign,
)
from repro.faults.plan import CrashFault, FaultPlan

# Small but two-track: sim catches the planted bug deterministically,
# the service exercises the virtual clock path.
BROKEN = CampaignConfig(
    n=4, t=1, plans=8, base_seed=0, program="broken-commit"
)


def _known_case() -> TrialCase:
    # A deterministic single-crash case that trips the planted bug:
    # crash one participant mid-vote-collection so survivors time out
    # and unilaterally decide their own vote over a standing 0 vote.
    return TrialCase(
        n=4,
        t=1,
        K=4,
        votes=(1, 0, 1, 1),
        plan=FaultPlan(n=4, crashes=(CrashFault(pid=2, cycle=2),)),
        seed=0,
        program="broken-commit",
    )


class TestArtifactRoundTrip:
    def test_write_read_preserves_case_and_results(self, tmp_path):
        case = _known_case()
        result = execute_trial_case(case)
        path = write_artifact(case, result, tmp_path / "ce.jsonl")
        loaded_case, expected = read_artifact(path)
        assert loaded_case == case
        assert set(expected) == set(case.tracks)
        for track in case.tracks:
            assert expected[track] == result["tracks"][track]

    def test_header_is_schema_versioned(self, tmp_path):
        case = _known_case()
        path = write_artifact(
            case, execute_trial_case(case), tmp_path / "ce.jsonl"
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {
            "record": "header",
            "schema": ARTIFACT_SCHEMA,
            "version": ARTIFACT_VERSION,
        }

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"record": "header", "schema": ARTIFACT_SCHEMA, "version": 99}
            )
            + "\n"
        )
        with pytest.raises(AnalysisError, match="version"):
            read_artifact(path)

    def test_missing_case_record_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text(
            json.dumps(
                {
                    "record": "header",
                    "schema": ARTIFACT_SCHEMA,
                    "version": ARTIFACT_VERSION,
                }
            )
            + "\n"
        )
        with pytest.raises(AnalysisError, match="no case record"):
            read_artifact(path)


class TestRemovedRuntimeTrack:
    """A v1 artifact cut before the fail-stop runtime track was removed."""

    def _write(self, path):
        records = [
            {"record": "header", "schema": "repro.counterexample", "version": 1},
            {
                "record": "case",
                "case": {
                    "n": 4,
                    "t": 1,
                    "K": 4,
                    "votes": [1, 0, 1, 1],
                    "plan": {"n": 4, "seed": 0, "crashes": [{"pid": 2, "cycle": 2}]},
                    "seed": 0,
                    "tracks": ["sim", "runtime"],
                    "max_steps": 20000,
                    "deadline": 8.0,
                    "tick_interval": 0.002,
                    "program": "broken-commit",
                },
            },
            {
                "record": "expected",
                "track": "runtime",
                "result": {"outcome": "terminated", "decisions": [1, 0, None, 1]},
            },
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    def test_is_refused_with_how_to_re_cut_it(self, tmp_path):
        path = self._write(tmp_path / "v1-runtime.jsonl")
        with pytest.raises(ConfigurationError, match="--tracks sim,service"):
            read_artifact(path)

    def test_replay_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path / "v1-runtime.jsonl")
        assert main(["faults", "replay", str(path)]) == 2
        assert "runtime" in capsys.readouterr().err


class TestVerifyReplay:
    def test_replay_is_byte_identical_on_both_tracks(self, tmp_path):
        case = _known_case()
        path = write_artifact(
            case, execute_trial_case(case), tmp_path / "ce.jsonl"
        )
        report = verify_replay(path)
        assert report["match"] is True
        assert set(report["tracks"]) == {"sim", "service"}
        assert all(data["match"] for data in report["tracks"].values())
        assert report["properties"]  # the planted bug violates safety

    def test_tampered_expectation_is_flagged_with_keys(self, tmp_path):
        case = _known_case()
        result = execute_trial_case(case)
        # Corrupt the recorded sim decisions before writing.
        result["tracks"]["sim"]["decisions"] = [
            None for _ in result["tracks"]["sim"]["decisions"]
        ]
        path = write_artifact(case, result, tmp_path / "ce.jsonl")
        report = verify_replay(path)
        assert report["match"] is False
        assert "decisions" in report["tracks"]["sim"]["diverging_keys"]
        assert report["tracks"]["service"]["match"] is True


class TestCampaignIntegration:
    def test_artifacts_cut_from_report_replay_cleanly(self, tmp_path):
        report = run_campaign(BROKEN)
        assert report["summary"]["safety_violations"] > 0
        written = artifacts_from_report(report, tmp_path)
        assert written
        for path in written:
            verdict = verify_replay(path)
            assert verdict["match"] is True, path
            assert verdict["properties"]

    def test_safe_campaign_cuts_no_artifacts(self, tmp_path):
        safe = CampaignConfig(n=4, t=1, plans=3, program="commit")
        report = run_campaign(safe)
        if report["summary"]["safety_violations"] == 0:
            assert artifacts_from_report(report, tmp_path) == []

    def test_first_violating_case_matches_campaign_draw(self):
        found = first_violating_case(BROKEN)
        assert found is not None
        case, result = found
        assert violated_properties(result["tracks"])
        # The returned case is exactly the campaign's draw for that seed.
        assert case == case_from_config(BROKEN, case.seed)
        # No earlier seed violates: the scan is minimal in seed order.
        for seed in range(BROKEN.base_seed, case.seed):
            earlier = execute_trial_case(case_from_config(BROKEN, seed))
            assert not violated_properties(earlier["tracks"])
