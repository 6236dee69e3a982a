"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.cli.run import build_adversary


class TestRunCommit:
    def test_happy_path(self, capsys):
        code = main(["run-commit", "--votes", "1,1,1", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decision: COMMIT" in out
        assert "asynchronous rounds" in out

    def test_abort_vote(self, capsys):
        code = main(["run-commit", "--votes", "1,0,1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decision: ABORT" in out

    def test_timeline_and_lanes_and_rounds(self, capsys):
        code = main(
            [
                "run-commit",
                "--votes",
                "1,1,1",
                "--timeline",
                "--lanes",
                "--rounds",
                "--limit",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recv[" in out  # timeline
        assert "event  p0 p1 p2" in out  # lanes
        assert "asynchronous rounds (clock" in out  # round chart

    def test_crash_adversary(self, capsys):
        code = main(
            [
                "run-commit",
                "--votes",
                "1,1,1,1,1",
                "--adversary",
                "crash",
                "--crashes",
                "3,4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "crashed=[3, 4]" in out

    def test_invalid_votes_rejected(self):
        with pytest.raises(SystemExit):
            main(["run-commit", "--votes", "1,2,banana"])


class TestSaveAndReplay:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        assert main(["run-commit", "--votes", "1,1,1", "--save", str(path)]) == 0
        capsys.readouterr()
        assert path.exists()
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "p0: COMMIT" in out

    def test_replay_vote_count_checked(self, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        main(["run-commit", "--votes", "1,1,1", "--save", str(path)])
        capsys.readouterr()
        code = main(["replay", str(path), "--votes", "1,1,1,1,1"])
        assert code == 2
        assert "recorded with n=3" in capsys.readouterr().err


class TestExperiments:
    def test_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("E1", "E7", "E13"):
            assert experiment_id in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_quick_experiment_runs(self, capsys):
        assert main(["experiment", "E3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "bound held" in out


class TestJsonOutput:
    def test_run_commit_json_round_trips(self, capsys):
        """The ISSUE acceptance criterion, end to end."""
        from dataclasses import asdict

        from repro.analysis.metrics import metrics_from_run
        from repro.telemetry.runio import run_from_records

        code = main(["run-commit", "--adversary", "ontime", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.run-commit"
        assert document["version"] == 1
        counters = document["counters"]
        assert counters["messages"]["sent_by_kind"]["GoMessage"] > 0
        assert counters["messages"]["late"] == 0
        assert counters["rounds"]["max_decision_round"] is not None
        assert counters["agreement"]["stages"] >= 1
        assert "sim_events_total" in document["telemetry"]
        run = run_from_records(document["trace"]["records"])
        recovered = asdict(metrics_from_run(run, record=False))
        assert recovered == document["metrics"]

    def test_run_commit_trace_out(self, tmp_path, capsys):
        from repro.telemetry.runio import import_run_jsonl

        path = tmp_path / "run.jsonl"
        code = main(
            ["run-commit", "--votes", "1,1,1", "--trace-out", str(path)]
        )
        assert code == 0
        assert "trace written" in capsys.readouterr().out
        run = import_run_jsonl(path)
        assert run.n == 3

    def test_json_suppresses_text_output(self, capsys):
        main(["run-commit", "--votes", "1,1,1", "--json"])
        out = capsys.readouterr().out
        assert "decision:" not in out
        json.loads(out)  # the whole stdout is one JSON document

    def test_experiment_json(self, capsys):
        code = main(["experiment", "E3", "--quick", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.experiment"
        assert document["id"] == "E3"
        assert document["seconds"] > 0
        assert document["table"]["rows"]
        assert "experiment_runs_total" in document["telemetry"]


class TestStats:
    def test_stats_from_trace(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(["run-commit", "--votes", "1,1,1", "--trace-out", str(path)])
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["runs_recorded_total"]["samples"][0]["value"] == 1
        assert "run_messages_sent_total" in snapshot

    def test_stats_prometheus_format(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        main(["run-commit", "--votes", "1,1,1", "--trace-out", str(path)])
        capsys.readouterr()
        assert main(["stats", str(path), "--format", "prom"]) == 0
        text = capsys.readouterr().out
        assert "# TYPE runs_recorded_total counter" in text
        assert 'run_messages_sent_total{kind="GoMessage"}' in text

    def test_stats_unreadable_trace(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_stats_empty_registry(self, capsys):
        assert main(["stats"]) == 0
        assert json.loads(capsys.readouterr().out) == {}


class TestLogLevel:
    def test_flag_accepted(self, capsys):
        import logging

        from repro.telemetry.log import LOGGER_NAME

        logger = logging.getLogger(LOGGER_NAME)
        level = logger.level
        try:
            code = main(
                ["--log-level", "error", "run-commit", "--votes", "1,1,1"]
            )
            assert code == 0
            assert logger.level == logging.ERROR
        finally:
            for handler in list(logger.handlers):
                if getattr(handler, "_repro_telemetry_handler", False):
                    logger.removeHandler(handler)
            logger.setLevel(level)

    def test_unknown_level_rejected(self):
        with pytest.raises(SystemExit):
            main(["--log-level", "loud", "run-commit"])


class TestBuildAdversary:
    @pytest.mark.parametrize(
        "name", ["synchronous", "ontime", "late", "random", "crash"]
    )
    def test_all_choices_constructible(self, name):
        adversary = build_adversary(name, K=4, seed=0, crashes=[1])
        assert adversary is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_adversary("nope", K=4, seed=0, crashes=[])


class TestFaultsCampaign:
    def test_quick_campaign_summary(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        code = main(
            [
                "faults",
                "campaign",
                "--plans",
                "3",
                "--seed",
                "17",
                "--workers",
                "1",
                "--tracks",
                "sim",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "3 plans" in captured
        assert "verdict: SAFE" in captured
        import json

        report = json.loads(out.read_text())
        assert report["schema"] == "repro.fault-campaign v1"
        assert len(report["trials"]) == 3

    def test_json_output_is_machine_readable(self, capsys):
        code = main(
            [
                "faults",
                "campaign",
                "--plans",
                "2",
                "--seed",
                "5",
                "--workers",
                "1",
                "--tracks",
                "sim",
                "--json",
            ]
        )
        import json

        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["safety_violations"] == 0

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["faults"])


class TestFaultsExitCodes:
    """Campaign exit codes: 0 clean, 1 safety, 2 liveness-only (opt-in)."""

    @staticmethod
    def _fabricate(monkeypatch, safety, liveness):
        def fake_run_campaign(config, workers=None):
            return {
                "schema": "repro.fault-campaign v1",
                "config": config.to_dict(),
                "summary": {
                    "safety_violations": safety,
                    "liveness_violations": liveness,
                },
                "trials": [],
            }

        import repro.faults.campaign as campaign

        monkeypatch.setattr(campaign, "run_campaign", fake_run_campaign)

    ARGS = ["faults", "campaign", "--plans", "1", "--json"]

    def test_liveness_only_passes_by_default(self, monkeypatch, capsys):
        self._fabricate(monkeypatch, safety=0, liveness=3)
        assert main(self.ARGS) == 0
        capsys.readouterr()

    def test_fail_on_liveness_returns_two(self, monkeypatch, capsys):
        self._fabricate(monkeypatch, safety=0, liveness=3)
        assert main(self.ARGS + ["--fail-on-liveness"]) == 2
        capsys.readouterr()

    def test_safety_outranks_liveness(self, monkeypatch, capsys):
        self._fabricate(monkeypatch, safety=1, liveness=3)
        assert main(self.ARGS + ["--fail-on-liveness"]) == 1
        capsys.readouterr()

    def test_clean_campaign_returns_zero(self, monkeypatch, capsys):
        self._fabricate(monkeypatch, safety=0, liveness=0)
        assert main(self.ARGS + ["--fail-on-liveness"]) == 0
        capsys.readouterr()


@pytest.fixture(scope="module")
def broken_artifact_dir(tmp_path_factory):
    """One broken-variant campaign, artifacts cut once for the module."""
    target = tmp_path_factory.mktemp("artifacts")
    code = main(
        [
            "faults",
            "campaign",
            "--variant",
            "broken-commit",
            "--plans",
            "6",
            "--seed",
            "0",
            "--tracks",
            "sim",
            "--workers",
            "1",
            "--artifact-dir",
            str(target),
        ]
    )
    assert code == 1  # the planted bug must trip the safety oracle
    return target


class TestFaultsCounterexamplePipeline:
    def test_campaign_cuts_replay_artifacts(self, broken_artifact_dir):
        artifacts = sorted(broken_artifact_dir.glob("counterexample-*.jsonl"))
        assert artifacts

    def test_replay_verb_confirms_byte_identical(
        self, broken_artifact_dir, capsys
    ):
        artifact = sorted(broken_artifact_dir.iterdir())[0]
        code = main(["faults", "replay", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in out

    def test_replay_verb_json(self, broken_artifact_dir, capsys):
        artifact = sorted(broken_artifact_dir.iterdir())[0]
        code = main(["faults", "replay", str(artifact), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["match"] is True
        assert report["properties"]

    def test_replay_verb_flags_tampering(
        self, broken_artifact_dir, tmp_path, capsys
    ):
        artifact = sorted(broken_artifact_dir.iterdir())[0]
        lines = artifact.read_text().splitlines()
        tampered = []
        for line in lines:
            record = json.loads(line)
            if record["record"] == "expected":
                record["result"]["decisions"] = [
                    None for _ in record["result"]["decisions"]
                ]
            tampered.append(json.dumps(record))
        bad = tmp_path / "tampered.jsonl"
        bad.write_text("\n".join(tampered) + "\n")
        code = main(["faults", "replay", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGED" in out

    def test_shrink_verb_minimizes_artifact(
        self, broken_artifact_dir, tmp_path, capsys
    ):
        artifact = sorted(broken_artifact_dir.iterdir())[0]
        minimal = tmp_path / "minimal.jsonl"
        code = main(
            [
                "faults",
                "shrink",
                "--artifact",
                str(artifact),
                "--workers",
                "1",
                "--max-entries",
                "2",
                "--out",
                str(minimal),
            ]
        )
        capsys.readouterr()
        assert code == 0
        # The minimal artifact is itself replayable.
        assert main(["faults", "replay", str(minimal)]) == 0
        capsys.readouterr()

    def test_shrink_verb_enforces_max_entries(
        self, broken_artifact_dir, capsys
    ):
        artifact = sorted(broken_artifact_dir.iterdir())[0]
        code = main(
            [
                "faults",
                "shrink",
                "--artifact",
                str(artifact),
                "--workers",
                "1",
                "--max-entries",
                "0",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "--max-entries" in err

    def test_shrink_scan_without_violation_returns_three(self, capsys):
        code = main(
            [
                "faults",
                "shrink",
                "--variant",
                "commit",
                "--plans",
                "2",
                "--workers",
                "1",
            ]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "nothing to shrink" in err

    def test_diff_verb_is_consistent_on_correct_protocol(self, capsys):
        code = main(
            ["faults", "diff", "--plans", "2", "--workers", "1", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["schema"] == "repro.fault-differential v2"
        assert report["summary"]["findings"] == 0


class TestSimCoreSelection:
    @pytest.fixture(autouse=True)
    def _isolate_core_selection(self):
        # --sim-core installs a process-wide override, which may not leak.
        from repro.sim.coreselect import set_default_sim_core

        set_default_sim_core(None)
        yield
        set_default_sim_core(None)

    CAMPAIGN = ["faults", "campaign", "--tracks", "sim", "--plans", "2"]

    def test_sim_core_flag_runs_fast_core(self, capsys):
        code = main([*self.CAMPAIGN, "--sim-core", "fast"])
        assert code == 0
        assert "SAFE" in capsys.readouterr().out

    def test_unknown_flag_value_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.CAMPAIGN, "--sim-core", "turbo"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", [["run-commit"], ["mc", "explore"]])
    def test_trace_commands_take_no_core(self, command, capsys):
        # They construct the reference kernel directly: nothing to select.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--sim-core", "fast"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_cores_diff_oracle_clean(self, capsys):
        code = main(
            ["faults", "diff", "--cores", "--plans", "3", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BYTE-IDENTICAL" in out


class TestExitCodeTable:
    def test_help_documents_every_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes (all commands):" in out
        assert "0  success" in out
        assert "1  findings" in out
        assert "2  usage or input error" in out
        assert "3  nothing to shrink" in out
        # The findings row names every exit-1 producer, old and new
        # (normalised: the table wraps producers across lines).
        out = " ".join(out.split())
        for producer in (
            "faults campaign",
            "mc explore",
            "faults replay",
            "faults diff",
            "faults shrink",
            "run-commit",
            "mc certify",
        ):
            assert producer in out


class TestMcExploreVerb:
    def test_safe_exploration_exits_zero(self, capsys):
        code = main(
            ["mc", "explore", "--votes", "1,1,1", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == "repro.mc-explore v1"
        assert document["exhaustive"] is True
        assert document["violations"] == []

    def test_stats_count_no_prefix_replays(self, capsys):
        # The explorer replays a prefix for every state it visits; the
        # protocol counters are recorded from finished trials, so no
        # replay may add a vote or a decision to them.
        n = 3
        code = main(
            [
                "mc", "explore", "--n", str(n), "--votes", "1,1,1",
                "--max-cycles", "6", "--stats", "--json", "--workers", "1",
            ]
        )
        assert code == 0
        telemetry = json.loads(capsys.readouterr().out)["telemetry"]
        assert "mc_states_total" in telemetry
        for name in ("commit_votes_total", "commit_decisions_total"):
            samples = telemetry.get(name, {"samples": []})["samples"]
            # One vote and one decision per processor, at most.
            assert sum(s["value"] for s in samples) <= n, name

    def test_planted_bug_exits_one_and_cuts_artifacts(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "mc",
                "explore",
                "--variant",
                "broken-commit",
                "--votes",
                "0,1,0",
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATIONS FOUND" in out
        artifacts = sorted(tmp_path.glob("mc-counterexample-*.jsonl"))
        assert artifacts

    def test_cut_artifact_replays_byte_identically(self, tmp_path, capsys):
        main(
            [
                "mc",
                "explore",
                "--variant",
                "broken-commit",
                "--votes",
                "0,1,0",
                "--first",
                "--artifact-dir",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        artifact = sorted(tmp_path.glob("mc-counterexample-*.jsonl"))[0]
        code = main(["faults", "replay", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "byte-identical" in out

    def test_bad_bounds_exit_two(self, capsys):
        code = main(["mc", "explore", "--n", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "n >= 2" in err

    def test_report_written_to_out(self, tmp_path, capsys):
        target = tmp_path / "explore.json"
        code = main(
            ["mc", "explore", "--votes", "1,1,1", "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        document = json.loads(target.read_text())
        assert document["schema"] == "repro.mc-explore v1"


class TestMcCertifyVerb:
    def test_unknown_preset_exits_two(self, capsys):
        code = main(["mc", "certify", "--preset", "no-such"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown certify preset" in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["mc"])


def test_variant_help_names_every_registered_variant():
    from repro.cli.common import VARIANT_NAMES
    from repro.faults.variants import PROGRAM_VARIANTS

    assert VARIANT_NAMES.split(", ") == list(PROGRAM_VARIANTS)
