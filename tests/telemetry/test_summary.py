"""Tests for per-phase counter bundles and the --json documents."""

import json

import pytest

from repro.analysis.metrics import metrics_from_run
from repro.cli.run import build_adversary
from repro.core.api import run_commit
from repro.core.commit import CommitProgram
from repro.faults.variants import make_programs
from repro.sim.coreselect import run_sim_trial
from repro.sim.fastcore import adversary_sweep_supported
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.telemetry.runio import run_from_records
from repro.telemetry.summary import (
    EXPERIMENT_DOCUMENT_SCHEMA,
    RUN_DOCUMENT_SCHEMA,
    RUN_DOCUMENT_VERSION,
    experiment_document,
    record_run,
    record_trial,
    run_commit_document,
    run_counters,
)


def _outcome(votes=(1, 1, 1, 1, 1), seed=0):
    return run_commit(list(votes), K=4, seed=seed, max_steps=50_000)


class TestRunCounters:
    def test_counter_bundle_shape(self):
        outcome = _outcome()
        counters = run_counters(outcome.run, programs=outcome.programs)
        messages = counters["messages"]
        assert messages["envelopes_sent"] == outcome.run.messages_sent()
        assert set(messages["sent_by_kind"]) >= {"GoMessage", "VoteMessage"}
        assert messages["late"] == 0
        assert counters["events"]["total"] == outcome.run.event_count
        assert counters["crashes"] == 0
        rounds = counters["rounds"]
        assert rounds["max_decision_round"] == outcome.decision_round
        assert len(rounds["decision_rounds"]) == 5
        agreement = counters["agreement"]
        assert agreement["stages"] >= 1
        assert set(agreement["coin_usage"]) == {"shared", "private"}

    def test_without_programs_no_agreement_section(self):
        outcome = _outcome()
        assert "agreement" not in run_counters(outcome.run)


class TestRecordRun:
    def test_populates_registry(self):
        outcome = _outcome()
        registry = MetricsRegistry()
        record_run(outcome.run, registry)
        families = registry.metrics()
        assert families["runs_recorded_total"].value() == 1
        sent = families["run_messages_sent_total"]
        counters = run_counters(outcome.run)
        for kind, count in counters["messages"]["sent_by_kind"].items():
            assert sent.value(kind=kind) == count
        assert families["run_decision_rounds"].cell().count == 1

    def test_disabled_registry_untouched(self):
        outcome = _outcome()
        registry = MetricsRegistry(enabled=False)
        record_run(outcome.run, registry)
        assert registry.metrics() == {}


def _samples(registry, name):
    family = registry.snapshot().get(name, {"samples": []})
    return {
        tuple(sorted(sample["labels"].items())): sample.get(
            "value", sample.get("count")
        )
        for sample in family["samples"]
    }


class TestRecordTrial:
    def test_kernel_records_the_finished_run_once(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            outcome = _outcome(votes=(1, 1, 0, 1, 1), seed=3)
        run, programs = outcome.run, outcome.programs
        replayed = MetricsRegistry()
        record_run(run, replayed)
        # The kernel families agree with the ones derived from the trace.
        for kernel, trace in (
            ("sim_payloads_sent_total", "run_messages_sent_total"),
            ("sim_payloads_delivered_total", "run_messages_delivered_total"),
            ("sim_events_total", "run_events_total"),
        ):
            assert _samples(registry, kernel) == _samples(replayed, trace)
        assert _samples(registry, "sim_envelopes_sent_total") == {
            (): run.messages_sent()
        }
        assert _samples(registry, "sim_runs_total") == {
            (("outcome", "terminated"),): 1
        }
        assert _samples(registry, "sim_run_seconds") == {(): 1}
        # One vote and one decision per processor, from its CommitStats.
        votes = [program.stats.vote_broadcast for program in programs]
        assert _samples(registry, "commit_votes_total") == {
            (("vote", str(value)),): votes.count(value) for value in set(votes)
        }
        assert _samples(registry, "commit_decisions_total") == {
            (("decision", "abort"),): len(programs)
        }
        stages = sum(p.stats.agreement.stages_started for p in programs)
        assert _samples(registry, "agreement_stage_transitions_total") == {
            (): stages
        }

    def test_creates_a_family_only_with_a_sample(self):
        registry = MetricsRegistry()
        fresh = CommitProgram(pid=0, n=3, t=1, initial_vote=1, K=4)
        record_trial(registry, [fresh])
        record_trial(registry, [], outcome="terminated")
        assert set(registry.metrics()) == {"sim_runs_total"}

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize(
        "adversary", ["synchronous", "ontime", "late", "crash"]
    )
    def test_sweep_records_what_the_kernel_records(
        self, adversary, n, simulations
    ):
        K, t = 4, (n - 1) // 2
        snapshots = {}
        for core in ("reference", "fast"):
            registry = MetricsRegistry()
            with use_registry(registry):
                for seed in range(4):
                    votes = [1] * n
                    votes[-1] = seed % 2  # an abort vote on odd seeds
                    chosen = build_adversary(adversary, K, seed, [n - 1])
                    assert adversary_sweep_supported(chosen)
                    run_sim_trial(
                        make_programs("commit", n, t, votes, K),
                        chosen,
                        K,
                        t,
                        seed,
                        20_000,
                        core=core,
                    ).metrics()
            snapshot = registry.snapshot()
            assert snapshot.pop("sim_run_seconds")["samples"][0]["count"] == 4
            snapshots[core] = snapshot
        assert len(simulations) == 4  # the reference core's trials only
        assert snapshots["fast"] == snapshots["reference"]
        assert "commit_decisions_total" in snapshots["fast"]
        assert "analysis_runs_total" in snapshots["fast"]


class TestDocuments:
    def test_run_commit_document_round_trips(self):
        outcome = _outcome(seed=5)
        document = run_commit_document(
            outcome.run,
            params={"seed": 5},
            programs=outcome.programs,
        )
        assert document["schema"] == RUN_DOCUMENT_SCHEMA
        assert document["version"] == RUN_DOCUMENT_VERSION
        # the document must be pure JSON
        encoded = json.dumps(document, sort_keys=True)
        decoded = json.loads(encoded)
        run = run_from_records(decoded["trace"]["records"])
        from dataclasses import asdict

        assert asdict(metrics_from_run(run, record=False)) == decoded["metrics"]

    def test_telemetry_snapshot_included_when_given(self):
        outcome = _outcome()
        registry = MetricsRegistry()
        registry.counter("c").inc()
        document = run_commit_document(
            outcome.run, params={}, registry=registry
        )
        assert "c" in document["telemetry"]

    def test_experiment_document(self):
        from repro.analysis.tables import ResultTable

        table = ResultTable(title="T", columns=["n", "mean"])
        table.add_row(3, 1.25)
        table.add_note("a note")
        document = experiment_document("E2", table, seconds=0.5)
        assert document["schema"] == EXPERIMENT_DOCUMENT_SCHEMA
        assert document["id"] == "E2"
        assert document["seconds"] == 0.5
        assert document["table"]["rows"] == [[3, 1.25]]
        assert document["table"]["notes"] == ["a note"]
        json.dumps(document)  # must be pure JSON
