"""Campaign runner tests: determinism, schema, safety accounting."""

import json

import pytest

from repro.adversary.base import CycleAdversary, DeliveryPolicy
from repro.errors import ConfigurationError
from repro.faults import campaign
from repro.faults.campaign import (
    CAMPAIGN_SCHEMA,
    CampaignConfig,
    case_from_config,
    render_campaign_summary,
    run_campaign,
    run_campaign_trial,
    run_sim_track,
    write_campaign_report,
)
from repro.faults.safety import NONTERMINATED, TERMINATED
from repro.models import model_names
from repro.sim.coreselect import set_default_sim_core
from repro.telemetry import registry as telemetry

# Small but real: both tracks, a handful of plans.
QUICK = CampaignConfig(n=5, plans=4, base_seed=31)


@pytest.fixture(scope="module")
def quick_report():
    return run_campaign(QUICK, workers=1)


class TestConfig:
    def test_default_budget_is_optimum(self):
        assert CampaignConfig(n=5).resolved_t == 2
        assert CampaignConfig(n=5, t=1).resolved_t == 1

    def test_rejects_unknown_track(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(tracks=("sim", "tcp"))

    def test_rejects_the_removed_runtime_track_naming_its_replacement(self):
        with pytest.raises(ConfigurationError, match="--tracks sim,service"):
            CampaignConfig(tracks=("sim", "runtime"))

    def test_service_track_refuses_sub_resilient_groups(self):
        with pytest.raises(ConfigurationError, match="n > 2t"):
            case_from_config(CampaignConfig(n=4, t=2, plans=1), seed=0)
        config = CampaignConfig(n=4, t=2, plans=1, tracks=("sim",))
        assert case_from_config(config, seed=0).t == 2

    def test_rejects_empty_sweep(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(plans=0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(over_budget_fraction=1.5)


class TestTrial:
    def test_trial_is_deterministic(self):
        a = run_campaign_trial(QUICK, 31)
        b = run_campaign_trial(QUICK, 31)
        assert a == b

    def test_trial_record_is_json_safe(self):
        record = run_campaign_trial(QUICK, 33)
        assert json.loads(json.dumps(record)) == record

    def test_trial_runs_requested_tracks_only(self):
        config = CampaignConfig(n=5, plans=1, base_seed=0, tracks=("sim",))
        record = run_campaign_trial(config, 0)
        assert set(record["tracks"]) == {"sim"}


class TestReport:
    def test_schema_and_shape(self, quick_report):
        assert quick_report["schema"] == CAMPAIGN_SCHEMA
        assert quick_report["config"]["n"] == 5
        assert len(quick_report["trials"]) == QUICK.plans
        summary = quick_report["summary"]
        assert summary["trials"] == QUICK.plans
        assert set(summary["tracks"]) == {"sim", "service"}

    def test_outcomes_add_up(self, quick_report):
        for track_summary in quick_report["summary"]["tracks"].values():
            outcomes = track_summary["outcomes"]
            assert outcomes[TERMINATED] + outcomes[NONTERMINATED] == QUICK.plans

    def test_no_safety_violations(self, quick_report):
        assert quick_report["summary"]["safety_violations"] == 0

    def test_render_summary_mentions_verdict(self, quick_report):
        text = render_campaign_summary(quick_report)
        assert "SAFE" in text
        assert f"{QUICK.plans} plans" in text

    def test_write_report_is_stable_json(self, quick_report, tmp_path):
        path = write_campaign_report(quick_report, tmp_path / "r.json")
        text = path.read_text()
        assert json.loads(text) == quick_report
        # Deterministic serialization: same report, same bytes.
        again = write_campaign_report(quick_report, tmp_path / "r2.json")
        assert again.read_text() == text


class TestDeterminism:
    def test_serial_and_parallel_reports_are_byte_identical(self, quick_report):
        parallel = run_campaign(QUICK, workers=2)
        assert json.dumps(parallel, sort_keys=True) == json.dumps(
            quick_report, sort_keys=True
        )

    def test_same_seed_reproduces(self, quick_report):
        again = run_campaign(QUICK, workers=1)
        assert again == quick_report

    def test_different_base_seed_differs(self, quick_report):
        other = run_campaign(
            CampaignConfig(n=5, plans=4, base_seed=501), workers=1
        )
        assert other["trials"] != quick_report["trials"]


class TestScheduledCases:
    """TrialCases carrying a model-checker decision schedule."""

    def _scheduled_case(self, **changes):
        from repro.faults.campaign import TrialCase
        from repro.faults.plan import FaultPlan
        from repro.sim.decisions import CrashDecision, StepDecision

        fields = dict(
            n=3,
            t=1,
            K=2,
            votes=(0, 1, 0),
            plan=FaultPlan(n=3),
            seed=0,
            tracks=("sim",),
            program="broken-commit",
            schedule=(
                StepDecision(pid=0, deliver=()),
                CrashDecision(pid=0),
                StepDecision(pid=1, deliver=()),
            ),
        )
        fields.update(changes)
        return TrialCase(**fields)

    def test_round_trips_through_dict(self):
        from repro.faults.campaign import TrialCase

        case = self._scheduled_case()
        doc = case.to_dict()
        assert "schedule" in doc
        assert TrialCase.from_dict(doc) == case

    def test_unscheduled_dict_omits_the_key(self):
        case = self._scheduled_case(schedule=None)
        assert "schedule" not in case.to_dict()  # v1 artifact back-compat

    def test_scheduled_cases_are_sim_only(self):
        with pytest.raises(ConfigurationError, match="sim-only"):
            self._scheduled_case(tracks=("sim", "service"))

    def test_budget_counts_scripted_crashes(self):
        from repro.sim.decisions import CrashDecision

        case = self._scheduled_case()
        assert case.scheduled_crashes == 1
        assert case.within_budget
        over = self._scheduled_case(
            schedule=(CrashDecision(pid=0), CrashDecision(pid=1))
        )
        assert over.scheduled_crashes == 2
        assert not over.within_budget

    def test_scheduled_cases_never_expect_termination(self):
        assert not self._scheduled_case().expect_termination

    def test_execute_runs_script_then_fallback(self):
        from repro.faults.campaign import execute_trial_case

        result = execute_trial_case(self._scheduled_case())
        sim = result["tracks"]["sim"]
        assert 0 in sim["crashed"]
        # The deliver-all fallback completes the run after the script.
        assert sim["outcome"] in (TERMINATED, NONTERMINATED)


# -- the fast core's sim track: fused sweep, one eligibility rule -----------

FALLBACKS = "sim_fastcore_fallbacks_total"

#: Small horizon so over-budget plans reach it cheaply.
SWEEP_STEPS = 2_000


class _OldestFirst(DeliveryPolicy):
    """Overrides ``select``: only the reference path knows what it does."""

    def select(self, view, pid, pending, ctx):
        return tuple(m.message_id for m in pending[:1])


@pytest.fixture
def ambient_core():
    set_default_sim_core(None)
    yield set_default_sim_core
    set_default_sim_core(None)


@pytest.fixture
def metrics():
    registry = telemetry.enable_telemetry()
    registry.reset()
    yield registry
    registry.reset()
    telemetry.disable_telemetry()


def _records(config, seeds, core, set_core):
    set_core(core)
    try:
        return [run_campaign_trial(config, seed) for seed in seeds]
    finally:
        set_core(None)


def _fallback_samples(registry):
    snapshot = registry.snapshot()
    if FALLBACKS not in snapshot:
        return []
    return [
        (sample["labels"]["adversary"], sample["value"])
        for sample in snapshot[FALLBACKS]["samples"]
    ]


class TestFastCoreSimTrack:
    def test_records_equal_across_cores_for_every_model(
        self, ambient_core, simulations
    ):
        horizon = fast_built = 0
        for model in model_names():
            for n in (3, 4, 5):
                config = CampaignConfig(
                    n=n,
                    plans=3,
                    tracks=("sim",),
                    model=model,
                    over_budget_fraction=0.5,
                    max_steps=SWEEP_STEPS,
                )
                seeds = range(3)
                reference = _records(config, seeds, "reference", ambient_core)
                del simulations[:]
                fast = _records(config, seeds, "fast", ambient_core)
                fast_built += len(simulations)
                assert fast == reference, (model, n)
                horizon += sum(
                    record["tracks"]["sim"]["events"] >= SWEEP_STEPS
                    for record in reference
                )
        assert horizon > 0
        # Every fast-side trial ran on the sweep: no trace was built.
        assert fast_built == 0

    _scheduled_case = TestScheduledCases._scheduled_case

    def test_scheduled_case_falls_back_and_is_counted(
        self, metrics, simulations
    ):
        case = self._scheduled_case()
        reference = run_sim_track(case, core="reference")
        del simulations[:]
        assert run_sim_track(case, core="fast") == reference
        assert len(simulations) == 1
        assert _fallback_samples(metrics) == [("ScriptedAdversary", 1)]

    def test_active_registry_falls_back_uncounted(
        self, metrics, simulations
    ):
        config = CampaignConfig(n=5, plans=2, tracks=("sim",))
        case = case_from_config(config, 0)
        reference = run_sim_track(case, core="reference")
        del simulations[:]
        assert run_sim_track(case, core="fast") == reference
        assert len(simulations) == 1
        assert FALLBACKS not in metrics.snapshot()

    def test_select_override_falls_back_and_is_counted(
        self, metrics, simulations, monkeypatch
    ):
        monkeypatch.setattr(
            campaign,
            "compile_to_adversary",
            lambda plan, K: CycleAdversary(seed=0, delivery=_OldestFirst()),
        )
        config = CampaignConfig(
            n=5, plans=2, tracks=("sim",), max_steps=SWEEP_STEPS
        )
        trials, fast_built = 2, 0
        for seed in range(trials):
            case = case_from_config(config, seed)
            reference = run_sim_track(case, core="reference")
            del simulations[:]
            assert run_sim_track(case, core="fast") == reference
            fast_built += len(simulations)
        assert fast_built == trials
        assert _fallback_samples(metrics) == [("CycleAdversary", trials)]
