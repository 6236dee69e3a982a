"""Model plumbing through the campaign and model-checker configs.

The model knob must serialize losslessly, validate eagerly, and — the
part byte-identity depends on — stay *invisible* in default-model
documents: a pre-zoo report and a post-zoo default report are the same
bytes, so the "model" key may only appear when it carries information.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults.campaign import (
    CampaignConfig,
    TrialCase,
    case_from_config,
    execute_trial_case,
    run_campaign,
)
from repro.faults.plan import FaultPlan
from repro.mc.config import MCConfig
from repro.mc.explorer import explore
from repro.models import resolve_model


class TestCampaignConfigModel:
    def test_default_model_key_omitted(self):
        assert "model" not in CampaignConfig(plans=1).to_dict()

    def test_non_default_model_key_emitted(self):
        doc = CampaignConfig(
            plans=1, tracks=("sim",), model="granular"
        ).to_dict()
        assert doc["model"] == "granular"

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown timing model"):
            CampaignConfig(plans=1, model="nosuch")

    def test_unsupported_track_rejected(self):
        with pytest.raises(ConfigurationError, match="no analogue"):
            CampaignConfig(
                plans=1, tracks=("service",), model="random-async"
            )

    def test_granular_supports_service_track(self):
        config = CampaignConfig(
            plans=1, tracks=("sim", "service"), model="granular"
        )
        assert config.model == "granular"

    def test_service_track_runs_the_model_plan(self, monkeypatch):
        granular = type(resolve_model("granular"))
        original = granular.service_plan
        plans = []

        def spy(self, plan, K):
            plans.append(original(self, plan, K))
            return plans[-1]

        monkeypatch.setattr(granular, "service_plan", spy)
        case = case_from_config(
            CampaignConfig(n=3, plans=1, tracks=("service",), model="granular"),
            seed=0,
        )
        result = execute_trial_case(case)
        assert len(plans) == 1 and plans[0].link_delays
        assert result["tracks"]["service"]["safety"]["safety_ok"]

    def test_case_inherits_config_model(self):
        config = CampaignConfig(plans=1, tracks=("sim",), model="granular")
        case = case_from_config(config, seed=0)
        assert case.model == "granular"


class TestTrialCaseModel:
    def _case(self, **overrides):
        defaults = dict(
            n=3,
            t=1,
            K=4,
            votes=(1, 1, 1),
            plan=FaultPlan(n=3, seed=0),
            seed=0,
            tracks=("sim",),
        )
        defaults.update(overrides)
        return TrialCase(**defaults)

    def test_round_trip_preserves_model(self):
        case = self._case(model="round-closed")
        assert TrialCase.from_dict(case.to_dict()) == case

    def test_default_model_key_omitted(self):
        assert "model" not in self._case().to_dict()
        # ... and an old (pre-zoo) document still loads.
        doc = self._case().to_dict()
        assert TrialCase.from_dict(doc).model == "realistic"

    def test_dropping_model_voids_termination_obligation(self):
        assert self._case().expect_termination
        assert self._case(model="granular").expect_termination
        assert not self._case(model="round-closed").expect_termination

    def test_scheduled_case_rejects_model(self):
        from repro.sim.decisions import StepDecision

        with pytest.raises(ConfigurationError, match="re-time"):
            self._case(
                model="granular", schedule=(StepDecision(pid=0),)
            )


class TestCampaignUnderModels:
    @pytest.mark.parametrize(
        "model", ["granular", "random-async", "round-closed"]
    )
    def test_sim_track_campaign_keeps_safety(self, model):
        report = run_campaign(
            CampaignConfig(
                n=4,
                t=1,
                plans=4,
                tracks=("sim",),
                max_steps=4_000,
                model=model,
            ),
            workers=1,
        )
        assert report["summary"]["safety_violations"] == 0
        assert report["config"]["model"] == model

    def test_workers_do_not_change_model_report(self):
        config = CampaignConfig(
            n=4, t=1, plans=4, tracks=("sim",), max_steps=4_000,
            model="granular",
        )
        assert run_campaign(config, workers=1) == run_campaign(
            config, workers=2
        )


class TestMCConfigModel:
    def test_default_model_key_omitted(self):
        assert "model" not in MCConfig().to_dict()

    def test_round_trip_preserves_model(self):
        config = MCConfig(por=False, model="granular")
        assert MCConfig.from_dict(config.to_dict()) == config

    def test_non_realistic_requires_no_por(self):
        with pytest.raises(ConfigurationError, match="por=False"):
            MCConfig(model="granular")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown timing model"):
            MCConfig(por=False, model="nosuch")

    @pytest.mark.parametrize(
        "model", ["granular", "random-async", "round-closed"]
    )
    def test_exploration_is_safe_and_deterministic(self, model):
        config = MCConfig(
            n=3,
            t=1,
            K=2,
            max_cycles=5,
            crash_budget=1,
            votes=(1, 1, 1),
            por=False,
            model=model,
        )
        first = explore(config, workers=1).to_dict()
        assert first["violations"] == []
        assert first["stats"]["states_visited"] > 0
        assert explore(config, workers=2).to_dict() == first

    def test_random_async_prunes_the_realistic_tree(self):
        # The classifier forces/forbids deliveries, so the explored
        # space must be a different (here: much smaller) tree than the
        # unrestricted realistic one.
        bounds = dict(
            n=3, t=1, K=2, max_cycles=6, crash_budget=1,
            delay_budget=1, max_late=1, votes=(1, 1, 1), por=False,
        )
        realistic = explore(MCConfig(**bounds), workers=1).to_dict()
        random_async = explore(
            MCConfig(**bounds, model="random-async"), workers=1
        ).to_dict()
        assert (
            random_async["stats"]["states_visited"]
            < realistic["stats"]["states_visited"]
        )
