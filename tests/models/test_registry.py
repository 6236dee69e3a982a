"""The zoo registry: names, descriptions, selection, and the CLI listing."""

import json

import pytest

from repro.adversary.random_walk import RandomAdversary
from repro.adversary.standard import OnTimeAdversary
from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.models import (
    DEFAULT_MODEL,
    ENV_VAR,
    active_timing_model,
    apply_active_model,
    model_names,
    resolve_model,
    resolve_timing_model,
    set_default_timing_model,
)
from repro.models.base import RealisticModel
from repro.sim.fastcore import adversary_sweep_supported


class TestRegistry:
    def test_zoo_membership(self):
        assert set(model_names()) == {
            "realistic",
            "granular",
            "random-async",
            "round-closed",
        }

    def test_default_model_listed_first(self):
        names = model_names()
        assert names[0] == DEFAULT_MODEL
        assert list(names[1:]) == sorted(names[1:])

    def test_unknown_name_is_usage_error(self):
        with pytest.raises(ConfigurationError, match="unknown timing model"):
            resolve_model("nosuch")

    def test_realistic_is_the_reference_instance(self):
        model = resolve_model("realistic")
        assert isinstance(model, RealisticModel)
        assert model.preserves_eventual_delivery
        assert set(model.tracks) == {"sim", "runtime", "service"}

    def test_every_model_compiles_to_a_sweep_supported_adversary(self):
        # Replaces test_zoo_models_off_the_fastcore_whitelist: the
        # hand-kept ``TimingModel.fastcore_whitelisted`` flag (False for
        # the three zoo models) is gone.  Sweep support is now derived
        # from the compiled adversary's policy, and every model has it.
        plan = FaultPlan.random(n=5, t=2, seed=3, K=4)
        for name in model_names():
            model = resolve_model(name)
            assert not hasattr(model, "fastcore_whitelisted")
            assert "fastcore_whitelisted" not in model.describe()
            compiled = model.compile_plan(plan, K=4, seed=11)
            assert adversary_sweep_supported(compiled), name
            retimed = model.wrap_adversary(OnTimeAdversary(K=4), K=4, seed=11)
            assert adversary_sweep_supported(retimed), name

    def test_only_round_closed_drops_messages(self):
        droppers = [
            name
            for name in model_names()
            if not resolve_model(name).preserves_eventual_delivery
        ]
        assert droppers == ["round-closed"]

    def test_describe_is_json_ready(self):
        for name in model_names():
            doc = resolve_model(name).describe()
            json.dumps(doc)  # no exotic types
            assert doc["name"] == name
            assert doc["summary"]
            assert doc["source"]
            assert doc["tracks"]
            for knob in doc["knobs"]:
                assert set(knob) == {"name", "default", "help"}


class TestAmbientSelection:
    def test_default_is_realistic(self):
        assert resolve_timing_model() == "realistic"

    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "round-closed")
        set_default_timing_model("random-async")
        assert resolve_timing_model("granular") == "granular"

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "round-closed")
        set_default_timing_model("granular")
        assert resolve_timing_model() == "granular"

    def test_env_var_reaches_workers_by_inheritance(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "granular")
        assert resolve_timing_model() == "granular"
        assert active_timing_model().name == "granular"

    def test_unknown_default_rejected_eagerly(self):
        with pytest.raises(ConfigurationError):
            set_default_timing_model("nosuch")

    def test_realistic_apply_is_identity(self):
        adversary = RandomAdversary(seed=1)
        assert apply_active_model(adversary, K=4, seed=1) is adversary

    def test_non_cycle_adversary_rejected(self):
        set_default_timing_model("granular")
        with pytest.raises(ConfigurationError, match="cycle-based"):
            apply_active_model(RandomAdversary(seed=1), K=4, seed=1)


class TestModelsListCLI:
    def test_text_listing(self, capsys):
        assert main(["models", "list"]) == 0
        out = capsys.readouterr().out
        for name in model_names():
            assert name in out
        assert "(default)" in out
        assert "arXiv 2408.12853" in out

    def test_json_listing(self, capsys):
        assert main(["models", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in rows] == list(model_names())

    def test_unknown_model_exits_two(self, capsys):
        code = main(["run-commit", "--votes", "1,1,1", "--model", "nosuch"])
        assert code == 2
        assert "unknown timing model" in capsys.readouterr().err

    def test_model_with_non_cycle_adversary_exits_two(self, capsys):
        code = main(
            [
                "run-commit",
                "--votes",
                "1,1,1",
                "--model",
                "granular",
                "--adversary",
                "random",
            ]
        )
        assert code == 2
        assert "cycle-based" in capsys.readouterr().err

    def test_run_commit_under_model(self, capsys):
        code = main(
            ["run-commit", "--votes", "1,1,1", "--model", "granular"]
        )
        assert code == 0
        assert "decision:" in capsys.readouterr().out
