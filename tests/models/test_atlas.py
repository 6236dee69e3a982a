"""The degradation atlas: shape, determinism, the gate, rendering."""

import hashlib
import json

import pytest

from repro.cli import main
from repro.engine.seeds import MODEL_TIMING_STREAM, derive
from repro.errors import ConfigurationError
from repro.models import model_names, resolve_model
from repro.models.atlas import (
    ATLAS_PROTOCOLS,
    ATLAS_SCHEMA,
    AtlasConfig,
    _atlas_trial,
    _draw_plan,
    reference_protocol_safe,
    render_atlas,
    run_atlas,
    write_atlas_report,
)
from repro.sim.coreselect import set_default_sim_core
from repro.sim.fastcore import adversary_sweep_supported

SMALL = dict(n=4, t=1, trials=3, max_steps=3_000)


@pytest.fixture(scope="module")
def small_report():
    return run_atlas(AtlasConfig(**SMALL))


class TestAtlasConfig:
    def test_defaults_cover_the_full_grid(self):
        config = AtlasConfig()
        assert len(config.protocols) >= 4
        assert len(config.models) >= 4
        assert "protocol2" in config.protocols
        assert "realistic" in config.models

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            AtlasConfig(protocols=("nosuch",), **SMALL)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            AtlasConfig(models=("nosuch",), **SMALL)

    def test_fraction_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            AtlasConfig(over_budget_fraction=1.5, **SMALL)


class TestAtlasReport:
    def test_grid_shape(self, small_report):
        config = small_report["config"]
        assert small_report["schema"] == ATLAS_SCHEMA
        expected = {
            f"{protocol}/{model}"
            for protocol in config["protocols"]
            for model in config["models"]
        }
        assert set(small_report["cells"]) == expected
        for cell in small_report["cells"].values():
            assert cell["trials"] == config["trials"]
            assert 0.0 <= cell["termination_rate"] <= 1.0
            assert sum(cell["decisions"].values()) == cell["trials"]

    def test_reference_protocol_gate(self, small_report):
        assert reference_protocol_safe(small_report)
        for name, cell in small_report["cells"].items():
            if name.startswith("protocol2/"):
                assert cell["safety_violations"] == 0, name

    def test_deterministic_and_worker_independent(self, small_report):
        config = AtlasConfig(**SMALL)
        assert run_atlas(config) == small_report
        assert run_atlas(config, workers=2) == small_report

    def test_gate_fails_on_injected_violation(self, small_report):
        doctored = json.loads(json.dumps(small_report))
        doctored["cells"]["protocol2/granular"]["safety_violations"] = 1
        assert not reference_protocol_safe(doctored)

    def test_render_lists_every_cell(self, small_report):
        text = render_atlas(small_report)
        for name in small_report["cells"]:
            assert name in text
        assert "verdict: SAFE" in text

    def test_report_round_trips_through_disk(self, small_report, tmp_path):
        target = write_atlas_report(small_report, tmp_path / "atlas.json")
        assert json.loads(target.read_text()) == small_report


class TestAtlasCLI:
    def _args(self, *extra):
        return [
            "models",
            "atlas",
            "--n",
            "4",
            "--t",
            "1",
            "--trials",
            "2",
            "--max-steps",
            "2000",
            *extra,
        ]

    def test_text_output(self, capsys):
        assert main(self._args()) == 0
        out = capsys.readouterr().out
        assert "protocol degradation atlas" in out
        assert "verdict: SAFE" in out

    def test_json_output_and_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "atlas.json"
        code = main(self._args("--json", "--out", str(out_path)))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == ATLAS_SCHEMA
        assert json.loads(out_path.read_text()) == report

    def test_subset_grid(self, capsys):
        code = main(
            self._args(
                "--protocols",
                "protocol2,twopc",
                "--models",
                "realistic,round-closed",
            )
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "twopc/round-closed" in out
        assert "threepc" not in out

    def test_unknown_model_exits_two(self, capsys):
        code = main(self._args("--models", "nosuch"))
        assert code == 2
        assert "unknown timing model" in capsys.readouterr().err


class TestAtlasAcrossCores:
    """Atlas cells run on the fused sweep on the fast core, and every
    cell record equals the reference kernel's."""

    @pytest.fixture(autouse=True)
    def _clear_override(self):
        set_default_sim_core(None)
        yield
        set_default_sim_core(None)

    def test_cell_records_equal_and_fast_side_builds_no_simulation(
        self, simulations
    ):
        config = AtlasConfig(n=5, trials=1, max_steps=3_000)
        config_json = json.dumps(config.to_dict(), sort_keys=True)
        for seed in range(3):
            plan = _draw_plan(config, seed)
            for model in model_names():
                adversary = resolve_model(model).compile_plan(
                    plan, K=config.K, seed=derive(seed, MODEL_TIMING_STREAM)
                )
                assert adversary_sweep_supported(adversary), model
                for protocol in ATLAS_PROTOCOLS:
                    cell = (config_json, protocol, model, seed)
                    set_default_sim_core("reference")
                    reference = _atlas_trial(*cell)
                    set_default_sim_core("fast")
                    del simulations[:]
                    assert _atlas_trial(*cell) == reference, cell[1:]
                    assert simulations == [], cell[1:]

    #: sha256 of the report below, as written before atlas cells moved
    #: onto the sweep (when both cores built a trace for every cell).
    SMALL_REPORT_SHA256 = (
        "6ddf49f6f802077779c73d2c24655465d0e9a99fc9ce75e28c72ac12e7fd6539"
    )

    def test_cli_reports_byte_identical_across_cores(self, tmp_path, capsys):
        digests = {}
        for core in ("reference", "fast"):
            out = tmp_path / f"atlas-{core}.json"
            code = main(
                [
                    "models",
                    "atlas",
                    "--n",
                    "4",
                    "--t",
                    "1",
                    "--trials",
                    "3",
                    "--max-steps",
                    "3000",
                    "--workers",
                    "1",
                    "--sim-core",
                    core,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            digests[core] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {
            "reference": self.SMALL_REPORT_SHA256,
            "fast": self.SMALL_REPORT_SHA256,
        }
