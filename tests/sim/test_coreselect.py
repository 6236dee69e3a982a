"""Tests for the execution-core selection knobs (repro.sim.coreselect)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.coreselect import (
    CORE_NAMES,
    core_from_env,
    resolve_sim_core,
    set_default_sim_core,
)


@pytest.fixture(autouse=True)
def _clear_override():
    """Keep the process-wide --sim-core override from leaking."""
    set_default_sim_core(None)
    yield
    set_default_sim_core(None)


class TestCoreFromEnv:
    def test_unset_yields_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        assert core_from_env() == "reference"
        assert core_from_env(default="fast") == "fast"

    def test_blank_yields_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CORE", "   ")
        assert core_from_env() == "reference"

    @pytest.mark.parametrize("raw", ["fast", "FAST", "  Fast  "])
    def test_valid_values_case_insensitive(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SIM_CORE", raw)
        assert core_from_env() == "fast"

    @pytest.mark.parametrize("raw", ["turbo", "0", "reference,fast", "tru"])
    def test_unknown_value_raises_naming_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SIM_CORE", raw)
        with pytest.raises(ConfigurationError) as excinfo:
            core_from_env()
        message = str(excinfo.value)
        assert "REPRO_SIM_CORE" in message
        assert repr(raw) in message

    def test_custom_variable_name_in_error(self, monkeypatch):
        monkeypatch.setenv("OTHER_CORE", "bogus")
        with pytest.raises(ConfigurationError, match="OTHER_CORE"):
            core_from_env(name="OTHER_CORE")


class TestResolution:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        assert resolve_sim_core() == "reference"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CORE", "fast")
        assert resolve_sim_core() == "fast"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CORE", "fast")
        set_default_sim_core("reference")
        assert resolve_sim_core() == "reference"

    def test_explicit_beats_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        set_default_sim_core("reference")
        assert resolve_sim_core("fast") == "fast"

    def test_explicit_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="sim core"):
            resolve_sim_core("turbo")

    def test_override_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="sim core"):
            set_default_sim_core("turbo")

    def test_core_names_cover_both(self):
        assert CORE_NAMES == ("reference", "fast")

    def test_clearing_override_restores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CORE", "fast")
        set_default_sim_core("reference")
        set_default_sim_core(None)
        assert resolve_sim_core() == "fast"
