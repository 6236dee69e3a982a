"""Tests for the execution-core selection knobs (repro.sim.coreselect)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.coreselect import (
    CORE_NAMES,
    resolve_sim_core,
    set_default_sim_core,
)


@pytest.fixture(autouse=True)
def _clear_override():
    """Keep the process-wide --sim-core override from leaking."""
    set_default_sim_core(None)
    yield
    set_default_sim_core(None)


class TestResolution:
    def test_default_is_fast(self):
        assert resolve_sim_core() == "fast"

    def test_override_beats_default(self):
        set_default_sim_core("reference")
        assert resolve_sim_core() == "reference"

    def test_explicit_beats_override(self):
        set_default_sim_core("reference")
        assert resolve_sim_core("fast") == "fast"
        set_default_sim_core("fast")
        assert resolve_sim_core("reference") == "reference"

    def test_explicit_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="sim core"):
            resolve_sim_core("turbo")

    def test_override_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="sim core"):
            set_default_sim_core("turbo")

    def test_core_names_cover_both(self):
        assert CORE_NAMES == ("reference", "fast")

    def test_clearing_override_restores_default(self):
        set_default_sim_core("reference")
        set_default_sim_core(None)
        assert resolve_sim_core() == "fast"
