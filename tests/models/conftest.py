"""Shared fixtures: the ambient model selection must never leak.

``--model`` installs a process-wide default; in a test process that
would silently re-time every subsequent trial, so it is reset (and
``REPRO_TIMING_MODEL``, which is only ever read, cleared) around every
test in this package.
"""

import pytest

from repro.models import ENV_VAR, set_default_timing_model


@pytest.fixture(autouse=True)
def _reset_ambient_model(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    set_default_timing_model(None)
    yield
    set_default_timing_model(None)
