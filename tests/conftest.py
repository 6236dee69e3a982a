"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.adversary.standard import SynchronousAdversary
from repro.core.agreement import AgreementProgram
from repro.core.api import shared_coins
from repro.core.commit import CommitProgram
from repro.engine import seeds as seed_scheme
from repro.sim.scheduler import Simulation
from repro.telemetry.registry import MetricsRegistry, set_registry

# Hypothesis profiles.  ``tier1`` is the default: every property test
# draws the same examples on every run and keeps no example database,
# so the suite passes or fails the same way from any checkout.
# ``randomized`` draws fresh examples and prints how to reproduce a
# failure; select it with ``pytest --hypothesis-profile randomized``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "randomized", derandomize=False, database=None, print_blob=True
)


def pytest_configure(config):
    if not config.getoption("hypothesis_profile", None):
        settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _isolated_telemetry():
    """Give every test a fresh, disabled default telemetry registry.

    Tests (and the CLI's ``--json`` paths) may enable telemetry on the
    default registry; swapping in a throwaway keeps that state from
    leaking across tests.
    """
    previous = set_registry(MetricsRegistry(enabled=False))
    yield
    set_registry(previous)


@pytest.fixture
def simulations(monkeypatch):
    """Records every ``Simulation`` the test constructs.

    The fast core's contract tests read it: a trial the fused sweep
    takes builds none, a trial it declines builds exactly one.
    """
    built = []
    original = Simulation.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "__init__", spy)
    return built


@pytest.fixture(autouse=True)
def _isolated_tracing():
    """Keep span tracing (repro.trace) from leaking across tests."""
    from repro.trace import spans as trace_spans

    trace_spans.disable_tracing()
    yield
    trace_spans.disable_tracing()


def make_commit_simulation(
    votes,
    t=None,
    K=4,
    adversary=None,
    seed=0,
    max_steps=50_000,
    allow_sub_resilience=False,
    **program_kwargs,
):
    """Build a ready-to-run commit simulation (returns sim and programs)."""
    n = len(votes)
    if t is None:
        t = (n - 1) // 2
    programs = [
        CommitProgram(
            pid=pid,
            n=n,
            t=t,
            initial_vote=vote,
            K=K,
            allow_sub_resilience=allow_sub_resilience,
            **program_kwargs,
        )
        for pid, vote in enumerate(votes)
    ]
    if adversary is None:
        adversary = SynchronousAdversary(seed=seed)
    simulation = Simulation(
        programs=programs,
        adversary=adversary,
        K=K,
        t=t,
        seed=seed,
        max_steps=max_steps,
    )
    attach = getattr(adversary, "attach", None)
    if attach is not None:
        attach(simulation)
    return simulation, programs


def make_agreement_simulation(
    values,
    t=None,
    K=4,
    adversary=None,
    seed=0,
    coins=None,
    max_steps=50_000,
    **program_kwargs,
):
    """Build a ready-to-run agreement simulation (returns sim and programs)."""
    n = len(values)
    if t is None:
        t = (n - 1) // 2
    if coins is None:
        coins = shared_coins(
            n, seed=seed_scheme.derive(seed, seed_scheme.FIXTURE_COIN_STREAM)
        )
    programs = [
        AgreementProgram(
            pid=pid,
            n=n,
            t=t,
            initial_value=value,
            coins=coins,
            **program_kwargs,
        )
        for pid, value in enumerate(values)
    ]
    if adversary is None:
        adversary = SynchronousAdversary(seed=seed)
    simulation = Simulation(
        programs=programs,
        adversary=adversary,
        K=K,
        t=t,
        seed=seed,
        max_steps=max_steps,
    )
    attach = getattr(adversary, "attach", None)
    if attach is not None:
        attach(simulation)
    return simulation, programs


@pytest.fixture
def commit_all_ones():
    """A standard n=5 all-commit simulation under the synchronous adversary."""
    return make_commit_simulation([1, 1, 1, 1, 1])
