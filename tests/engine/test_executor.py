"""Tests for the batch trial-execution engine."""

from __future__ import annotations

import os
import pickle
from functools import partial

import pytest

from repro.adversary.standard import OnTimeAdversary
from repro.analysis.montecarlo import CommitTrialConfig, run_commit_batch
from repro.cli.common import _install_sim_core, _install_timing_model
from repro.engine.executor import (
    TrialEngine,
    default_workers,
    resolve_workers,
    run_trials,
    set_default_workers,
    workers_from_env,
)
from repro.engine.spec import SeededFactory, chunk_seeds
from repro.errors import ConfigurationError
from repro.models import resolve_timing_model, set_default_timing_model
from repro.sim.coreselect import resolve_sim_core, set_default_sim_core
from repro.telemetry.registry import MetricsRegistry, count, use_registry


def _square(seed: int, offset: int = 0) -> int:
    return seed * seed + offset


def _marked(seed: int) -> int:
    count("engine_test_marks_total", help="trial marker")
    return seed + 1


def _ambient_selection(seed: int) -> tuple[str, str]:
    return resolve_sim_core(), resolve_timing_model()


class TestChunkSeeds:
    def test_concatenation_reproduces_seeds(self):
        seeds = tuple(range(17))
        chunks = chunk_seeds(seeds, 5)
        assert tuple(s for chunk in chunks for s in chunk) == seeds

    def test_chunks_are_contiguous_and_balanced(self):
        chunks = chunk_seeds(tuple(range(17)), 5)
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        for chunk in chunks:
            assert chunk == tuple(range(chunk[0], chunk[0] + len(chunk)))

    def test_more_chunks_than_seeds(self):
        assert chunk_seeds((3, 4), 8) == [(3,), (4,)]

    def test_empty_seed_list(self):
        assert chunk_seeds((), 4) == []

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            chunk_seeds((1, 2), 0)


class TestTrialEngine:
    def test_parallel_matches_serial(self):
        trial = partial(_square, offset=7)
        serial = TrialEngine(workers=1).map(trial, range(23))
        parallel = TrialEngine(workers=4).map(trial, range(23))
        assert serial == parallel == [s * s + 7 for s in range(23)]

    def test_empty_batch(self):
        assert TrialEngine(workers=4).map(_square, ()) == []

    def test_single_seed_stays_in_process(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            results = TrialEngine(workers=4).map(_square, [6])
        assert results == [36]
        assert registry.counter("engine_trials_total").value(mode="parallel") == 0

    def test_unpicklable_trial_falls_back_to_serial(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            results = TrialEngine(workers=4).map(lambda s: s * 2, range(8))
        assert results == [s * 2 for s in range(8)]
        fallbacks = registry.counter("engine_fallbacks_total")
        assert fallbacks.value(reason="unpicklable") == 1
        assert registry.counter("engine_trials_total").value(mode="parallel") == 0

    def test_worker_telemetry_merges_into_parent(self):
        registry = MetricsRegistry(enabled=True)
        with use_registry(registry):
            results = TrialEngine(workers=2).map(_marked, range(10))
        assert results == [s + 1 for s in range(10)]
        assert registry.counter("engine_test_marks_total").value() == 10
        assert registry.counter("engine_trials_total").value(mode="parallel") == 10
        assert registry.counter("engine_chunks_total").value() > 0


class TestSelectionsTravelInThePayload:
    """The parent's resolved sim core and timing model reach workers in
    the chunk payload; nothing is written to ``os.environ``."""

    @pytest.fixture(autouse=True)
    def _clean_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIMING_MODEL", raising=False)
        yield
        set_default_sim_core(None)
        set_default_timing_model(None)

    def test_workers_see_the_parents_selection(self):
        engine = TrialEngine(workers=2)
        assert set(engine.map(_ambient_selection, range(8))) == {
            ("fast", "realistic")
        }
        set_default_sim_core("reference")
        set_default_timing_model("granular")
        # The same pooled workers now run the new selection ...
        assert set(engine.map(_ambient_selection, range(8))) == {
            ("reference", "granular")
        }
        set_default_sim_core(None)
        set_default_timing_model(None)
        # ... and drop it again when the parent does.
        assert set(engine.map(_ambient_selection, range(8))) == {
            ("fast", "realistic")
        }

    def test_fast_granular_batch_is_worker_count_invariant(self):
        config = CommitTrialConfig(
            votes=[1] * 5, adversary_factory=SeededFactory.of(OnTimeAdversary, K=4)
        )
        realistic = run_commit_batch(config, 12, workers=2).metrics
        # What `--sim-core fast --model granular` do, and all they do.
        _install_sim_core("fast")
        _install_timing_model("granular")
        assert "REPRO_TIMING_MODEL" not in os.environ
        serial = run_commit_batch(config, 12, workers=1).metrics
        assert run_commit_batch(config, 12, workers=2).metrics == serial
        # The model really reached the workers: it re-times the trials.
        assert serial != realistic
        set_default_timing_model(None)
        assert run_commit_batch(config, 12, workers=2).metrics == realistic


class TestRunTrials:
    def test_consecutive_seeds_from_base(self):
        assert run_trials(_square, trials=4, base_seed=10) == [100, 121, 144, 169]

    def test_explicit_seeds_preserve_order(self):
        assert run_trials(_square, seeds=[5, 3, 9]) == [25, 9, 81]

    def test_requires_exactly_one_seed_source(self):
        with pytest.raises(ConfigurationError):
            run_trials(_square)
        with pytest.raises(ConfigurationError):
            run_trials(_square, trials=2, seeds=[1])

    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError):
            run_trials(_square, trials=0)


class TestWorkerResolution:
    def test_none_resolves_serial_by_default(self):
        assert resolve_workers(None) == 1

    def test_default_override_round_trip(self):
        set_default_workers(3)
        try:
            assert resolve_workers(None) == 3
        finally:
            set_default_workers(None)
        assert resolve_workers(None) == 1

    def test_explicit_count_wins(self):
        set_default_workers(3)
        try:
            assert resolve_workers(2) == 2
        finally:
            set_default_workers(None)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)
        with pytest.raises(ConfigurationError):
            set_default_workers(0)

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6
        monkeypatch.setenv("REPRO_WORKERS", "zebra")
        with pytest.raises(ConfigurationError):
            default_workers()


class TestWorkersFromEnv:
    """Strict parsing of worker-count environment variables.

    Zero and negative counts are configuration typos, not requests for
    serial execution; they must be rejected loudly instead of clamped.
    """

    def test_unset_and_blank_fall_back_to_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env("REPRO_WORKERS", 4) == 4
        for blank in ("", "   ", "\t"):
            monkeypatch.setenv("REPRO_WORKERS", blank)
            assert workers_from_env("REPRO_WORKERS", 4) == 4

    def test_whitespace_padded_integer_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", " 3 ")
        assert workers_from_env("REPRO_WORKERS", 1) == 3

    @pytest.mark.parametrize("raw", ["0", "-1", "-8"])
    def test_zero_and_negative_rejected(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(ConfigurationError, match="REPRO_WORKERS"):
            workers_from_env("REPRO_WORKERS", 1)

    @pytest.mark.parametrize("raw", ["zebra", "2.5", "1e3", "two"])
    def test_non_integer_rejected_naming_the_variable(
        self, raw, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.raises(
            ConfigurationError, match="REPRO_WORKERS.*integer"
        ):
            workers_from_env("REPRO_WORKERS", 1)

    def test_bench_workers_use_the_same_parser(self, monkeypatch):
        # benchmarks/conftest.py resolves REPRO_BENCH_WORKERS through
        # this exact helper, so the strictness applies to both paths.
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")
        with pytest.raises(
            ConfigurationError, match="REPRO_BENCH_WORKERS"
        ):
            workers_from_env("REPRO_BENCH_WORKERS", 1)
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "2")
        assert workers_from_env("REPRO_BENCH_WORKERS", 1) == 2
        monkeypatch.delenv("REPRO_BENCH_WORKERS")
        assert workers_from_env("REPRO_BENCH_WORKERS", 1) == 1


class TestSeededFactory:
    def test_builds_target_with_seed(self):
        factory = SeededFactory.of(OnTimeAdversary, K=4)
        adversary = factory(17)
        assert isinstance(adversary, OnTimeAdversary)

    def test_pickle_round_trip(self):
        factory = SeededFactory.of(OnTimeAdversary, K=4)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert isinstance(clone(3), OnTimeAdversary)
