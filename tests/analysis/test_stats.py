"""Tests for the statistics helpers."""

import logging
import sys

import pytest

from repro.analysis import stats
from repro.analysis.stats import proportion, summarize
from repro.errors import InsufficientDataError
from repro.telemetry.registry import MetricsRegistry, use_registry


class TestSummarize:
    def test_rejects_empty(self):
        with pytest.raises(InsufficientDataError):
            summarize([])

    def test_single_sample(self):
        summary = summarize([5.0])
        assert summary.mean == 5.0
        assert summary.stdev == 0.0
        assert summary.ci_low == summary.ci_high == 5.0

    def test_basic_statistics(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.mean == 3.0
        assert summary.minimum == 1
        assert summary.maximum == 5
        assert summary.count == 5

    def test_ci_contains_mean(self):
        summary = summarize([1, 2, 3, 4, 5, 6, 7, 8])
        assert summary.ci_low <= summary.mean <= summary.ci_high
        assert summary.ci_high > summary.mean  # nonzero spread

    def test_ci_narrows_with_samples(self):
        small = summarize([1, 2] * 5)
        large = summarize([1, 2] * 500)
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            summarize([1.0], confidence=1.5)

    def test_identical_samples_have_zero_width(self):
        summary = summarize([7.0] * 20)
        assert summary.ci_low == summary.ci_high == 7.0

    def test_str_rendering(self):
        text = str(summarize([1, 2, 3]))
        assert "n=3" in text


class TestProportion:
    def test_basic(self):
        assert proportion(3, 4) == 0.75

    def test_zero_trials_rejected(self):
        with pytest.raises(InsufficientDataError):
            proportion(0, 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            proportion(5, 4)
        with pytest.raises(ValueError):
            proportion(-1, 4)


@pytest.fixture
def unresolved():
    """A process that has not looked for scipy yet."""
    stats._student_t.cache_clear()
    yield
    stats._student_t.cache_clear()


class TestTQuantile:
    def test_with_scipy_it_is_scipys_float(self, unresolved):
        scipy_stats = pytest.importorskip("scipy.stats")
        for confidence, dof in ((0.95, 1), (0.95, 4), (0.99, 29), (0.9, 1000)):
            expected = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
            assert stats._t_quantile(confidence, dof) == expected

    def test_without_scipy_the_fallback_is_counted_and_warned_once(
        self, unresolved, monkeypatch, caplog
    ):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.stats", None)
        caplog.set_level(logging.WARNING, logger="repro.analysis")
        registry = MetricsRegistry()
        with use_registry(registry):
            quantiles = [stats._t_quantile(0.95, 4) for _ in range(3)]
            summarize([1.0, 2.0, 4.0, 8.0, 16.0])
        # The normal quantile, not Student-t's 2.776 at 4 degrees of freedom.
        assert quantiles == [pytest.approx(1.959964, abs=1e-6)] * 3
        assert stats._student_t.cache_info().misses == 1  # not once per call
        counter = registry.counter("analysis_t_quantile_fallbacks_total")
        assert counter.value() == 4
        warned = [r for r in caplog.records if "scipy" in r.getMessage()]
        assert len(warned) == 1 and warned[0].levelno == logging.WARNING

    def test_a_summary_without_spread_never_looks_for_scipy(self, unresolved):
        summarize([3.0] * 5)
        summarize([9.0])
        assert stats._student_t.cache_info().currsize == 0
