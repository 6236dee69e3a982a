"""Tests for delay models."""

import random

import pytest

from repro.service.bus import FixedDelay, SpikeDelay, UniformDelay


class TestFixedDelay:
    def test_constant(self):
        model = FixedDelay(seconds=0.01)
        rng = random.Random(0)
        assert all(model.sample(rng) == 0.01 for _ in range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedDelay(seconds=-1)


class TestUniformDelay:
    def test_range(self):
        model = UniformDelay(low=0.001, high=0.002)
        rng = random.Random(1)
        for _ in range(100):
            assert 0.001 <= model.sample(rng) <= 0.002

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformDelay(low=0.5, high=0.1)


class TestSpikeDelay:
    def test_mixture(self):
        model = SpikeDelay(
            base_seconds=0.001, late_seconds=0.1, late_probability=0.5
        )
        rng = random.Random(3)
        samples = {model.sample(rng) for _ in range(200)}
        assert samples == {0.001, 0.1}

    def test_zero_probability_never_spikes(self):
        model = SpikeDelay(late_probability=0.0)
        rng = random.Random(4)
        assert all(
            model.sample(rng) == model.base_seconds for _ in range(50)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            SpikeDelay(late_probability=1.5)
        with pytest.raises(ValueError):
            SpikeDelay(base_seconds=0.2, late_seconds=0.1)
