"""Tests for the Monte Carlo statistics module."""

from __future__ import annotations

import math
import random

import pytest

from repro.stats.montecarlo import (
    confidence_interval,
    estimate_mean,
    normal_cdf,
    normal_quantile,
    required_sample_size,
    sample_statistics,
)


class TestNormalDistribution:
    def test_cdf_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.0) + normal_cdf(-1.0) == pytest.approx(1.0)

    def test_cdf_known_value(self):
        assert normal_cdf(1.96) == pytest.approx(0.975, abs=1e-3)

    def test_quantile_inverts_cdf(self):
        for p in (0.01, 0.1, 0.5, 0.9, 0.975, 0.999):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-6)

    def test_quantile_known_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.95996, abs=1e-4)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


class TestSampleStatistics:
    def test_mean_and_variance(self):
        est = sample_statistics([1.0, 2.0, 3.0, 4.0])
        assert est.mean == pytest.approx(2.5)
        assert est.variance == pytest.approx(5.0 / 3.0)

    def test_single_observation(self):
        est = sample_statistics([7.0])
        assert est.mean == 7.0
        assert est.variance == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            sample_statistics([])

    def test_estimate_mean_helper(self):
        assert estimate_mean([2.0, 4.0]) == pytest.approx(3.0)

    def test_interval_contains_mean(self):
        low, high = confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert low <= 3.0 <= high

    def test_interval_narrows_with_sample_size(self):
        rng = random.Random(0)
        small = sample_statistics([rng.gauss(10, 2) for _ in range(20)])
        large = sample_statistics([rng.gauss(10, 2) for _ in range(2000)])
        assert large.half_width < small.half_width

    def test_constant_sample_has_zero_width(self):
        est = sample_statistics([5.0] * 10)
        assert est.half_width == 0.0
        assert est.relative_error == 0.0

    def test_relative_error_infinite_for_zero_mean(self):
        est = sample_statistics([-1.0, 1.0])
        assert est.relative_error == float("inf")

    def test_std_error(self):
        est = sample_statistics([1.0, 3.0, 5.0, 7.0])
        assert est.std_error == pytest.approx(est.std_dev / 2.0)


class TestScaling:
    def test_scaled_estimate(self):
        est = sample_statistics([1.0, 2.0, 3.0])
        scaled = est.scaled(8.0)
        assert scaled.mean == pytest.approx(est.mean * 8)
        assert scaled.std_dev == pytest.approx(est.std_dev * 8)
        assert scaled.half_width == pytest.approx(est.half_width * 8)

    def test_clt_coverage_on_synthetic_data(self):
        # The 95% interval should contain the true mean in roughly 95% of repetitions.
        rng = random.Random(42)
        true_mean = 5.0
        hits = 0
        repetitions = 200
        for _ in range(repetitions):
            sample = [rng.expovariate(1.0 / true_mean) for _ in range(100)]
            low, high = sample_statistics(sample).interval
            if low <= true_mean <= high:
                hits += 1
        assert hits / repetitions > 0.88


class TestRequiredSampleSize:
    def test_formula(self):
        n = required_sample_size(std_dev=2.0, absolute_error=0.5, confidence_level=0.95)
        expected = math.ceil((1.959964 * 2.0 / 0.5) ** 2)
        assert n == expected

    def test_zero_variance_needs_one_sample(self):
        assert required_sample_size(0.0, 0.1) == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            required_sample_size(1.0, 0.0)
        with pytest.raises(ValueError):
            required_sample_size(-1.0, 0.5)

    def test_tighter_error_needs_more_samples(self):
        loose = required_sample_size(1.0, 0.2)
        tight = required_sample_size(1.0, 0.02)
        assert tight > loose
