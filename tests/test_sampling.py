"""Tests for the bootstrap / sequential / stratified sampling extensions."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.montecarlo import sample_statistics
from repro.stats.sampling import (
    bootstrap_confidence_interval,
    sequential_estimate,
    stratified_estimate,
)


class TestBootstrap:
    def test_interval_contains_sample_mean(self):
        rng = random.Random(1)
        observations = [rng.expovariate(1.0) for _ in range(200)]
        low, high = bootstrap_confidence_interval(observations, seed=2)
        mean = sum(observations) / len(observations)
        assert low <= mean <= high

    def test_constant_sample_gives_degenerate_interval(self):
        low, high = bootstrap_confidence_interval([3.0] * 50)
        assert low == pytest.approx(3.0)
        assert high == pytest.approx(3.0)

    def test_interval_narrows_with_more_data(self):
        rng = random.Random(3)
        small = [rng.gauss(10.0, 2.0) for _ in range(20)]
        large = small * 20
        low_s, high_s = bootstrap_confidence_interval(small, seed=0)
        low_l, high_l = bootstrap_confidence_interval(large, seed=0)
        assert (high_l - low_l) < (high_s - low_s)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([])
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([1.0], confidence_level=1.5)
        with pytest.raises(ValueError):
            bootstrap_confidence_interval([1.0], num_resamples=2)

    def test_deterministic_given_seed(self):
        observations = [float(i % 7) for i in range(60)]
        assert bootstrap_confidence_interval(observations, seed=5) == bootstrap_confidence_interval(
            observations, seed=5
        )


class TestSequential:
    def test_stops_early_on_low_variance(self):
        result = sequential_estimate(lambda i: 5.0, target_relative_error=0.05, max_samples=500)
        assert result.converged
        assert result.sample_size <= 20
        assert result.estimate.mean == pytest.approx(5.0)

    def test_hits_max_samples_on_high_variance(self):
        rng = random.Random(0)
        result = sequential_estimate(
            lambda i: rng.expovariate(0.001),
            target_relative_error=0.001,
            max_samples=100,
        )
        assert not result.converged
        assert result.sample_size == 100

    def test_min_samples_respected(self):
        result = sequential_estimate(lambda i: 1.0, min_samples=30, max_samples=100)
        assert result.sample_size >= 30

    def test_draw_receives_consecutive_indices(self):
        seen = []

        def draw(i):
            seen.append(i)
            return float(i)

        sequential_estimate(draw, target_relative_error=10.0, min_samples=5, max_samples=20)
        assert seen[: len(seen)] == list(range(len(seen)))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sequential_estimate(lambda i: 1.0, target_relative_error=0)
        with pytest.raises(ValueError):
            sequential_estimate(lambda i: 1.0, min_samples=1)
        with pytest.raises(ValueError):
            sequential_estimate(lambda i: 1.0, min_samples=10, max_samples=5)
        with pytest.raises(ValueError):
            sequential_estimate(lambda i: 1.0, batch_size=0)


class TestStratified:
    def test_equal_strata_match_plain_mean(self):
        first = [1.0, 2.0, 3.0]
        second = [4.0, 5.0, 6.0]
        combined = stratified_estimate([first, second])
        assert combined.mean == pytest.approx((2.0 + 5.0) / 2)

    def test_variance_reduction_on_separated_strata(self):
        rng = random.Random(7)
        low_stratum = [rng.gauss(10.0, 1.0) for _ in range(100)]
        high_stratum = [rng.gauss(100.0, 1.0) for _ in range(100)]
        stratified = stratified_estimate([low_stratum, high_stratum])
        plain = sample_statistics(low_stratum + high_stratum)
        assert stratified.std_error < plain.std_error

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            stratified_estimate([[1.0], [2.0]], weights=[0.3, 0.3])

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            stratified_estimate([[1.0], [2.0]], weights=[1.0])

    def test_empty_strata_rejected(self):
        with pytest.raises(ValueError):
            stratified_estimate([])

    def test_scaled_total(self):
        combined = stratified_estimate([[2.0, 2.0], [4.0, 4.0]])
        total = combined.scaled(8.0)
        assert total.mean == pytest.approx(8.0 * 3.0)


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=80),
)
def test_property_bootstrap_interval_brackets_the_mean(data):
    low, high = bootstrap_confidence_interval(data, num_resamples=200, seed=1)
    mean = sum(data) / len(data)
    assert low <= mean + 1e-6
    assert high >= mean - 1e-6


@settings(max_examples=30, deadline=None)
@given(
    first=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2, max_size=40),
    second=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2, max_size=40),
)
def test_property_stratified_mean_is_weighted_average(first, second):
    combined = stratified_estimate([first, second], weights=[0.25, 0.75])
    expected = 0.25 * (sum(first) / len(first)) + 0.75 * (sum(second) / len(second))
    assert combined.mean == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestSeedSpawnDiscipline:
    """Regression pins for the parallel-estimation seed derivation.

    The exact child-seed and sample-bit sequences are part of the scheduler's
    reproducibility contract (parallel and serial estimation must sample the
    same trajectories), so they are pinned to literal values: any change to
    the spawn discipline is a breaking change and must fail here first.
    """

    def test_child_seeds_are_pinned(self):
        from repro.stats.sampling import derive_child_seeds

        assert derive_child_seeds(0, 4) == [
            7106521602475165645,
            16422101724900707500,
            746805015404516437,
            17809683713383489082,
        ]
        assert derive_child_seeds(42, 3) == [
            2053695854357871005,
            13679192365072849617,
            4517457392071889495,
        ]

    def test_child_seed_indexing_matches_the_sequence(self):
        from repro.stats.sampling import child_seed, derive_child_seeds

        seeds = derive_child_seeds(7, 6)
        assert [child_seed(7, index) for index in range(6)] == seeds
        with pytest.raises(ValueError):
            child_seed(7, -1)

    def test_sample_bits_are_pinned(self):
        from repro.stats.sampling import derive_child_seeds, sample_bits

        bits = [sample_bits(seed, 6) for seed in derive_child_seeds(7, 3)]
        assert bits == [
            (1, 1, 0, 1, 1, 1),
            (0, 0, 1, 0, 1, 0),
            (1, 1, 1, 0, 1, 0),
        ]

    def test_random_bits_draw_what_randint_draws(self):
        # The sample (4) of every evaluation is drawn by random_bits; it must
        # consume the generator exactly as one randint(0, 1) per bit does, on
        # every Python version the package supports.  Each seed's widths draw
        # one after another from the same two generators, so a width that
        # consumed a different number of words would shift every later draw
        # and the final state.
        from repro.stats.sampling import random_bits

        for seed in range(1000):
            reference, fast = random.Random(seed), random.Random(seed)
            for width in range(1, 65):
                expected = tuple(reference.randint(0, 1) for _ in range(width))
                assert random_bits(fast, width) == expected
            assert fast.getstate() == reference.getstate()
        # An evaluation draws its whole sample at once: N rows of d bits.
        for seed in range(20):
            reference, fast = random.Random(seed), random.Random(seed)
            for width in (100 * 11, 64 * 64):
                expected = tuple(reference.randint(0, 1) for _ in range(width))
                assert random_bits(fast, width) == expected
            assert fast.getstate() == reference.getstate()

    def test_child_streams_are_independent_of_consumption_order(self):
        from repro.stats.sampling import child_rng, derive_child_seeds

        seeds = derive_child_seeds(3, 5)
        forward = [child_rng(3, index).random() for index in range(5)]
        backward = [child_rng(3, index).random() for index in reversed(range(5))]
        assert forward == list(reversed(backward))
        # And re-deriving a prefix never changes earlier children.
        assert derive_child_seeds(3, 2) == seeds[:2]

    def test_validation(self):
        from repro.stats.sampling import derive_child_seeds, sample_bits

        with pytest.raises(ValueError):
            derive_child_seeds(0, -1)
        with pytest.raises(ValueError):
            sample_bits(0, -2)

    def test_merge_many_folds_in_given_order(self):
        from repro.stats.montecarlo import OnlineStatistics, merge_many

        batches = [[1.0, 2.0], [3.0], [4.0, 5.0, 6.0]]
        accumulators = [OnlineStatistics.from_observations(batch) for batch in batches]
        merged = merge_many(accumulators)
        assert merged.count == 6
        assert merged.mean == pytest.approx(3.5)
        reference = OnlineStatistics.from_observations([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert merged.variance == pytest.approx(reference.variance, rel=1e-12)
