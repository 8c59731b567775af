"""Tests (incl. property-based) of the accuracy metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    DISTANCE_METRICS,
    bit_error_rate,
    distance_metric,
    hamming_distance,
    mean_squared_error,
    normalized_hamming_distance,
    signal_to_noise_ratio_db,
    weighted_hamming_distance,
)


class TestBitErrorRate:
    def test_identical_words_give_zero(self):
        values = np.arange(100)
        assert bit_error_rate(values, values, 8) == 0.0

    def test_single_bit_flip_fraction(self):
        reference = np.zeros(10, dtype=np.int64)
        observed = reference.copy()
        observed[0] = 1  # one flipped bit out of 10 * 8
        assert bit_error_rate(reference, observed, 8) == pytest.approx(1 / 80)

    def test_all_bits_flipped(self):
        reference = np.zeros(5, dtype=np.int64)
        observed = np.full(5, 0xFF)
        assert bit_error_rate(reference, observed, 8) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bit_error_rate(np.zeros(3), np.zeros(4), 8)

    @given(st.lists(st.integers(min_value=0, max_value=511), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_bounded_and_symmetric(self, values):
        reference = np.array(values, dtype=np.int64)
        observed = np.roll(reference, 1)
        ber_ab = bit_error_rate(reference, observed, 9)
        ber_ba = bit_error_rate(observed, reference, 9)
        assert 0.0 <= ber_ab <= 1.0
        assert ber_ab == pytest.approx(ber_ba)


class TestNumericalMetrics:
    def test_mse_simple(self):
        assert mean_squared_error(np.array([0, 0]), np.array([3, 4])) == pytest.approx(12.5)

    def test_hamming_distance_counts_bits(self):
        distances = hamming_distance(np.array([0b0000]), np.array([0b1010]), 4)
        assert distances.tolist() == [2]

    def test_normalized_hamming_in_unit_interval(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 512, 100)
        b = rng.integers(0, 512, 100)
        assert 0.0 <= normalized_hamming_distance(a, b, 9) <= 1.0

    def test_weighted_hamming_msb_costs_more(self):
        reference = np.array([0])
        lsb_flip = np.array([1])
        msb_flip = np.array([256])
        lsb_cost = weighted_hamming_distance(reference, lsb_flip, 9)[0]
        msb_cost = weighted_hamming_distance(reference, msb_flip, 9)[0]
        assert msb_cost == pytest.approx(256.0)
        assert lsb_cost == pytest.approx(1.0)

    def test_weighted_hamming_custom_weights(self):
        weights = np.ones(4)
        distances = weighted_hamming_distance(np.array([0]), np.array([0b1111]), 4, weights)
        assert distances.tolist() == [4.0]
        with pytest.raises(ValueError):
            weighted_hamming_distance(np.array([0]), np.array([1]), 4, np.ones(3))


class TestSnr:
    def test_identical_signals_give_infinite_snr(self):
        values = np.arange(1, 50)
        assert signal_to_noise_ratio_db(values, values) == float("inf")

    def test_known_value(self):
        reference = np.array([10.0, 10.0, 10.0, 10.0]).astype(np.int64)
        observed = reference + np.array([1, -1, 1, -1])
        assert signal_to_noise_ratio_db(reference, observed) == pytest.approx(20.0)

    def test_zero_signal_gives_minus_infinity(self):
        assert signal_to_noise_ratio_db(np.zeros(5, dtype=np.int64), np.ones(5, dtype=np.int64)) == float("-inf")

    def test_snr_decreases_with_noise(self):
        rng = np.random.default_rng(2)
        reference = rng.integers(100, 500, 300)
        small = reference + rng.integers(-2, 3, 300)
        large = reference + rng.integers(-50, 51, 300)
        assert signal_to_noise_ratio_db(reference, small) > signal_to_noise_ratio_db(
            reference, large
        )


class TestDistanceMetricRegistry:
    def test_three_paper_metrics_registered(self):
        assert set(DISTANCE_METRICS) == {"mse", "hamming", "weighted_hamming"}

    def test_lookup_and_rejection(self):
        assert distance_metric("mse") is DISTANCE_METRICS["mse"]
        with pytest.raises(ValueError, match="unknown distance metric"):
            distance_metric("cosine")

    @pytest.mark.parametrize("name", sorted(DISTANCE_METRICS))
    def test_metrics_are_zero_for_identical_words(self, name):
        metric = distance_metric(name)
        values = np.arange(20)
        assert np.all(metric(values, values, 9) == 0.0)

    @pytest.mark.parametrize("name", sorted(DISTANCE_METRICS))
    def test_metrics_positive_for_different_words(self, name):
        metric = distance_metric(name)
        reference = np.arange(20)
        observed = reference + 1
        assert np.all(metric(reference, observed, 9) > 0.0)
