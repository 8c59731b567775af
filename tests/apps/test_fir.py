"""Tests of the FIR filter application."""

import numpy as np
import pytest

from repro.apps.fir import FirFilter, low_pass_coefficients, moving_average_coefficients
from repro.apps.quality import output_snr_db
from repro.core.carry_model import CarryProbabilityTable
from repro.core.modified_adder import ApproximateAdderModel


def _truncating_model(width, limit, seed=0):
    counts = np.zeros((width + 1, width + 1))
    for theoretical in range(width + 1):
        counts[min(theoretical, limit), theoretical] = 1.0
    return ApproximateAdderModel(
        width, CarryProbabilityTable.from_counts(width, counts), seed=seed
    )


class TestCoefficients:
    def test_moving_average_all_ones(self):
        assert moving_average_coefficients(5).tolist() == [1, 1, 1, 1, 1]
        with pytest.raises(ValueError):
            moving_average_coefficients(0)

    def test_low_pass_symmetric_and_nonzero(self):
        taps = low_pass_coefficients(9, scale=32)
        assert taps.size == 9
        assert np.array_equal(taps, taps[::-1])
        assert taps[4] == taps.max()
        with pytest.raises(ValueError):
            low_pass_coefficients(0)
        with pytest.raises(ValueError):
            low_pass_coefficients(5, scale=0)


class TestExactFiltering:
    def test_moving_average_of_constant_signal(self):
        fir = FirFilter(moving_average_coefficients(4))
        output = fir.filter(np.full(20, 10))
        # After the warm-up transient the output is taps * value.
        assert np.all(output[4:] == 40)

    def test_matches_numpy_convolution(self):
        coefficients = np.array([1, 2, 3, 4])
        fir = FirFilter(coefficients)
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 100, 50)
        expected = np.convolve(samples, coefficients)[: samples.size]
        assert np.array_equal(fir.filter(samples), expected)

    def test_impulse_response_recovers_coefficients(self):
        coefficients = np.array([5, -3, 2])
        fir = FirFilter(coefficients)
        impulse = np.zeros(6, dtype=np.int64)
        impulse[0] = 1
        assert fir.filter(impulse)[:3].tolist() == [5, -3, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            FirFilter(np.array([]))
        with pytest.raises(ValueError):
            FirFilter(np.array([[1, 2]]))
        fir = FirFilter(np.array([1, 2]))
        with pytest.raises(ValueError):
            fir.filter(np.zeros((2, 2)))

    def test_frequency_response_low_pass_shape(self):
        fir = FirFilter(low_pass_coefficients(15, scale=64))
        taps = np.arange(fir.taps)
        response = [
            abs(np.sum(fir.coefficients * np.exp(-2j * np.pi * f * taps)))
            for f in (0.0, 0.5)
        ]
        assert response[0] > response[-1]


class TestApproximateFiltering:
    def test_identity_model_matches_exact(self):
        coefficients = moving_average_coefficients(4)
        exact = FirFilter(coefficients)
        approx = FirFilter(
            coefficients, adder=ApproximateAdderModel(16, CarryProbabilityTable(16))
        )
        rng = np.random.default_rng(1)
        samples = rng.integers(0, 255, 40)
        assert np.array_equal(exact.filter(samples), approx.filter(samples))

    def test_truncating_model_degrades_but_tracks_signal(self):
        coefficients = moving_average_coefficients(4)
        exact = FirFilter(coefficients)
        approx = FirFilter(coefficients, adder=_truncating_model(16, 6))
        rng = np.random.default_rng(2)
        samples = rng.integers(0, 255, 80)
        exact_output = exact.filter(samples)
        approx_output = approx.filter(samples)
        assert not np.array_equal(exact_output, approx_output)
        assert output_snr_db(exact_output, approx_output) > 3.0

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="accumulator_width"):
            FirFilter(
                moving_average_coefficients(3),
                adder=_truncating_model(16, 4),
                accumulator_width=8,
            )

    def test_negative_coefficients_supported_with_model(self):
        coefficients = np.array([2, -1, 2])
        approx = FirFilter(coefficients, adder=ApproximateAdderModel(16, CarryProbabilityTable(16)))
        samples = np.array([10, 20, 30, 40])
        expected = FirFilter(coefficients).filter(samples)
        assert np.array_equal(approx.filter(samples), expected)
