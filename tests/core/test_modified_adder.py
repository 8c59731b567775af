"""Tests of the approximate adder model (run-time statistical operator)."""

import numpy as np
import pytest

from repro.core.calibration import calibrate_probability_table
from repro.core.carry_model import CarryProbabilityTable
from repro.core.metrics import bit_error_rate, signal_to_noise_ratio_db
from repro.core.modified_adder import ApproximateAdderModel


def _truncating_table(width, limit):
    counts = np.zeros((width + 1, width + 1))
    for theoretical in range(width + 1):
        counts[min(theoretical, limit), theoretical] = 1.0
    return CarryProbabilityTable.from_counts(width, counts)


class TestApproximateAdderModel:
    def test_identity_table_is_exact(self):
        model = ApproximateAdderModel(8, CarryProbabilityTable(8))
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, 1000)
        b = rng.integers(0, 256, 1000)
        assert np.array_equal(model.add(a, b), a + b)

    def test_truncating_table_injects_errors(self):
        model = ApproximateAdderModel(8, _truncating_table(8, 2), seed=1)
        rng = np.random.default_rng(1)
        a = rng.integers(0, 256, 2000)
        b = rng.integers(0, 256, 2000)
        ber = bit_error_rate(a + b, model.add(a, b), 9)
        assert 0.0 < ber < 0.5

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            ApproximateAdderModel(8, CarryProbabilityTable(4))

    def test_operand_range_enforced(self):
        model = ApproximateAdderModel(4, CarryProbabilityTable(4))
        with pytest.raises(ValueError, match="operands must lie"):
            model.add(np.array([16]), np.array([0]))
        with pytest.raises(ValueError):
            model.add(np.array([-1]), np.array([0]))

    def test_saturation_mode_clips(self):
        model = ApproximateAdderModel(4, CarryProbabilityTable(4), saturate=True)
        assert int(model.add(np.array([100]), np.array([0]))[0]) == 15

    def test_reseed_reproduces_results(self):
        table = _truncating_table(8, 3)
        model = ApproximateAdderModel(8, table, seed=42)
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, 500)
        b = rng.integers(0, 256, 500)
        first = model.add(a, b)
        model.reseed(42)
        second = model.add(a, b)
        assert np.array_equal(first, second)

    def test_accumulate_exact_with_identity_table(self):
        model = ApproximateAdderModel(8, CarryProbabilityTable(8))
        values = np.array([10, 20, 30, 40])
        assert model.accumulate(values) == 100

    def test_accumulate_wraps_at_width(self):
        model = ApproximateAdderModel(8, CarryProbabilityTable(8))
        assert model.accumulate(np.array([200, 100])) == (300) % 256

    def test_dot_product_matches_exact_for_identity_table(self):
        model = ApproximateAdderModel(16, CarryProbabilityTable(16))
        values = np.array([3, 5, 7])
        weights = np.array([2, 4, 6])
        assert model.dot(values, weights) == int(np.dot(values, weights))

    def test_dot_length_mismatch_rejected(self):
        model = ApproximateAdderModel(8, CarryProbabilityTable(8))
        with pytest.raises(ValueError, match="same length"):
            model.dot(np.array([1, 2]), np.array([1]))


class TestModelAgainstCharacterizedHardware:
    def test_model_matches_hardware_ber_within_factor(
        self, rca8_characterization, faulty_rca8_entry
    ):
        """The statistical model must reproduce the hardware BER to within a
        factor of ~2.5 at the triad it was trained on."""
        measurement = rca8_characterization.measurement_for(faulty_rca8_entry.triad)
        calibration = calibrate_probability_table(
            measurement.in1, measurement.in2, measurement.latched_words, 8, metric="mse"
        )
        model = ApproximateAdderModel(8, calibration.table, seed=5)
        model_output = model.add(measurement.in1, measurement.in2)
        model_ber = bit_error_rate(measurement.exact_words, model_output, 9)
        hardware_ber = faulty_rca8_entry.ber
        assert model_ber == pytest.approx(hardware_ber, rel=1.5, abs=0.02)

    def test_model_closer_to_hardware_than_random_flips(
        self, rca8_characterization, faulty_rca8_entry
    ):
        """At matched BER, the carry-chain model must track the hardware
        better than position-independent random bit flips (higher SNR)."""
        from repro.simulation.fault_injection import RandomBitFlipModel

        measurement = rca8_characterization.measurement_for(faulty_rca8_entry.triad)
        calibration = calibrate_probability_table(
            measurement.in1, measurement.in2, measurement.latched_words, 8, metric="mse"
        )
        model = ApproximateAdderModel(8, calibration.table, seed=6)
        model_output = model.add(measurement.in1, measurement.in2)
        random_model = RandomBitFlipModel(
            width=9, bit_error_rate=faulty_rca8_entry.ber, seed=7
        )
        random_output = random_model.apply(measurement.exact_words)
        model_snr = signal_to_noise_ratio_db(measurement.latched_words, model_output)
        random_snr = signal_to_noise_ratio_db(measurement.latched_words, random_output)
        assert model_snr > random_snr
