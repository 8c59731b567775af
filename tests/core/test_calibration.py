"""Tests of Algorithm 1 (probability-table calibration)."""

import numpy as np
import pytest

from repro.core.calibration import calibrate_probability_table
from repro.core.carry_model import carry_truncated_add, theoretical_max_carry_chain
from repro.simulation.patterns import PatternConfig, generate_patterns


@pytest.fixture(scope="module")
def training_operands():
    return generate_patterns(PatternConfig(n_vectors=3000, width=8, seed=5, kind="carry_balanced"))


class TestCalibrationOnSyntheticHardware:
    def test_exact_hardware_yields_identity_table(self, training_operands):
        in1, in2 = training_operands
        result = calibrate_probability_table(in1, in2, in1 + in2, 8, metric="mse")
        chains = np.unique(theoretical_max_carry_chain(in1, in2, 8))
        for length in chains:
            assert result.table.probability(int(length), int(length)) == pytest.approx(1.0)
        assert result.mean_best_distance == pytest.approx(0.0)

    def test_known_truncation_is_recovered(self, training_operands):
        """Hardware that truncates every chain at 3 must produce a table whose
        mass sits at min(Cth_max, 3)."""
        in1, in2 = training_operands
        faulty = carry_truncated_add(in1, in2, 8, 3)
        result = calibrate_probability_table(in1, in2, faulty, 8, metric="mse")
        for theoretical in range(4, 9):
            if result.counts[:, theoretical].sum() == 0:
                continue
            assert result.table.probability(3, theoretical) > 0.6
        for theoretical in range(0, 4):
            if result.counts[:, theoretical].sum() == 0:
                continue
            assert result.table.probability(theoretical, theoretical) > 0.9

    @pytest.mark.parametrize("metric", ["mse", "hamming", "weighted_hamming"])
    def test_all_metrics_produce_valid_tables(self, training_operands, metric):
        in1, in2 = training_operands
        faulty = carry_truncated_add(in1, in2, 8, 4)
        result = calibrate_probability_table(in1, in2, faulty, 8, metric=metric)
        columns = result.table.matrix.sum(axis=0)
        observed = result.counts.sum(axis=0) > 0
        assert np.allclose(columns[observed], 1.0)
        assert result.metric_name == metric
        assert result.n_training_vectors == in1.size

    def test_counts_total_matches_training_size(self, training_operands):
        in1, in2 = training_operands
        result = calibrate_probability_table(in1, in2, in1 + in2, 8)
        assert result.counts.sum() == pytest.approx(in1.size)

    def test_custom_metric_callable(self, training_operands):
        in1, in2 = training_operands

        def absolute_distance(reference, candidate, width):
            del width
            return np.abs(np.asarray(reference) - np.asarray(candidate)).astype(float)

        result = calibrate_probability_table(
            in1, in2, in1 + in2, 8, metric=absolute_distance
        )
        assert result.metric_name == "absolute_distance"

    def test_input_validation(self):
        with pytest.raises(ValueError, match="same shape"):
            calibrate_probability_table(np.array([1, 2]), np.array([1]), np.array([2]), 8)
        with pytest.raises(ValueError, match="empty"):
            calibrate_probability_table(np.array([]), np.array([]), np.array([]), 8)
        with pytest.raises(ValueError, match="unknown distance metric"):
            calibrate_probability_table(np.array([1]), np.array([1]), np.array([2]), 8, metric="foo")


class TestCalibrationOnCharacterizedHardware:
    def test_calibration_reduces_distance_versus_exact_model(
        self, rca8_characterization, faulty_rca8_entry
    ):
        """The calibrated model must explain the faulty hardware better than
        the exact adder does (lower mean distance)."""
        measurement = rca8_characterization.measurement_for(faulty_rca8_entry.triad)
        result = calibrate_probability_table(
            measurement.in1, measurement.in2, measurement.latched_words, 8, metric="mse"
        )
        exact_distance = float(
            np.mean((measurement.latched_words - measurement.exact_words).astype(float) ** 2)
        )
        assert result.mean_best_distance <= exact_distance

    def test_faultier_triads_shift_probability_mass_down(self, rca8_characterization):
        """A higher-BER triad must yield smaller expected realised chains."""
        faulty_entries = [e for e in rca8_characterization.results if e.ber > 0]
        mild = min(faulty_entries, key=lambda e: e.ber)
        severe = max(faulty_entries, key=lambda e: e.ber)
        expectations = {}
        for name, entry in (("mild", mild), ("severe", severe)):
            measurement = rca8_characterization.measurement_for(entry.triad)
            result = calibrate_probability_table(
                measurement.in1, measurement.in2, measurement.latched_words, 8, metric="mse"
            )
            # Expected realised chain length at the longest theoretical one
            # (an unobserved column keeps the identity, Cmax = Cth_max).
            column = result.table.matrix[:, 8]
            expectations[name] = (
                float(np.dot(np.arange(9), column)) if column.sum() else 8.0
            )
        assert expectations["severe"] <= expectations["mild"]


class TestCalibrationEdgeCases:
    def test_single_training_vector(self):
        """One vector is a legal (if degenerate) training set: the whole
        probability mass lands in its observed column."""
        in1 = np.array([0b1111])
        in2 = np.array([0b0001])
        result = calibrate_probability_table(in1, in2, in1 + in2, 4)
        theoretical = int(theoretical_max_carry_chain(in1, in2, 4)[0])
        assert result.n_training_vectors == 1
        assert result.table.probability(theoretical, theoretical) == pytest.approx(1.0)

    def test_ties_resolve_towards_the_smallest_chain(self):
        """Zero operands make every candidate chain produce the same output;
        the downward iteration with `<=` must keep the smallest C."""
        in1 = np.zeros(10, dtype=np.int64)
        in2 = np.zeros(10, dtype=np.int64)
        result = calibrate_probability_table(in1, in2, in1 + in2, 8)
        assert result.counts[0, 0] == pytest.approx(10.0)
        assert result.counts.sum() == pytest.approx(10.0)

    def test_multidimensional_inputs_are_flattened(self, training_operands):
        in1, in2 = training_operands
        shaped = (in1.reshape(50, -1), in2.reshape(50, -1))
        flat = calibrate_probability_table(in1, in2, in1 + in2, 8)
        reshaped = calibrate_probability_table(
            shaped[0], shaped[1], (in1 + in2).reshape(50, -1), 8
        )
        assert np.allclose(flat.table.matrix, reshaped.table.matrix)
        assert flat.n_training_vectors == reshaped.n_training_vectors

    def test_width_one_operands(self):
        in1 = np.array([0, 1, 1, 0])
        in2 = np.array([1, 1, 0, 0])
        result = calibrate_probability_table(in1, in2, in1 + in2, 1)
        assert result.table.width == 1
        assert result.mean_best_distance == pytest.approx(0.0)

    def test_observed_columns_are_conditional_distributions(self, training_operands):
        """Every observed Cth_max column must sum to exactly one (the
        deviation-from-paper normalisation documented in the module)."""
        in1, in2 = training_operands
        faulty = carry_truncated_add(in1, in2, 8, 2)
        result = calibrate_probability_table(in1, in2, faulty, 8, metric="hamming")
        observed = result.counts.sum(axis=0) > 0
        sums = result.table.matrix.sum(axis=0)
        assert np.allclose(sums[observed], 1.0)
        assert np.allclose(sums[~observed], 0.0)

    def test_mean_best_distance_grows_with_hardware_error(self, training_operands):
        in1, in2 = training_operands
        mild = carry_truncated_add(in1, in2, 8, 6)
        rng = np.random.default_rng(3)
        garbage = rng.integers(0, 512, in1.size)
        mild_result = calibrate_probability_table(in1, in2, mild, 8)
        garbage_result = calibrate_probability_table(in1, in2, garbage, 8)
        assert mild_result.mean_best_distance <= garbage_result.mean_best_distance
