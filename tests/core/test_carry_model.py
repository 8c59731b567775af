"""Tests (incl. property-based) of the carry-chain model and Table I."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.carry_model import (
    CarryProbabilityTable,
    carry_truncated_add,
    generate_propagate,
    theoretical_max_carry_chain,
)


class TestGeneratePropagate:
    def test_known_pattern(self):
        generate, propagate = generate_propagate(np.array([0b1100]), np.array([0b1010]), 4)
        assert generate[0].tolist() == [False, False, False, True]
        assert propagate[0].tolist() == [False, True, True, False]


class TestTheoreticalMaxCarryChain:
    def test_no_carry_anywhere(self):
        assert int(theoretical_max_carry_chain(np.array([0b0101]), np.array([0b1010]), 4)[0]) == 0

    def test_single_generate_without_propagation(self):
        assert int(theoretical_max_carry_chain(np.array([0b0001]), np.array([0b0001]), 4)[0]) == 1

    def test_full_length_chain(self):
        # 1 + 0b1111... : generate at bit 0 propagates through every bit.
        width = 8
        assert int(theoretical_max_carry_chain(np.array([1]), np.array([255]), width)[0]) == width

    def test_chain_interrupted_by_kill(self):
        # generate at bit 0, propagate at bit 1, kill at bit 2, generate at bit 3
        in1 = np.array([0b1001])
        in2 = np.array([0b1011])
        assert int(theoretical_max_carry_chain(in1, in2, 4)[0]) == 2

    def test_batch_shape_preserved(self):
        in1 = np.arange(16).reshape(4, 4)
        in2 = np.arange(16).reshape(4, 4)
        chains = theoretical_max_carry_chain(in1, in2, 5)
        assert chains.shape == (4, 4)

    @given(
        st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255)
    )
    @settings(max_examples=100, deadline=None)
    def test_property_bounds(self, a, b):
        chain = int(theoretical_max_carry_chain(np.array([a]), np.array([b]), 8)[0])
        assert 0 <= chain <= 8


class TestCarryTruncatedAdd:
    def test_full_budget_is_exact(self):
        rng = np.random.default_rng(0)
        in1 = rng.integers(0, 256, 500)
        in2 = rng.integers(0, 256, 500)
        assert np.array_equal(carry_truncated_add(in1, in2, 8, 8), in1 + in2)

    def test_zero_budget_is_xor(self):
        rng = np.random.default_rng(1)
        in1 = rng.integers(0, 256, 500)
        in2 = rng.integers(0, 256, 500)
        assert np.array_equal(carry_truncated_add(in1, in2, 8, 0), in1 ^ in2)

    def test_budget_at_theoretical_chain_is_exact(self):
        rng = np.random.default_rng(2)
        in1 = rng.integers(0, 65536, 300)
        in2 = rng.integers(0, 65536, 300)
        chains = theoretical_max_carry_chain(in1, in2, 16)
        assert np.array_equal(carry_truncated_add(in1, in2, 16, chains), in1 + in2)

    def test_truncation_drops_long_chain(self):
        # 1 + 255 needs the full 8-long chain; limiting it to 3 keeps only the
        # first three sum bits of the carry propagation.
        result = int(carry_truncated_add(np.array([1]), np.array([255]), 8, 3)[0])
        assert result != 256
        assert result < 256

    def test_per_vector_budgets(self):
        in1 = np.array([1, 1])
        in2 = np.array([255, 255])
        results = carry_truncated_add(in1, in2, 8, np.array([8, 0]))
        assert results[0] == 256
        assert results[1] == 254  # XOR of 1 and 255

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            carry_truncated_add(np.array([1]), np.array([1]), 4, 5)
        with pytest.raises(ValueError):
            carry_truncated_add(np.array([1]), np.array([1]), 4, -1)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            carry_truncated_add(np.array([1, 2]), np.array([1]), 4, 2)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_monotone_convergence(self, a, b, budget):
        """More carry budget never moves the result further from exact."""
        exact = a + b
        truncated = int(carry_truncated_add(np.array([a]), np.array([b]), 8, budget)[0])
        larger = int(carry_truncated_add(np.array([a]), np.array([b]), 8, min(budget + 1, 8))[0])
        chain = int(theoretical_max_carry_chain(np.array([a]), np.array([b]), 8)[0])
        if budget >= chain:
            assert truncated == exact
        # The result is always representable in width + 1 bits.
        assert 0 <= truncated < 512
        assert 0 <= larger < 512

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=100, deadline=None)
    def test_property_truncated_never_exceeds_exact(self, a, b):
        """Dropping carries can only lose value, never add it."""
        for budget in range(9):
            truncated = int(carry_truncated_add(np.array([a]), np.array([b]), 8, budget)[0])
            assert truncated <= a + b


class TestCarryProbabilityTable:
    def test_default_table_is_identity(self):
        table = CarryProbabilityTable(4)
        for length in range(5):
            assert table.probability(length, length) == pytest.approx(1.0)

    def test_invalid_shapes_and_values_rejected(self):
        with pytest.raises(ValueError):
            CarryProbabilityTable(0)
        with pytest.raises(ValueError):
            CarryProbabilityTable(4, np.ones((3, 3)))
        bad = np.eye(5)
        bad[0, 0] = -0.5
        with pytest.raises(ValueError):
            CarryProbabilityTable(4, bad)

    def test_lower_triangle_constraint_enforced(self):
        # P(Cmax=3 | Cth_max=1) must be zero: the realised chain cannot be
        # longer than the theoretical one.
        matrix = np.eye(5)
        matrix[3, 1] = 0.5
        matrix[1, 1] = 0.5
        with pytest.raises(ValueError, match="zero for k > l"):
            CarryProbabilityTable(4, matrix)

    def test_columns_must_sum_to_one_or_zero(self):
        matrix = np.eye(5)
        matrix[0, 2] = 0.7  # column 2 now sums to 1.7
        with pytest.raises(ValueError, match="sum to 1"):
            CarryProbabilityTable(4, matrix)

    def test_from_counts_normalises_columns(self):
        counts = np.zeros((5, 5))
        counts[2, 3] = 30
        counts[3, 3] = 10
        counts[0, 0] = 5
        table = CarryProbabilityTable.from_counts(4, counts)
        assert table.probability(2, 3) == pytest.approx(0.75)
        assert table.probability(3, 3) == pytest.approx(0.25)
        assert table.probability(0, 0) == pytest.approx(1.0)

    def test_sampling_respects_distribution(self):
        counts = np.zeros((5, 5))
        counts[1, 4] = 80
        counts[4, 4] = 20
        table = CarryProbabilityTable.from_counts(4, counts)
        rng = np.random.default_rng(11)
        samples = table.sample(np.full(20000, 4), rng)
        assert set(np.unique(samples)) == {1, 4}
        assert np.mean(samples == 1) == pytest.approx(0.8, abs=0.02)

    def test_sampling_unobserved_column_falls_back_to_identity(self):
        counts = np.zeros((5, 5))
        counts[0, 0] = 1
        table = CarryProbabilityTable.from_counts(4, counts)
        rng = np.random.default_rng(3)
        samples = table.sample(np.array([3, 2]), rng)
        assert samples.tolist() == [3, 2]

    def test_sampling_rejects_out_of_range(self):
        table = CarryProbabilityTable(4)
        with pytest.raises(ValueError):
            table.sample(np.array([5]), np.random.default_rng(0))

    def test_equality_and_repr(self):
        assert CarryProbabilityTable(4) == CarryProbabilityTable(4)
        assert CarryProbabilityTable(4) != CarryProbabilityTable(5)
        assert "width=4" in repr(CarryProbabilityTable(4))

    def test_matrix_returns_copy(self):
        table = CarryProbabilityTable(4)
        matrix = table.matrix
        matrix[0, 0] = 0.0
        assert table.probability(0, 0) == pytest.approx(1.0)
