"""Tests of the fixed-point DCT application."""

import numpy as np
import pytest

from repro.apps.dct import DCT_SCALE, dct_1d, dct_matrix
from repro.core.carry_model import CarryProbabilityTable
from repro.core.modified_adder import ApproximateAdderModel


class TestDctMatrix:
    def test_shape_and_dc_row(self):
        matrix = dct_matrix(8)
        assert matrix.shape == (8, 8)
        # The DC basis row is constant.
        assert len(set(matrix[0].tolist())) == 1

    def test_rows_roughly_orthogonal(self):
        matrix = dct_matrix(8).astype(float) / DCT_SCALE
        gram = matrix @ matrix.T
        off_diagonal = gram - np.diag(np.diag(gram))
        assert np.abs(off_diagonal).max() < 0.1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            dct_matrix(0)
        with pytest.raises(ValueError):
            dct_matrix(8, scale=0)


class TestDct1d:
    def test_constant_block_concentrates_energy_in_dc(self):
        block = np.full(8, 100, dtype=np.int64)
        coefficients = dct_1d(block)
        assert abs(coefficients[0]) > 10 * max(abs(coefficients[1:]).max(), 1)

    def test_matches_float_reference(self):
        rng = np.random.default_rng(0)
        block = rng.integers(0, 256, 8)
        integer_result = dct_1d(block).astype(float) / DCT_SCALE
        matrix = dct_matrix(8).astype(float) / DCT_SCALE
        float_result = matrix @ block
        assert np.allclose(integer_result, float_result, atol=2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dct_1d(np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            dct_1d(np.zeros(8, dtype=np.int64), matrix=np.zeros((4, 4), dtype=np.int64))

    def test_identity_model_matches_exact(self):
        rng = np.random.default_rng(1)
        block = rng.integers(0, 256, 8)
        model = ApproximateAdderModel(16, CarryProbabilityTable(16))
        assert np.array_equal(dct_1d(block, adder=model), dct_1d(block))

    def test_truncating_model_stays_close(self):
        counts = np.zeros((17, 17))
        for theoretical in range(17):
            counts[min(theoretical, 8), theoretical] = 1.0
        model = ApproximateAdderModel(
            16, CarryProbabilityTable.from_counts(16, counts), seed=4
        )
        rng = np.random.default_rng(2)
        block = rng.integers(0, 256, 8)
        exact = dct_1d(block)
        approx = dct_1d(block, adder=model)
        # The DC coefficient carries most energy; the approximation must keep
        # its sign and order of magnitude.
        assert np.sign(approx[0]) == np.sign(exact[0])
        assert abs(int(approx[0]) - int(exact[0])) < abs(int(exact[0]))
