"""Tests (incl. property-based) of integer <-> bit-vector conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.signals import bits_to_int, int_to_bits


class TestIntToBits:
    def test_known_value_lsb_first(self):
        bits = int_to_bits(np.array([0b1011]), 4)
        assert bits.tolist() == [[True, True, False, True]]

    def test_zero_and_max(self):
        assert int_to_bits(0, 4).tolist() == [False] * 4
        assert int_to_bits(15, 4).tolist() == [True] * 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)
        with pytest.raises(ValueError):
            int_to_bits(1, 0)

    def test_batch_shape(self):
        bits = int_to_bits(np.arange(10), 5)
        assert bits.shape == (10, 5)

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_scalar(self, value):
        assert int(bits_to_int(int_to_bits(value, 16))) == value

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=50),
        st.integers(min_value=8, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_batch(self, values, width):
        array = np.array(values, dtype=np.int64)
        assert np.array_equal(bits_to_int(int_to_bits(array, width)), array)


class TestBitsToInt:
    def test_width_limit(self):
        with pytest.raises(ValueError):
            bits_to_int(np.zeros((1, 63), dtype=bool))

    def test_weights_are_powers_of_two(self):
        bits = np.eye(8, dtype=bool)
        values = bits_to_int(bits)
        assert values.tolist() == [1, 2, 4, 8, 16, 32, 64, 128]
