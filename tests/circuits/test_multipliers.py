"""Tests of the array multiplier generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.multipliers import array_multiplier
from repro.circuits.validation import validate_netlist
from repro.simulation.logic_sim import LogicSimulator


def _simulate_mul(multiplier, in1, in2):
    simulator = LogicSimulator(multiplier.netlist)
    return simulator.run_output_word(
        multiplier.input_assignment(in1, in2), multiplier.output_ports()
    )


class TestArrayMultiplier:
    @pytest.mark.parametrize("width", [2, 3, 4, 6])
    def test_exhaustive_small_widths(self, width):
        multiplier = array_multiplier(width)
        values = np.arange(1 << width)
        in1, in2 = np.meshgrid(values, values)
        in1, in2 = in1.ravel(), in2.ravel()
        assert np.array_equal(_simulate_mul(multiplier, in1, in2), in1 * in2)

    def test_random_8x8(self):
        multiplier = array_multiplier(8)
        rng = np.random.default_rng(17)
        in1 = rng.integers(0, 256, 300)
        in2 = rng.integers(0, 256, 300)
        assert np.array_equal(_simulate_mul(multiplier, in1, in2), in1 * in2)

    def test_rectangular_operands(self):
        multiplier = array_multiplier(6, 3)
        rng = np.random.default_rng(3)
        in1 = rng.integers(0, 64, 200)
        in2 = rng.integers(0, 8, 200)
        assert np.array_equal(_simulate_mul(multiplier, in1, in2), in1 * in2)

    @given(a=st.integers(min_value=0, max_value=15), b=st.integers(min_value=0, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_property_4x4(self, a, b):
        multiplier = array_multiplier(4)
        result = int(_simulate_mul(multiplier, np.array([a]), np.array([b]))[0])
        assert result == a * b

    def test_structure_valid_and_named(self):
        multiplier = array_multiplier(4, 6)
        validate_netlist(multiplier.netlist)
        assert multiplier.name == "mul4x6"
        assert multiplier.output_width == 10

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            array_multiplier(0)
        with pytest.raises(ValueError):
            array_multiplier(4, -1)

    @pytest.mark.parametrize(
        "width_a, width_b", [(31, 31), (1, 61), (40, 22), (61, 1)]
    )
    def test_product_at_the_word_limit_is_accepted(self, width_a, width_b):
        multiplier = array_multiplier(width_a, width_b)
        assert (multiplier.width_a, multiplier.width_b) == (width_a, width_b)

    @pytest.mark.parametrize(
        "width_a, width_b", [(31, 32), (2, 61), (32, 32), (61, 2)]
    )
    def test_product_past_the_word_limit_is_rejected(self, width_a, width_b):
        name = f"mul{width_a}x{width_b}"
        with pytest.raises(
            ValueError, match=f"{name} has a {width_a + width_b}-bit result"
        ):
            array_multiplier(width_a, width_b)

    def test_exact_words_reference(self):
        multiplier = array_multiplier(4)
        assert np.array_equal(
            multiplier.exact_words(np.array([3, 5]), np.array([7, 11])),
            np.array([21, 55]),
        )

    def test_input_assignment_shape_mismatch(self):
        multiplier = array_multiplier(4)
        with pytest.raises(ValueError, match="same shape"):
            multiplier.input_assignment(np.array([1, 2]), np.array([1]))
