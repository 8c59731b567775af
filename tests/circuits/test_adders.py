"""Functional correctness and structural properties of the adder generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.adders import ADDER_GENERATORS, build_adder
from repro.circuits.validation import validate_netlist
from repro.simulation.logic_sim import LogicSimulator

ARCHITECTURES = sorted(ADDER_GENERATORS)


def _simulate_add(adder, in1, in2):
    simulator = LogicSimulator(adder.netlist)
    return simulator.run_output_word(adder.input_assignment(in1, in2), adder.output_ports())


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    @pytest.mark.parametrize("width", [4, 8])
    def test_random_vectors_match_exact_sum(self, architecture, width):
        adder = build_adder(architecture, width)
        rng = np.random.default_rng(hash((architecture, width)) % (2**32))
        in1 = rng.integers(0, 1 << width, 500)
        in2 = rng.integers(0, 1 << width, 500)
        assert np.array_equal(_simulate_add(adder, in1, in2), in1 + in2)

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_exhaustive_4bit(self, architecture):
        adder = build_adder(architecture, 4)
        values = np.arange(16)
        in1, in2 = np.meshgrid(values, values)
        in1, in2 = in1.ravel(), in2.ravel()
        assert np.array_equal(_simulate_add(adder, in1, in2), in1 + in2)

    @pytest.mark.parametrize("architecture", ["rca", "bka"])
    def test_corner_operands_16bit(self, architecture):
        adder = build_adder(architecture, 16)
        in1 = np.array([0, 0, 65535, 65535, 32768, 21845])
        in2 = np.array([0, 65535, 65535, 1, 32768, 43690])
        assert np.array_equal(_simulate_add(adder, in1, in2), in1 + in2)

    @pytest.mark.parametrize("architecture", ["rca", "bka", "ksa"])
    @given(a=st.integers(min_value=0, max_value=255), b=st.integers(min_value=0, max_value=255))
    @settings(max_examples=30, deadline=None)
    def test_property_8bit_addition(self, architecture, a, b):
        adder = build_adder(architecture, 8)
        result = int(_simulate_add(adder, np.array([a]), np.array([b]))[0])
        assert result == a + b

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_odd_width_supported(self, architecture):
        adder = build_adder(architecture, 5)
        rng = np.random.default_rng(9)
        in1 = rng.integers(0, 32, 200)
        in2 = rng.integers(0, 32, 200)
        assert np.array_equal(_simulate_add(adder, in1, in2), in1 + in2)


class TestStructure:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_netlists_are_structurally_valid(self, architecture):
        validate_netlist(build_adder(architecture, 8).netlist)

    def test_bka_is_shallower_than_rca(self):
        rca = build_adder("rca", 16).netlist
        bka = build_adder("bka", 16).netlist
        assert bka.logic_depth < rca.logic_depth

    def test_bka_has_more_gates_than_rca(self):
        rca = build_adder("rca", 16).netlist
        bka = build_adder("bka", 16).netlist
        assert bka.gate_count > rca.gate_count

    def test_ksa_has_most_gates_of_prefix_adders(self):
        bka = build_adder("bka", 16).netlist
        ksa = build_adder("ksa", 16).netlist
        assert ksa.gate_count > bka.gate_count

    def test_rca_gate_count_scales_linearly(self):
        small = build_adder("rca", 8).netlist.gate_count
        large = build_adder("rca", 16).netlist.gate_count
        assert large == 2 * small

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_port_conventions(self, architecture):
        adder = build_adder(architecture, 8)
        assert adder.output_width == 9
        assert adder.name == f"{architecture}8"
        assert adder.output_ports() == tuple(f"s{i}" for i in range(9))

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown adder architecture"):
            build_adder("nonsense", 8)

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_zero_width_rejected(self, architecture):
        with pytest.raises(ValueError):
            ADDER_GENERATORS[architecture](0)


class TestAdderCircuitWrapper:
    def test_input_assignment_drives_constants(self, rca8):
        assignment = rca8.input_assignment(np.array([3]), np.array([5]))
        assert "__const0" in assignment
        assert not assignment["__const0"][0]

    def test_input_assignment_shape_mismatch(self, rca8):
        with pytest.raises(ValueError, match="same shape"):
            rca8.input_assignment(np.array([1, 2]), np.array([1]))

    def test_exact_words_reference(self, rca8):
        in1 = np.array([10, 250])
        in2 = np.array([20, 250])
        assert np.array_equal(rca8.exact_words(in1, in2), np.array([30, 500]))


class TestSpeculativeAdder:
    def test_full_window_is_exact(self):
        from repro.circuits.adders import speculative_adder

        adder = speculative_adder(8, 8)
        rng = np.random.default_rng(31)
        in1 = rng.integers(0, 256, 400)
        in2 = rng.integers(0, 256, 400)
        assert np.array_equal(_simulate_add(adder, in1, in2), in1 + in2)

    @pytest.mark.parametrize("width,window", [(8, 4), (16, 5), (6, 3)])
    def test_window_bounds_every_carry_chain(self, width, window):
        """The result matches a bit-level model whose carry into bit i is
        computed from at most `window` lower-order positions."""
        from repro.circuits.adders import speculative_adder

        adder = speculative_adder(width, window)
        rng = np.random.default_rng(width * 31 + window)
        in1 = rng.integers(0, 1 << width, 300)
        in2 = rng.integers(0, 1 << width, 300)

        def reference(a, b):
            result = 0
            for i in range(width + 1):
                carry = 0
                for j in range(max(0, i - window), i):
                    a_j, b_j = (a >> j) & 1, (b >> j) & 1
                    carry = (a_j & b_j) | (a_j & carry) | (b_j & carry)
                if i < width:
                    result |= (((a >> i) & 1) ^ ((b >> i) & 1) ^ carry) << i
                else:
                    result |= carry << width
            return result

        expected = np.array([reference(int(a), int(b)) for a, b in zip(in1, in2)])
        assert np.array_equal(_simulate_add(adder, in1, in2), expected)

    def test_low_bits_within_window_stay_exact(self):
        from repro.circuits.adders import speculative_adder

        adder = speculative_adder(8, 4)
        rng = np.random.default_rng(17)
        in1 = rng.integers(0, 256, 500)
        in2 = rng.integers(0, 256, 500)
        got = _simulate_add(adder, in1, in2)
        mask = (1 << 4) - 1
        assert np.array_equal(got & mask, (in1 + in2) & mask)

    def test_window_shortens_the_critical_path(self):
        from repro.circuits.adders import speculative_adder
        from repro.simulation.testbench import OperatorTestbench

        windowed = OperatorTestbench(speculative_adder(16, 4)).nominal_critical_path()
        exact = OperatorTestbench(build_adder("rca", 16)).nominal_critical_path()
        assert windowed < exact

    def test_structure_and_naming(self):
        from repro.circuits.adders import SpeculativeAdderCircuit, speculative_adder

        adder = speculative_adder(8, 3)
        assert isinstance(adder, SpeculativeAdderCircuit)
        assert adder.name == "spa8w3"
        assert adder.window == 3
        validate_netlist(adder.netlist)

    def test_invalid_parameters_rejected(self):
        from repro.circuits.adders import speculative_adder

        with pytest.raises(ValueError):
            speculative_adder(0, 2)
        with pytest.raises(ValueError):
            speculative_adder(8, 0)
