"""Property-based differential tests: netlists vs Python integer arithmetic.

Every operator netlist in the registries is swept with seeded-random operand
batches and compared against a pure-Python reference computed with integer
arithmetic -- the exact sum for the plain adders and the array multiplier,
and a windowed-carry functional model for the speculative ``spa<w>w<k>``
family.  A second family of properties asserts the packed compiled engine
agrees bit for bit with the per-gate oracle ``reference.vos_run`` on
circuits whose timing was shifted to a process corner or by sampled
per-gate variation -- the configurations the variation subsystem simulates.
"""

import zlib

import numpy as np
import pytest

from repro.circuits.adders import ADDER_GENERATORS, build_adder, speculative_adder
from repro.circuits.multipliers import array_multiplier
from repro.circuits.signals import bits_to_int
from repro.simulation import engine
from repro.simulation.timing_sim import VosTimingSimulator
from repro.technology.corners import (
    GateVariationModel,
    ProcessCorner,
    corner_library,
    variation_delay_multipliers,
)
from repro.variation.sampler import VariationSampler

from _arrivals import arrival_rows
import _reference as oracle

ARCHITECTURES = sorted(ADDER_GENERATORS)

#: Speculative configurations spanning exact (window >= longest chains hit)
#: and deliberately error-floored operating points.
SPECULATIVE_CONFIGS = [(8, 2), (8, 4), (16, 4), (16, 8), (32, 8)]


def _operands(width: int, n_vectors: int, seed: int):
    rng = np.random.default_rng(seed)
    high = 1 << width
    in1 = rng.integers(0, high, n_vectors, dtype=np.int64)
    in2 = rng.integers(0, high, n_vectors, dtype=np.int64)
    return in1, in2


def _simulate_word(circuit, in1, in2):
    bound = engine.bind_inputs(circuit.netlist, circuit.input_assignment(in1, in2))
    values = engine.evaluate_values(circuit.netlist, bound)
    ports = circuit.netlist.primary_outputs
    return bits_to_int(values[[ports[port] for port in circuit.output_ports()]].T)


def _speculative_reference(in1, in2, width, window):
    """Windowed-carry functional model of :func:`speculative_adder`.

    The carry into bit ``i`` is rippled from ``max(0, i - window)`` with a
    zero carry-in -- the same look-back the netlist builds structurally.
    """
    out = np.zeros(in1.shape, dtype=np.int64)
    for index in range(in1.size):
        a, b = int(in1[index]), int(in2[index])
        a_bits = [(a >> i) & 1 for i in range(width)]
        b_bits = [(b >> i) & 1 for i in range(width)]

        def carry_into(position):
            carry = 0
            for bit in range(max(0, position - window), position):
                generate = a_bits[bit] & b_bits[bit]
                propagate = a_bits[bit] ^ b_bits[bit]
                carry = generate | (propagate & carry)
            return carry

        word = 0
        for i in range(width):
            word |= (a_bits[i] ^ b_bits[i] ^ carry_into(i)) << i
        word |= carry_into(width) << width
        out[index] = word
    return out


class TestAdderDifferential:
    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    @pytest.mark.parametrize("width", [8, 16])
    def test_every_architecture_matches_int_arithmetic(self, architecture, width):
        adder = build_adder(architecture, width)
        in1, in2 = _operands(width, 600, seed=zlib.crc32(f"{architecture}{width}".encode()))
        assert np.array_equal(_simulate_word(adder, in1, in2), in1 + in2)

    @pytest.mark.parametrize("architecture", ["rca", "bka", "ksa"])
    def test_wide_operands_match_int_arithmetic(self, architecture):
        adder = build_adder(architecture, 32)
        in1, in2 = _operands(32, 300, seed=zlib.crc32(architecture.encode()))
        assert np.array_equal(_simulate_word(adder, in1, in2), in1 + in2)

    def test_extreme_operands_match_int_arithmetic(self):
        for architecture in ARCHITECTURES:
            adder = build_adder(architecture, 16)
            full = (1 << 16) - 1
            in1 = np.array([0, 0, full, full, 1 << 15, 0x5555], dtype=np.int64)
            in2 = np.array([0, full, full, 1, 1 << 15, 0xAAAA], dtype=np.int64)
            assert np.array_equal(_simulate_word(adder, in1, in2), in1 + in2)


class TestSpeculativeDifferential:
    @pytest.mark.parametrize("width,window", SPECULATIVE_CONFIGS)
    def test_speculative_family_matches_windowed_model(self, width, window):
        adder = speculative_adder(width, window)
        in1, in2 = _operands(width, 400, seed=zlib.crc32(f"spa{width}w{window}".encode()))
        expected = _speculative_reference(in1, in2, width, window)
        assert np.array_equal(_simulate_word(adder, in1, in2), expected)

    @pytest.mark.parametrize("width,window", [(8, 2), (16, 4)])
    def test_speculative_exact_when_chains_fit_window(self, width, window):
        adder = speculative_adder(width, window)
        in1, in2 = _operands(width, 400, seed=99)
        expected = _speculative_reference(in1, in2, width, window)
        exact = in1 + in2
        matches = expected == exact
        # Uniform operands keep most carry chains short: the model must agree
        # with plain integer addition exactly on those vectors.
        assert matches.any()
        simulated = _simulate_word(adder, in1, in2)
        assert np.array_equal(simulated[matches], exact[matches])

    def test_full_window_is_functionally_exact(self):
        adder = speculative_adder(8, 7)
        in1, in2 = _operands(8, 300, seed=4)
        assert np.array_equal(_simulate_word(adder, in1, in2), in1 + in2)


class TestMultiplierDifferential:
    @pytest.mark.parametrize("width", [4, 8])
    def test_array_multiplier_matches_int_arithmetic(self, width):
        multiplier = array_multiplier(width, width)
        in1, in2 = _operands(width, 400, seed=width)
        word = _simulate_word(multiplier, in1, in2)
        assert np.array_equal(word, in1 * in2)


class TestShiftedTimingParity:
    """Packed engine vs the per-gate oracle on corner/variation-shifted timing."""

    @pytest.mark.parametrize("corner", list(ProcessCorner))
    def test_engine_matches_reference_at_every_corner(self, corner):
        adder = build_adder("rca", 8)
        library = corner_library(corner)
        simulator = VosTimingSimulator(
            adder.netlist, output_ports=adder.output_ports(), library=library
        )
        in1, in2 = _operands(8, 500, seed=zlib.crc32(corner.value.encode()))
        assignment = adder.input_assignment(in1, in2)
        tclk = simulator.annotation(1.0, 0.0).critical_path_delay * 0.6
        engine_result = simulator.run(assignment, tclk=tclk, vdd=0.55, vbb=0.0)
        reference = oracle.vos_run(simulator, assignment, tclk=tclk, vdd=0.55, vbb=0.0)
        assert np.array_equal(engine_result.latched_bits, reference.latched_bits)
        assert np.array_equal(engine_result.arrival_times, reference.arrival_times)
        assert np.array_equal(engine_result.dynamic_energy, reference.dynamic_energy)

    def test_variation_batch_matches_per_instance_reference(self):
        """Batched variation counts and arrivals == one oracle run per instance."""
        adder = build_adder("bka", 8)
        simulator = VosTimingSimulator(
            adder.netlist, output_ports=adder.output_ports()
        )
        in1, in2 = _operands(8, 400, seed=13)
        assignment = adder.input_assignment(in1, in2)
        annotation = simulator.annotation(0.6, 0.0)
        sampler = VariationSampler(GateVariationModel(), seed=5)
        batch = sampler.sample_range(adder.netlist.gate_count, 0, 6)
        multipliers = variation_delay_multipliers(
            batch.current_multipliers, batch.vt_offsets, 0.6, 0.0
        )
        tclk = annotation.critical_path_delay * 0.5
        golden = simulator.run(assignment, tclk=tclk, vdd=0.6).settled_bits
        (batched,) = simulator.run_variation_counts(
            assignment, [tclk], 0.6, 0.0, golden, delay_multipliers=multipliers
        )
        changed = simulator._stimulus(assignment, None).changed
        arrival = arrival_rows(
            engine.compile_plan(adder.netlist),
            changed, annotation.gate_delays[None, :] * multipliers, _output_nets(adder)
        )
        assert batched.bit_errors.any()
        for instance in range(multipliers.shape[0]):
            (single,) = simulator.run_variation_counts(
                assignment,
                [tclk],
                0.6,
                0.0,
                golden,
                delay_multipliers=multipliers[instance : instance + 1],
            )
            reference = oracle.vos_run(
                simulator,
                assignment,
                tclk,
                0.6,
                0.0,
                gate_delays=annotation.gate_delays * multipliers[instance],
            )
            errors = reference.latched_bits != golden
            assert single.bit_errors[0] == batched.bit_errors[instance]
            assert single.faulty_vectors[0] == batched.faulty_vectors[instance]
            assert batched.bit_errors[instance] == np.count_nonzero(errors)
            assert batched.faulty_vectors[instance] == np.count_nonzero(
                errors.any(axis=1)
            )
            assert np.array_equal(arrival[:, instance].T, reference.arrival_times)

    def test_unit_multipliers_reproduce_nominal_latched_bits(self):
        adder = build_adder("rca", 8)
        simulator = VosTimingSimulator(
            adder.netlist, output_ports=adder.output_ports()
        )
        in1, in2 = _operands(8, 400, seed=21)
        assignment = adder.input_assignment(in1, in2)
        tclk = simulator.annotation(0.6, 0.0).critical_path_delay * 0.5
        nominal = simulator.run(assignment, tclk=tclk, vdd=0.6, vbb=0.0)
        gate_count = adder.netlist.gate_count
        unit = np.ones((1, gate_count))
        # Zero errors against the nominal latched bits: the same latch.
        (variation,) = simulator.run_variation_counts(
            assignment, [tclk], 0.6, 0.0, nominal.latched_bits, delay_multipliers=unit
        )
        assert variation.bit_errors[0] == 0
        (against_golden,) = simulator.run_variation_counts(
            assignment, [tclk], 0.6, 0.0, nominal.settled_bits, delay_multipliers=unit
        )
        assert against_golden.bit_errors[0] == np.count_nonzero(nominal.error_bits)
        assert against_golden.bit_errors[0] > 0
        changed = simulator._stimulus(assignment, None).changed
        arrival = arrival_rows(
            engine.compile_plan(adder.netlist),
            changed,
            simulator.annotation(0.6, 0.0).gate_delays[None, :] * unit,
            _output_nets(adder),
        )
        assert np.array_equal(arrival[:, 0].T, nominal.arrival_times)
        assert np.array_equal(variation.dynamic_energy, nominal.dynamic_energy)


def _output_nets(circuit):
    outputs = circuit.netlist.primary_outputs
    return np.array([outputs[port] for port in circuit.output_ports()])
