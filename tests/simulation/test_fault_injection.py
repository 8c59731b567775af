"""Tests of the fault-injection models (bit-flip baseline, stuck-at)."""

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.circuits.cells import evaluate_gate
from repro.core.metrics import bit_error_rate
from repro.simulation import engine
from repro.simulation.fault_injection import (
    RandomBitFlipModel,
    StuckAtFault,
    StuckAtFaultSimulator,
    enumerate_stuck_at_faults,
)
from repro.simulation.patterns import PatternConfig, generate_patterns


class TestRandomBitFlipModel:
    def test_zero_rate_is_exact(self):
        model = RandomBitFlipModel(width=9, bit_error_rate=0.0)
        values = np.arange(100)
        assert np.array_equal(model.apply(values), values)

    def test_rate_one_flips_every_bit(self):
        model = RandomBitFlipModel(width=4, bit_error_rate=1.0)
        values = np.array([0b0000, 0b1111, 0b1010])
        assert np.array_equal(model.apply(values), np.array([0b1111, 0b0000, 0b0101]))

    def test_measured_ber_matches_requested_rate(self):
        model = RandomBitFlipModel(width=9, bit_error_rate=0.1, seed=3)
        rng = np.random.default_rng(0)
        in1 = rng.integers(0, 256, 20000)
        in2 = rng.integers(0, 256, 20000)
        faulty = model.add(in1, in2)
        measured = bit_error_rate(in1 + in2, faulty, 9)
        assert measured == pytest.approx(0.1, abs=0.01)

    def test_reproducible_with_seed(self):
        a = RandomBitFlipModel(width=9, bit_error_rate=0.2, seed=7).apply(np.arange(50))
        b = RandomBitFlipModel(width=9, bit_error_rate=0.2, seed=7).apply(np.arange(50))
        assert np.array_equal(a, b)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RandomBitFlipModel(width=0, bit_error_rate=0.1)
        with pytest.raises(ValueError):
            RandomBitFlipModel(width=8, bit_error_rate=1.5)


@pytest.fixture(scope="module")
def rca4():
    return build_adder("rca", 4)


@pytest.fixture(scope="module")
def rca4_patterns():
    # Exhaustive 4-bit stimulus: every fault that is structurally testable
    # is guaranteed to be exercised.
    config = PatternConfig(n_vectors=256, width=4, kind="exhaustive")
    return generate_patterns(config)


class TestEnumerateStuckAtFaults:
    def test_both_polarities_on_every_driven_site(self, rca4):
        faults = enumerate_stuck_at_faults(rca4.netlist)
        sites = set(rca4.netlist.input_nets) | {
            gate.output for gate in rca4.netlist.gates
        }
        assert len(faults) == 2 * len(sites)
        assert len(set(faults)) == len(faults)

    def test_deterministic_order(self, rca4):
        assert enumerate_stuck_at_faults(rca4.netlist) == enumerate_stuck_at_faults(
            rca4.netlist
        )

    def test_label_format(self):
        assert StuckAtFault(net=17, stuck_value=True).label() == "n17/sa1"
        assert StuckAtFault(net=3, stuck_value=False).label() == "n3/sa0"


class TestStuckAtFaultSimulator:
    def test_matches_per_gate_forced_reference(self, rca4, rca4_patterns):
        """Packed engine fault results equal a brute-force per-gate loop."""
        in1, in2 = rca4_patterns
        assignment = rca4.input_assignment(in1, in2)
        bound = {
            rca4.netlist.primary_inputs[port]: np.asarray(values, dtype=bool)
            for port, values in assignment.items()
        }
        simulator = StuckAtFaultSimulator(
            rca4.netlist, output_ports=rca4.output_ports()
        )
        faults = enumerate_stuck_at_faults(rca4.netlist)
        results = simulator.run(assignment, faults)
        output_nets = [
            rca4.netlist.primary_outputs[port] for port in rca4.output_ports()
        ]
        golden_bits = engine.evaluate_values(rca4.netlist, bound)[output_nets].T
        for fault, result in zip(faults, results):
            values = {
                net: (
                    np.full_like(array, fault.stuck_value)
                    if net == fault.net
                    else array
                )
                for net, array in bound.items()
            }
            for gate in rca4.netlist.topological_gates:
                out = evaluate_gate(
                    gate.gate_type, [values[net] for net in gate.inputs]
                )
                values[gate.output] = (
                    np.full_like(out, fault.stuck_value)
                    if gate.output == fault.net
                    else out
                )
            faulty_bits = np.stack([values[net] for net in output_nets], axis=-1)
            errors = faulty_bits != golden_bits
            assert result.ber == errors.mean(), fault
            assert result.faulty_vector_fraction == errors.any(axis=1).mean(), fault
            assert result.detected == bool(errors.any()), fault

    def test_exhaustive_patterns_reach_high_coverage(self, rca4, rca4_patterns):
        in1, in2 = rca4_patterns
        simulator = StuckAtFaultSimulator(
            rca4.netlist, output_ports=rca4.output_ports()
        )
        coverage = simulator.coverage(rca4.input_assignment(in1, in2))
        assert coverage > 0.9

    def test_undetectable_when_output_forced_to_its_own_value(self, rca4):
        # Force one primary input stuck at 0 while driving it with 0:
        # no pattern can distinguish the faulty circuit.
        n = 16
        zeros = np.zeros(n, dtype=np.int64)
        in2 = np.arange(n, dtype=np.int64)
        assignment = rca4.input_assignment(zeros, in2)
        input_net = rca4.netlist.primary_inputs["a0"]
        simulator = StuckAtFaultSimulator(
            rca4.netlist, output_ports=rca4.output_ports()
        )
        result = simulator.run(
            assignment, [StuckAtFault(net=input_net, stuck_value=False)]
        )[0]
        assert not result.detected
        assert result.ber == 0.0

    def test_rejects_unknown_output_port(self, rca4):
        with pytest.raises(ValueError):
            StuckAtFaultSimulator(rca4.netlist, output_ports=("nope",))

    def test_rejects_out_of_range_fault_net(self, rca4, rca4_patterns):
        in1, in2 = rca4_patterns
        simulator = StuckAtFaultSimulator(rca4.netlist)
        with pytest.raises(ValueError):
            simulator.run(
                rca4.input_assignment(in1, in2),
                [StuckAtFault(net=10**6, stuck_value=True)],
            )

    def test_non_multiple_of_64_vector_count(self, rca4):
        # 100 vectors leaves a partially used tail word; padding bits must
        # not leak into the statistics.
        rng = np.random.default_rng(0)
        in1 = rng.integers(0, 16, 100)
        in2 = rng.integers(0, 16, 100)
        assignment = rca4.input_assignment(in1, in2)
        simulator = StuckAtFaultSimulator(
            rca4.netlist, output_ports=rca4.output_ports()
        )
        for result in simulator.run(assignment):
            assert 0.0 <= result.ber <= 1.0
            assert 0.0 <= result.faulty_vector_fraction <= 1.0
