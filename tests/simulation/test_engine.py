"""Parity tests: the compiled level-packed engine vs the per-gate reference.

The engine (bit-packed words, per-level group dispatch, sweep-level reuse)
must be an *exact* drop-in for the per-gate loops of the oracle module
``tests/_reference.py``: same logic values, arrival times, latched bits and
energies, bit for bit, for every adder architecture in the registry.
"""

import numpy as np
import pytest

from repro.circuits.adders import ADDER_GENERATORS, build_adder
from repro.circuits.cells import (
    GATE_ARITY,
    GATE_WORD_FUNCTIONS,
    GateType,
    evaluate_gate,
)
from repro.circuits.multipliers import array_multiplier
from repro.core.characterization import CharacterizationFlow, entry_from_payload
from repro.core.sweep import measurement_to_payload
from repro.simulation import engine
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.simulation.timing_sim import VosTimingSimulator

import _reference as oracle

ARCHITECTURES = sorted(ADDER_GENERATORS)
WIDTHS = (4, 8)

#: 257 crosses the 64-vector word boundary with a remainder, exercising the
#: packed tail-word handling.
N_VECTORS = 257


def _operands(width: int, n: int = N_VECTORS, seed: int = 99):
    rng = np.random.default_rng(seed + width)
    high = 1 << width
    return rng.integers(0, high, n), rng.integers(0, high, n)


@pytest.fixture(params=ARCHITECTURES)
def architecture(request):
    return request.param


class TestPacking:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 257, 1000])
    def test_pack_unpack_roundtrip(self, n):
        rng = np.random.default_rng(n)
        bits = rng.random((5, n)) < 0.5
        words = engine.pack_vectors(bits)
        assert words.dtype == np.uint64
        assert words.shape == (5, (n + 63) // 64)
        assert np.array_equal(engine.unpack_vectors(words, n), bits)

    def test_padding_bits_are_zero(self):
        words = engine.pack_vectors(np.ones(10, dtype=bool))
        assert int(words[0]) == (1 << 10) - 1


class TestGateKernels:
    """Word functions and in-place kernels match the canonical cell truth."""

    @pytest.mark.parametrize("gate_type", list(GateType))
    def test_word_function_matches_evaluate_gate(self, gate_type):
        arity = GATE_ARITY[gate_type]
        rng = np.random.default_rng(7)
        inputs = rng.random((arity, 300)) < 0.5
        expected = evaluate_gate(gate_type, list(inputs))
        assert np.array_equal(GATE_WORD_FUNCTIONS[gate_type](inputs), expected)
        packed = engine.pack_vectors(inputs)
        packed_out = GATE_WORD_FUNCTIONS[gate_type](packed)
        assert np.array_equal(engine.unpack_vectors(packed_out, 300), expected)


class TestPlanStructure:
    def test_groups_form_a_valid_schedule(self, architecture):
        netlist = build_adder(architecture, 8).netlist
        plan = engine.compile_plan(netlist)
        ready = set(netlist.primary_inputs.values())
        scheduled_gates = 0
        for group in plan.groups:
            for pins in group.input_nets.T:
                assert all(net in ready for net in pins)
            ready.update(int(net) for net in group.output_nets)
            scheduled_gates += group.output_nets.size
        assert scheduled_gates == netlist.gate_count

    def test_plan_is_cached_per_netlist(self):
        netlist = build_adder("rca", 4).netlist
        assert engine.compile_plan(netlist) is engine.compile_plan(netlist)


class TestLogicParity:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_all_nets_match_reference(self, architecture, width):
        adder = build_adder(architecture, width)
        assignment = adder.input_assignment(*_operands(width))
        reference = oracle.logic_values(adder.netlist, assignment)
        compiled = engine.evaluate_values(
            adder.netlist, engine.bind_inputs(adder.netlist, assignment)
        )
        assert set(reference) == set(engine.compile_plan(adder.netlist).driven_nets)
        for net in reference:
            assert np.array_equal(reference[net], compiled[net])

    @pytest.mark.parametrize("width", WIDTHS)
    def test_packed_outputs_match_reference(self, architecture, width):
        adder = build_adder(architecture, width)
        assignment = adder.input_assignment(*_operands(width))
        reference = oracle.logic_values(adder.netlist, assignment)
        words, n_vectors = engine.evaluate_packed(
            adder.netlist, engine.bind_inputs(adder.netlist, assignment)
        )
        outputs = engine.unpack_vectors(words, n_vectors)
        for net in adder.netlist.primary_outputs.values():
            assert np.array_equal(outputs[net], reference[net])

    def test_multiplier_netlist_parity(self):
        multiplier = array_multiplier(4)
        rng = np.random.default_rng(3)
        assignment = multiplier.input_assignment(
            rng.integers(0, 16, N_VECTORS), rng.integers(0, 16, N_VECTORS)
        )
        reference = oracle.logic_values(multiplier.netlist, assignment)
        compiled = engine.evaluate_values(
            multiplier.netlist, engine.bind_inputs(multiplier.netlist, assignment)
        )
        for net in reference:
            assert np.array_equal(reference[net], compiled[net])


class TestTimingParity:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_results_match_reference_bit_for_bit(self, architecture, width):
        adder = build_adder(architecture, width)
        simulator = VosTimingSimulator(
            adder.netlist, output_ports=adder.output_ports()
        )
        assignment = adder.input_assignment(*_operands(width))
        tclk = simulator.annotation(1.0, 0.0).critical_path_delay * 0.55
        for vdd, vbb in ((1.0, 0.0), (0.6, 0.0), (0.6, 2.0), (0.5, -2.0)):
            compiled = simulator.run(assignment, tclk=tclk, vdd=vdd, vbb=vbb)
            reference = oracle.vos_run(
                simulator, assignment, tclk=tclk, vdd=vdd, vbb=vbb
            )
            assert np.array_equal(compiled.latched_bits, reference.latched_bits)
            assert np.array_equal(compiled.settled_bits, reference.settled_bits)
            assert np.array_equal(compiled.arrival_times, reference.arrival_times)
            assert np.array_equal(
                compiled.dynamic_energy, reference.dynamic_energy
            )
            assert np.array_equal(compiled.static_energy, reference.static_energy)

    def test_explicit_previous_inputs_parity(self):
        adder = build_adder("bka", 8)
        simulator = VosTimingSimulator(
            adder.netlist, output_ports=adder.output_ports()
        )
        current = adder.input_assignment(*_operands(8, seed=1))
        previous = adder.input_assignment(*_operands(8, seed=2))
        tclk = simulator.annotation(1.0, 0.0).critical_path_delay * 0.5
        compiled = simulator.run(
            current, tclk=tclk, vdd=0.6, previous_inputs=previous
        )
        reference = oracle.vos_run(
            simulator, current, tclk=tclk, vdd=0.6, previous_inputs=previous
        )
        assert np.array_equal(compiled.latched_bits, reference.latched_bits)
        assert np.array_equal(compiled.arrival_times, reference.arrival_times)
        assert np.array_equal(compiled.dynamic_energy, reference.dynamic_energy)


class TestAnnotationParity:
    def test_vectorised_annotation_matches_per_gate_queries(self):
        adder = build_adder("rca", 8)
        netlist = adder.netlist
        from repro.simulation.timing_sim import TimingAnnotation
        from repro.technology.library import DEFAULT_LIBRARY

        annotation = TimingAnnotation.annotate(netlist, 0.7, 2.0)
        loads = engine.net_loads(netlist, DEFAULT_LIBRARY)
        model = DEFAULT_LIBRARY.delay_model(0.7, 2.0)
        leakage = 0.0
        for index, gate in enumerate(netlist.topological_gates):
            expected = DEFAULT_LIBRARY.cell_delay(
                gate.gate_type.value,
                loads[gate.output],
                0.7,
                2.0,
                delay_model=model,
            )
            assert annotation.gate_delays[index] == expected
            assert annotation.gate_switch_energies[
                index
            ] == DEFAULT_LIBRARY.cell_switching_energy(gate.gate_type.value, 0.7)
            leakage += DEFAULT_LIBRARY.cell_leakage_power(
                gate.gate_type.value, 0.7, 2.0
            )
        # Same sequential summation order as the seed's per-gate loop.
        assert annotation.leakage_power == leakage


class TestSweepReuse:
    def test_sweep_runs_one_full_width_arrival_pass(self, monkeypatch):
        adder = build_adder("rca", 8)
        simulator = VosTimingSimulator(
            adder.netlist, output_ports=adder.output_ports()
        )
        plan = engine.compile_plan(adder.netlist)
        widths = []
        original = plan.arrival_blocks

        def counting(changed, *args):
            widths.append(changed.shape[1])
            return original(changed, *args)

        monkeypatch.setattr(plan, "arrival_blocks", counting)
        assignment = adder.input_assignment(*_operands(8))
        base = simulator.annotation(0.6, 0.0).critical_path_delay
        points = ((0.6, 0.0), (0.8, 2.0), (0.5, -2.0))
        for vdd, vbb in points:
            for factor in (0.3, 0.5, 0.8, 1.1):
                compiled = simulator.run(
                    assignment, tclk=base * factor, vdd=vdd, vbb=vbb
                )
                reference = oracle.vos_run(
                    simulator, assignment, tclk=base * factor, vdd=vdd, vbb=vbb
                )
                assert np.array_equal(
                    compiled.latched_bits, reference.latched_bits
                )
        # One stimulus record and one unit-tau arrival pass serve all four
        # clock periods at all three operating points.
        assert len(simulator._stimulus_cache) == 1
        assert widths.count(N_VECTORS) == 1

    def test_shared_result_arrays_are_read_only(self):
        adder = build_adder("rca", 8)
        simulator = VosTimingSimulator(
            adder.netlist, output_ports=adder.output_ports()
        )
        assignment = adder.input_assignment(*_operands(8))
        result = simulator.run(assignment, tclk=1e-9, vdd=0.8)
        with pytest.raises((ValueError, RuntimeError)):
            result.settled_bits[0, 0] = True
        with pytest.raises((ValueError, RuntimeError)):
            result.arrival_times[0, 0] = 1.0

    def test_characterization_engine_matches_reference(self):
        pattern = PatternConfig(n_vectors=600, width=4, seed=11)
        flow = CharacterizationFlow(build_adder("rca", 4))
        engine_run = flow.run(pattern=pattern, keep_measurements=False)
        grid = flow.default_triad_grid()
        reference_results = [
            entry_from_payload(measurement_to_payload(measurement, 5, False))
            for measurement in oracle.sweep(
                flow.testbench, *generate_patterns(pattern), grid
            )
        ]
        assert [_fields(entry) for entry in engine_run.results] == [
            _fields(entry) for entry in reference_results
        ]


def _fields(entry):
    return {**vars(entry), "bitwise_error": entry.bitwise_error.tolist()}
