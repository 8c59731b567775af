"""Tests of the vectorised VOS timing simulator (the core SPICE substitute)."""

import numpy as np
import pytest

from repro.simulation import reference as oracle
from repro.simulation.timing_sim import TimingAnnotation, VosTimingSimulator
from repro.technology.library import DEFAULT_LIBRARY


@pytest.fixture(scope="module")
def rca8_simulator(rca8):
    return VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(5)
    return rng.integers(0, 256, 1500), rng.integers(0, 256, 1500)


class TestTimingAnnotation:
    def test_annotation_fields(self, rca8):
        annotation = TimingAnnotation.annotate(rca8.netlist, 1.0, 0.0)
        assert annotation.gate_delays.shape == (rca8.netlist.gate_count,)
        assert np.all(annotation.gate_delays > 0)
        assert np.all(annotation.gate_switch_energies > 0)
        assert annotation.leakage_power > 0
        assert annotation.critical_path_delay > 0

    def test_critical_path_grows_when_supply_drops(self, rca8):
        nominal = TimingAnnotation.annotate(rca8.netlist, 1.0, 0.0)
        scaled = TimingAnnotation.annotate(rca8.netlist, 0.6, 0.0)
        assert scaled.critical_path_delay > 1.5 * nominal.critical_path_delay

    def test_forward_body_bias_shortens_critical_path(self, rca8):
        no_bias = TimingAnnotation.annotate(rca8.netlist, 0.6, 0.0)
        forward = TimingAnnotation.annotate(rca8.netlist, 0.6, 2.0)
        assert forward.critical_path_delay < no_bias.critical_path_delay

    def test_annotation_cache_reused(self, rca8_simulator):
        first = rca8_simulator.annotation(0.8, 0.0)
        second = rca8_simulator.annotation(0.8, 0.0)
        assert first is second


class TestVosTimingSimulation:
    def test_no_errors_with_relaxed_clock_at_nominal_supply(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        annotation = rca8_simulator.annotation(1.0, 0.0)
        result = rca8_simulator.run(
            rca8.input_assignment(in1, in2),
            tclk=annotation.critical_path_delay * 1.05,
            vdd=1.0,
        )
        assert np.array_equal(result.latched_words, in1 + in2)
        assert np.all(result.error_bits == 0)

    def test_errors_appear_under_voltage_over_scaling(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        annotation = rca8_simulator.annotation(1.0, 0.0)
        result = rca8_simulator.run(
            rca8.input_assignment(in1, in2),
            tclk=annotation.critical_path_delay,
            vdd=0.5,
        )
        assert result.error_bits.mean() > 0.05

    def test_ber_monotonically_worsens_with_scaling(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        annotation = rca8_simulator.annotation(1.0, 0.0)
        tclk = annotation.critical_path_delay
        bers = []
        for vdd in (1.0, 0.8, 0.6, 0.5):
            result = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=tclk, vdd=vdd)
            bers.append(result.error_bits.mean())
        assert bers == sorted(bers)

    def test_forward_body_bias_reduces_errors(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        annotation = rca8_simulator.annotation(1.0, 0.0)
        tclk = annotation.critical_path_delay
        no_bias = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=tclk, vdd=0.6, vbb=0.0)
        forward = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=tclk, vdd=0.6, vbb=2.0)
        assert forward.error_bits.mean() < no_bias.error_bits.mean()

    def test_settled_values_always_exact(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        result = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=1e-10, vdd=0.4)
        assert np.array_equal(result.settled_words, in1 + in2)

    def test_latched_bits_come_from_old_or_new_value(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        result = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=2e-10, vdd=0.5)
        new_bits = result.settled_bits
        # Previous-cycle settled outputs: shift the exact sums by one cycle.
        previous = np.zeros_like(in1)
        previous[1:] = (in1 + in2)[:-1]
        from repro.circuits.signals import int_to_bits

        old_bits = int_to_bits(previous, rca8.output_width)
        matches_new = result.latched_bits == new_bits
        matches_old = result.latched_bits == old_bits
        assert np.all(matches_new | matches_old)

    def test_dynamic_energy_positive_and_data_dependent(self, rca8, rca8_simulator):
        constant = rca8.input_assignment(np.full(100, 170), np.full(100, 85))
        toggling = rca8.input_assignment(
            np.tile([0, 255], 50), np.tile([0, 255], 50)
        )
        tclk = 1e-9
        quiet = rca8_simulator.run(constant, tclk=tclk, vdd=1.0)
        busy = rca8_simulator.run(toggling, tclk=tclk, vdd=1.0)
        # A constant operand stream only toggles on the very first vector;
        # operands swinging rail to rail every cycle toggle the whole adder.
        assert busy.dynamic_energy.mean() > 10 * quiet.dynamic_energy.mean()
        assert busy.dynamic_energy[1:].min() > 0.0

    def test_static_energy_scales_with_clock_period(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        short = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=0.3e-9, vdd=1.0)
        long = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=0.6e-9, vdd=1.0)
        assert long.static_energy.mean() == pytest.approx(2 * short.static_energy.mean())

    def test_explicit_previous_inputs(self, rca8, rca8_simulator):
        current = rca8.input_assignment(np.array([255]), np.array([1]))
        previous = rca8.input_assignment(np.array([0]), np.array([0]))
        result = rca8_simulator.run(
            current, tclk=1e-12, vdd=1.0, previous_inputs=previous
        )
        # Clock far too short: the latched word must be the stale (previous) sum.
        assert result.latched_words[0] == 0

    def test_invalid_tclk_rejected(self, rca8, rca8_simulator):
        with pytest.raises(ValueError):
            rca8_simulator.run(rca8.input_assignment(np.array([1]), np.array([1])), tclk=0.0, vdd=1.0)

    def test_unknown_output_port_rejected(self, rca8):
        with pytest.raises(ValueError, match="unknown output port"):
            VosTimingSimulator(rca8.netlist, output_ports=("nope",))

    def test_missing_input_rejected(self, rca8_simulator):
        with pytest.raises(ValueError, match="missing values"):
            rca8_simulator.run({"a0": np.array([True])}, tclk=1e-9, vdd=1.0)

    def test_mean_energy_property(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        result = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=0.5e-9, vdd=1.0)
        assert result.mean_energy_per_operation == pytest.approx(
            float((result.dynamic_energy + result.static_energy).mean())
        )
        assert result.n_vectors == in1.size


class TestEnergyVoltageScaling:
    def test_energy_per_operation_drops_quadratically_with_vdd(self, rca8, rca8_simulator, operands):
        in1, in2 = operands
        tclk = 0.6e-9
        nominal = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=tclk, vdd=1.0)
        scaled = rca8_simulator.run(rca8.input_assignment(in1, in2), tclk=tclk, vdd=0.5)
        ratio = scaled.dynamic_energy.mean() / nominal.dynamic_energy.mean()
        assert ratio == pytest.approx(0.25, rel=0.05)

    def test_output_register_load_counted(self, rca8):
        library = DEFAULT_LIBRARY
        annotation = TimingAnnotation.annotate(rca8.netlist, 1.0, 0.0, library)
        # The last sum XOR drives only the output register; its delay must
        # still be positive and below the carry-chain gates driving many pins.
        assert np.all(annotation.gate_delays > 0)


class TestRunSweep:
    def _triads(self):
        from repro.core.triad import OperatingTriad

        return [
            OperatingTriad(tclk=tclk, vdd=vdd, vbb=vbb)
            for tclk, vdd, vbb in (
                (0.3e-9, 1.0, 0.0),
                (0.6e-9, 1.0, 0.0),
                (0.6e-9, 0.6, 2.0),
            )
        ]

    def test_results_identical_with_run(self, rca8, operands):
        assignment = rca8.input_assignment(*operands)
        triads = self._triads()
        swept = list(
            VosTimingSimulator(
                rca8.netlist, output_ports=rca8.output_ports()
            ).run_sweep(assignment, triads)
        )
        simulator = VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())
        assert len(swept) == len(triads)
        for triad, result in zip(triads, swept):
            single = simulator.run(
                assignment, tclk=triad.tclk, vdd=triad.vdd, vbb=triad.vbb
            )
            for field in (
                "latched_bits",
                "settled_bits",
                "arrival_times",
                "dynamic_energy",
                "static_energy",
            ):
                assert np.array_equal(getattr(result, field), getattr(single, field))
            assert result.tclk == single.tclk

    def test_stimulus_fingerprinted_once_per_sweep(self, rca8, operands, monkeypatch):
        from repro.simulation import timing_sim

        calls = []
        original = timing_sim._pattern_fingerprint

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(timing_sim, "_pattern_fingerprint", counting)
        simulator = VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())
        results = list(
            simulator.run_sweep(rca8.input_assignment(*operands), self._triads())
        )
        assert len(results) == 3
        assert len(calls) == 1

    def test_invalid_tclk_rejected(self, rca8, rca8_simulator):
        from types import SimpleNamespace

        assignment = rca8.input_assignment(np.array([1]), np.array([1]))
        triad = SimpleNamespace(tclk=0.0, vdd=1.0, vbb=0.0)
        with pytest.raises(ValueError, match="tclk must be positive"):
            list(rca8_simulator.run_sweep(assignment, [triad]))


def _energy_circuit(name):
    from repro.circuits.adders import build_adder
    from repro.circuits.multipliers import array_multiplier

    if name == "mul4x4":
        return array_multiplier(4), 4
    architecture, width = name[:3], int(name[3:])
    return build_adder(architecture, width), width


def _held_toggle_matrices(simulator, shape):
    """Every float64 ``shape`` array reachable from a simulator's state."""
    import dataclasses

    found, seen = [], set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype == np.float64 and obj.shape == shape:
                found.append(obj)
        elif isinstance(obj, dict):
            for key, value in obj.items():
                visit(key)
                visit(value)
        elif isinstance(obj, (list, tuple)):
            for value in obj:
                visit(value)
        elif dataclasses.is_dataclass(obj):
            for field in dataclasses.fields(obj):
                visit(getattr(obj, field.name))

    visit(vars(simulator))
    return found


class TestEnergyOperand:
    """Dynamic energy reduces the per-stimulus float64 toggle matrix."""

    OPERATING_POINTS = ((1.0, 0.0), (0.7, 0.0), (0.6, 2.0))

    @pytest.mark.parametrize("name", ["ksa32", "bka16", "mul4x4"])
    def test_energy_byte_equal_at_every_operating_point(self, name):
        from repro.core.triad import OperatingTriad
        from repro.simulation import engine

        circuit, width = _energy_circuit(name)
        rng = np.random.default_rng(23)
        in1 = rng.integers(0, 1 << width, 2500)
        in2 = rng.integers(0, 1 << width, 2500)
        assignment = circuit.input_assignment(in1, in2)
        simulator = VosTimingSimulator(
            circuit.netlist, output_ports=circuit.output_ports()
        )
        triads = [
            OperatingTriad(tclk=1e-9, vdd=vdd, vbb=vbb)
            for vdd, vbb in self.OPERATING_POINTS
        ]
        changed = simulator._stimulus(assignment, None).changed
        toggles = changed[engine.compile_plan(circuit.netlist).gate_output_nets]
        for triad, result in zip(triads, simulator.run_sweep(assignment, triads)):
            energies = simulator.annotation(triad.vdd, triad.vbb).gate_switch_energies
            expected = energies @ toggles.astype(np.float64)
            reference = oracle.vos_run(
                simulator, assignment, tclk=triad.tclk, vdd=triad.vdd, vbb=triad.vbb
            )
            assert result.dynamic_energy.tobytes() == expected.tobytes()
            assert result.dynamic_energy.tobytes() == reference.dynamic_energy.tobytes()
            (variation,) = simulator.run_variation_counts(
                assignment, [triad.tclk], triad.vdd, triad.vbb, result.settled_bits
            )
            assert variation.dynamic_energy.tobytes() == expected.tobytes()

    def test_cast_once_per_stimulus(self, rca8, operands):
        from repro.core.triad import OperatingTriad

        simulator = VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())
        assert simulator._energy_operand is None
        assignment = rca8.input_assignment(*operands)
        triads = [
            OperatingTriad(tclk=tclk, vdd=vdd, vbb=vbb)
            for tclk in (0.3e-9, 0.6e-9)
            for vdd, vbb in self.OPERATING_POINTS
        ]
        list(simulator.run_sweep(assignment, triads))
        key, matrix = simulator._energy_operand
        assert matrix.shape == (rca8.netlist.gate_count, len(operands[0]))
        assert not matrix.flags.writeable
        # Further operating points, Monte Carlo passes and repeated sweeps of
        # the same stream reuse the one matrix: no second cast happened.
        simulator.run(assignment, tclk=0.5e-9, vdd=0.8, vbb=0.0)
        simulator.run_variation_counts(
            assignment, [0.4e-9, 0.8e-9], 0.65, 0.0,
            np.zeros((len(operands[0]), rca8.output_width), dtype=bool),
            delay_multipliers=np.full((3, rca8.netlist.gate_count), 1.1),
        )
        list(simulator.run_sweep(assignment, triads))
        assert simulator._energy_operand[0] == key
        assert simulator._energy_operand[1] is matrix

    def test_one_matrix_held_across_streams(self, rca8):
        simulator = VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())
        rng = np.random.default_rng(8)
        n_vectors = 700
        shape = (rca8.netlist.gate_count, n_vectors)
        keys = []
        for _ in range(4):
            in1, in2 = rng.integers(0, 256, n_vectors), rng.integers(0, 256, n_vectors)
            assignment = rca8.input_assignment(in1, in2)
            for vdd in (1.0, 0.7):
                simulator.run(assignment, tclk=0.5e-9, vdd=vdd)
            keys.append(simulator._energy_operand[0])
            assert len(_held_toggle_matrices(simulator, shape)) == 1
        assert len(set(keys)) == 4
        assert len(simulator._stimulus_cache) == 4
        assert simulator._energy_operand[0] == keys[-1]
