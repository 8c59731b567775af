"""Batched variation simulation: engine pass parity and simulator contract."""

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.simulation import engine
from repro.simulation.timing_sim import VosTimingSimulator
from repro.technology.corners import ProcessCorner, corner_library
from repro.technology.library import DEFAULT_LIBRARY


@pytest.fixture(scope="module")
def bka8_setup():
    adder = build_adder("bka", 8)
    simulator = VosTimingSimulator(adder.netlist, output_ports=adder.output_ports())
    rng = np.random.default_rng(31)
    in1 = rng.integers(0, 256, 500, dtype=np.int64)
    in2 = rng.integers(0, 256, 500, dtype=np.int64)
    return adder, simulator, adder.input_assignment(in1, in2)


class TestBatchedArrivalPass:
    def test_single_instance_is_bit_identical_with_arrival_pass(self, bka8_setup):
        adder, simulator, assignment = bka8_setup
        plan = engine.compile_plan(adder.netlist)
        annotation = simulator.annotation(0.6, 0.0)
        stimulus = simulator._stimulus(assignment, None)
        single = plan.arrival_pass(stimulus.changed, annotation.gate_delays)
        batched = plan.batched_arrival_pass(
            stimulus.changed, annotation.gate_delays[None, :]
        )
        assert batched.shape == (single.shape[0], 1, single.shape[1])
        assert np.array_equal(batched[:, 0, :], single)

    def test_batch_rows_match_independent_passes(self, bka8_setup):
        adder, simulator, assignment = bka8_setup
        plan = engine.compile_plan(adder.netlist)
        annotation = simulator.annotation(0.6, 0.0)
        stimulus = simulator._stimulus(assignment, None)
        rng = np.random.default_rng(2)
        matrix = annotation.gate_delays[None, :] * rng.lognormal(
            0.0, 0.1, size=(4, plan.gate_count)
        )
        batched = plan.batched_arrival_pass(stimulus.changed, matrix)
        for instance in range(4):
            expected = plan.arrival_pass(stimulus.changed, matrix[instance])
            assert np.array_equal(batched[:, instance, :], expected)

    def test_wrong_delay_shape_rejected(self, bka8_setup):
        adder, simulator, assignment = bka8_setup
        plan = engine.compile_plan(adder.netlist)
        stimulus = simulator._stimulus(assignment, None)
        with pytest.raises(ValueError):
            plan.batched_arrival_pass(
                stimulus.changed, np.ones(plan.gate_count)
            )
        with pytest.raises(ValueError):
            plan.batched_arrival_pass(
                stimulus.changed, np.ones((2, plan.gate_count + 1))
            )


class TestGateLeakagePowers:
    def test_sums_to_annotation_total(self, bka8_setup):
        adder, simulator, _ = bka8_setup
        annotation = simulator.annotation(0.7, 0.0)
        per_gate = engine.gate_leakage_powers(adder.netlist, 0.7, 0.0)
        # Gate-by-gate accumulation in topological order reproduces the
        # annotation total bit for bit (same float summation order).
        total = 0.0
        for value in per_gate:
            total += value
        assert total == annotation.leakage_power

    def test_reflects_the_library_and_body_bias(self, bka8_setup):
        from repro.technology.fdsoi28 import FDSOI28_RVT
        from repro.technology.library import StandardCellLibrary

        adder, _, _ = bka8_setup
        nominal = engine.gate_leakage_powers(adder.netlist, 0.7, 0.0)
        rvt = engine.gate_leakage_powers(
            adder.netlist, 0.7, 0.0, StandardCellLibrary(FDSOI28_RVT)
        )
        assert np.all(rvt < nominal)
        reverse_biased = engine.gate_leakage_powers(adder.netlist, 0.7, -2.0)
        # Reverse body bias raises Vt, which cuts leakage exponentially.
        assert np.all(reverse_biased < nominal)


def _golden(simulator, assignment):
    """Settled output bits of a stream: the expected bits of a batch."""
    return simulator.run(assignment, tclk=1.0, vdd=1.0).settled_bits


class TestRunVariationCounts:
    def test_shares_one_arrival_matrix_across_clocks(self, bka8_setup, monkeypatch):
        adder, simulator, assignment = bka8_setup
        annotation = simulator.annotation(0.6, 0.0)
        golden = _golden(simulator, assignment)
        calls = {"count": 0}
        original = engine.CompiledNetlistPlan.batched_arrival_pass

        def counting(self, *args, **kwargs):
            calls["count"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(
            engine.CompiledNetlistPlan, "batched_arrival_pass", counting
        )
        critical = annotation.critical_path_delay
        results = simulator.run_variation_counts(
            assignment,
            [critical * 0.4, critical * 0.6, critical * 1.2],
            0.6,
            0.0,
            golden,
            delay_multipliers=np.ones((3, adder.netlist.gate_count)),
        )
        assert calls["count"] == 1
        assert len(results) == 3
        # Tighter clocks can only latch a superset of the errors.
        errors = [result.bit_errors.sum() for result in results]
        assert errors[0] >= errors[1] >= errors[2]
        assert errors[0] > 0

    def test_nominal_leakage_when_no_multipliers_given(self, bka8_setup):
        adder, simulator, assignment = bka8_setup
        annotation = simulator.annotation(0.8, 0.0)
        tclk = annotation.critical_path_delay
        (result,) = simulator.run_variation_counts(
            assignment, [tclk], 0.8, 0.0, _golden(simulator, assignment)
        )
        assert result.bit_errors.shape == (1,)
        assert result.static_energy_per_operation[0] == pytest.approx(
            annotation.leakage_power * tclk
        )

    def test_leakage_multipliers_scale_static_energy(self, bka8_setup):
        adder, simulator, assignment = bka8_setup
        gate_count = adder.netlist.gate_count
        tclk = simulator.annotation(0.8, 0.0).critical_path_delay
        golden = _golden(simulator, assignment)
        (doubled,) = simulator.run_variation_counts(
            assignment,
            [tclk],
            0.8,
            0.0,
            golden,
            delay_multipliers=np.ones((1, gate_count)),
            leakage_multipliers=np.full((1, gate_count), 2.0),
        )
        (nominal,) = simulator.run_variation_counts(
            assignment, [tclk], 0.8, 0.0, golden
        )
        assert doubled.static_energy_per_operation[0] == pytest.approx(
            2.0 * nominal.static_energy_per_operation[0]
        )

    def test_invalid_arguments_rejected(self, bka8_setup):
        adder, simulator, assignment = bka8_setup
        gate_count = adder.netlist.gate_count
        golden = _golden(simulator, assignment)

        def run(tclks, **kwargs):
            return simulator.run_variation_counts(
                assignment, tclks, 0.6, 0.0, golden, **kwargs
            )

        with pytest.raises(ValueError):
            run([])
        with pytest.raises(ValueError):
            run([-1e-9])
        with pytest.raises(ValueError):
            run([1e-9], delay_multipliers=np.ones((1, gate_count + 2)))
        with pytest.raises(ValueError):
            run([1e-9], delay_multipliers=np.zeros((1, gate_count)))
        with pytest.raises(ValueError):
            run(
                [1e-9],
                delay_multipliers=np.ones((2, gate_count)),
                leakage_multipliers=np.ones((1, gate_count)),
            )


class TestCornerLibrary:
    def test_corner_library_shares_cells_and_shifts_technology(self):
        library = corner_library(ProcessCorner.SLOW)
        assert library.cell_names == DEFAULT_LIBRARY.cell_names
        assert "SS" in library.technology.name
        assert library.technology.current_factor < DEFAULT_LIBRARY.technology.current_factor

    def test_slow_corner_slows_the_critical_path(self):
        adder = build_adder("rca", 8)
        nominal = VosTimingSimulator(
            adder.netlist, output_ports=adder.output_ports()
        ).annotation(1.0, 0.0)
        slow = VosTimingSimulator(
            adder.netlist,
            output_ports=adder.output_ports(),
            library=corner_library(ProcessCorner.SLOW),
        ).annotation(1.0, 0.0)
        assert slow.critical_path_delay > nominal.critical_path_delay
