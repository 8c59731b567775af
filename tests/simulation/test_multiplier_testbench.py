"""The operator testbench on a multiplier (VOS characterization beyond adders)."""

import numpy as np
import pytest

from repro.circuits.multipliers import array_multiplier
from repro.core.metrics import bit_error_rate
from repro.simulation import reference as oracle
from repro.simulation.testbench import OperatorTestbench


@pytest.fixture(scope="module")
def mul4_testbench():
    return OperatorTestbench(array_multiplier(4))


@pytest.fixture(scope="module")
def mul_operands():
    rng = np.random.default_rng(6)
    return rng.integers(0, 16, 800), rng.integers(0, 16, 800)


class TestMultiplierTestbench:
    def test_exact_at_relaxed_triad(self, mul4_testbench, mul_operands):
        in1, in2 = mul_operands
        tclk = mul4_testbench.nominal_critical_path() * 1.2
        measurement = mul4_testbench.run_triad(in1, in2, tclk=tclk, vdd=1.0)
        assert np.array_equal(measurement.latched_words, in1 * in2)
        assert measurement.error_bits.sum() == 0

    def test_errors_under_over_scaling(self, mul4_testbench, mul_operands):
        in1, in2 = mul_operands
        tclk = mul4_testbench.nominal_critical_path()
        measurement = mul4_testbench.run_triad(in1, in2, tclk=tclk, vdd=0.55)
        ber = bit_error_rate(measurement.exact_words, measurement.latched_words, 8)
        assert ber > 0.01
        assert measurement.energy_per_operation > 0

    def test_energy_scales_quadratically_with_supply(self, mul4_testbench, mul_operands):
        in1, in2 = mul_operands
        tclk = mul4_testbench.nominal_critical_path() * 1.5
        nominal = mul4_testbench.run_triad(in1, in2, tclk=tclk, vdd=1.0)
        scaled = mul4_testbench.run_triad(in1, in2, tclk=tclk, vdd=0.5)
        ratio = (
            scaled.dynamic_energy_per_operation / nominal.dynamic_energy_per_operation
        )
        assert ratio == pytest.approx(0.25, rel=0.1)

    def test_multiplier_critical_path_longer_than_adder(self, rca8_testbench, mul4_testbench):
        # A 4x4 array multiplier has a longer carry structure than the 8-bit RCA.
        mul8 = OperatorTestbench(array_multiplier(8))
        assert mul8.nominal_critical_path() > rca8_testbench.nominal_critical_path()
        assert mul4_testbench.nominal_critical_path() > 0

    def test_shape_mismatch_rejected(self, mul4_testbench):
        with pytest.raises(ValueError, match="same shape"):
            mul4_testbench.run_triad(np.array([1, 2]), np.array([1]), tclk=1e-9, vdd=1.0)

    def test_measurement_metadata(self, mul4_testbench, mul_operands):
        in1, in2 = mul_operands
        measurement = mul4_testbench.run_triad(in1, in2, tclk=1e-9, vdd=1.0)
        assert mul4_testbench.circuit.name == "mul4x4"
        assert measurement.adder_name == "mul4x4"
        assert measurement.output_width == 8
        assert measurement.n_vectors == in1.size


class TestMultiplierSweep:
    def _triads(self, testbench):
        from repro.core.triad import OperatingTriad

        critical = testbench.nominal_critical_path()
        return [
            OperatingTriad(tclk=critical * ratio, vdd=vdd, vbb=vbb)
            for ratio in (1.5, 0.9)
            for vdd in (1.0, 0.6)
            for vbb in (0.0, 2.0)
        ]

    def test_run_sweep_matches_run_triad(self, mul4_testbench, mul_operands):
        in1, in2 = mul_operands
        triads = self._triads(mul4_testbench)
        sweep = mul4_testbench.run_sweep(in1, in2, triads)
        assert len(sweep) == len(triads)
        for triad, measurement in zip(triads, sweep):
            single = mul4_testbench.run_triad(
                in1, in2, tclk=triad.tclk, vdd=triad.vdd, vbb=triad.vbb
            )
            assert np.array_equal(measurement.latched_words, single.latched_words)
            assert np.array_equal(measurement.error_bits, single.error_bits)
            assert measurement.energy_per_operation == single.energy_per_operation

    def test_engine_sweep_matches_reference_sweep(self, mul4_testbench, mul_operands):
        """The compiled engine path is bit-identical to the per-gate loop."""
        in1, in2 = mul_operands
        triads = self._triads(mul4_testbench)
        engine_sweep = mul4_testbench.run_sweep(in1, in2, triads)
        reference_sweep = oracle.sweep(mul4_testbench, in1, in2, triads)
        for fast, reference in zip(engine_sweep, reference_sweep):
            assert np.array_equal(fast.latched_words, reference.latched_words)
            assert np.array_equal(fast.error_bits, reference.error_bits)
            assert fast.energy_per_operation == reference.energy_per_operation
            assert (
                fast.dynamic_energy_per_operation
                == reference.dynamic_energy_per_operation
            )

    def test_sweep_shape_mismatch_rejected(self, mul4_testbench):
        with pytest.raises(ValueError, match="same shape"):
            mul4_testbench.run_sweep(np.array([1, 2]), np.array([1]), [])
