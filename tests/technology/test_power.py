"""Tests of the energy / power models."""

import numpy as np
import pytest

from repro.technology.power import (
    EnergyBreakdown,
    leakage_energy_per_cycle,
    leakage_power,
    switching_energy,
)


class TestSwitchingEnergy:
    def test_quadratic_supply_dependence(self):
        cap = 1e-15
        full = float(switching_energy(cap, 1.0))
        half = float(switching_energy(cap, 0.5))
        assert half == pytest.approx(full / 4.0)

    def test_linear_in_capacitance_and_activity(self):
        base = float(switching_energy(1e-15, 1.0, activity=0.5))
        assert float(switching_energy(2e-15, 1.0, activity=0.5)) == pytest.approx(2 * base)
        assert float(switching_energy(1e-15, 1.0, activity=1.0)) == pytest.approx(2 * base)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            switching_energy(-1e-15, 1.0)
        with pytest.raises(ValueError):
            switching_energy(1e-15, 1.0, activity=-0.1)

    def test_vectorised(self):
        energies = switching_energy(1e-15, np.array([0.4, 0.7, 1.0]))
        assert energies.shape == (3,)
        assert np.all(np.diff(energies) > 0)


class TestLeakage:
    def test_leakage_power_positive(self):
        assert float(leakage_power(1.0)) > 0.0

    def test_leakage_energy_scales_with_clock_period(self):
        short = float(leakage_energy_per_cycle(1.0, 0.0, 1e-9))
        long = float(leakage_energy_per_cycle(1.0, 0.0, 2e-9))
        assert long == pytest.approx(2 * short)

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            leakage_energy_per_cycle(1.0, 0.0, -1e-9)

    def test_slowing_the_clock_alone_does_not_reduce_energy(self):
        # The paper's argument for scaling Vdd *with* the clock: stretching
        # Tclk at constant voltage only adds leakage energy.
        dynamic = float(switching_energy(50e-15, 1.0))
        total_fast = dynamic + float(leakage_energy_per_cycle(1.0, 0.0, 0.3e-9, device_width=50))
        total_slow = dynamic + float(leakage_energy_per_cycle(1.0, 0.0, 3.0e-9, device_width=50))
        assert total_slow > total_fast


class TestEnergyBreakdown:
    def test_total_and_unit_conversion(self):
        breakdown = EnergyBreakdown(dynamic=1e-12, static=0.5e-12)
        assert breakdown.total == pytest.approx(1.5e-12)

    def test_addition_combines_components(self):
        combined = EnergyBreakdown(1e-12, 2e-12) + EnergyBreakdown(3e-12, 4e-12)
        assert combined.dynamic == pytest.approx(4e-12)
        assert combined.static == pytest.approx(6e-12)

    def test_scaling(self):
        scaled = EnergyBreakdown(1e-12, 2e-12).scaled(0.5)
        assert scaled.dynamic == pytest.approx(0.5e-12)
        assert scaled.static == pytest.approx(1e-12)

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(-1e-12, 0.0)
        with pytest.raises(ValueError):
            EnergyBreakdown(1e-12, 0.0).scaled(-1.0)
