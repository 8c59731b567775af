"""Tests of the device models: threshold, drive current, leakage."""

import numpy as np
import pytest

from repro.technology.device import (
    drive_current,
    effective_threshold_voltage,
    inversion_charge_factor,
    subthreshold_leakage_current,
)
from repro.technology.fdsoi28 import FDSOI28_LVT


class TestEffectiveThresholdVoltage:
    def test_zero_body_bias_returns_nominal_vt(self):
        assert effective_threshold_voltage(0.0) == pytest.approx(FDSOI28_LVT.vt0)

    def test_forward_body_bias_lowers_threshold(self):
        assert effective_threshold_voltage(2.0) < FDSOI28_LVT.vt0

    def test_reverse_body_bias_raises_threshold(self):
        assert effective_threshold_voltage(-2.0) > FDSOI28_LVT.vt0

    def test_shift_matches_body_bias_coefficient(self):
        shift = FDSOI28_LVT.vt0 - float(effective_threshold_voltage(1.0))
        assert shift == pytest.approx(FDSOI28_LVT.body_bias_coefficient)

    def test_extreme_bias_is_clamped(self):
        assert effective_threshold_voltage(10.0) == pytest.approx(FDSOI28_LVT.vt_min)
        assert effective_threshold_voltage(-10.0) == pytest.approx(FDSOI28_LVT.vt_max)

    def test_vectorised_evaluation(self):
        values = effective_threshold_voltage(np.array([-2.0, 0.0, 2.0]))
        assert values.shape == (3,)
        assert values[0] > values[1] > values[2]


class TestDriveCurrent:
    def test_current_increases_with_supply(self):
        low = float(drive_current(0.5))
        high = float(drive_current(1.0))
        assert high > low > 0.0

    def test_current_increases_with_forward_body_bias(self):
        assert float(drive_current(0.6, vbb=2.0)) > float(drive_current(0.6, vbb=0.0))

    def test_current_scales_with_drive_strength(self):
        unit = float(drive_current(1.0, drive_strength=1.0))
        double = float(drive_current(1.0, drive_strength=2.0))
        assert double == pytest.approx(2.0 * unit)

    def test_subthreshold_current_is_positive_but_small(self):
        sub = float(drive_current(0.25))
        nominal = float(drive_current(1.0))
        assert 0.0 < sub < nominal / 20.0

    def test_zero_drive_strength_rejected(self):
        with pytest.raises(ValueError):
            drive_current(1.0, drive_strength=0.0)

    def test_strong_inversion_matches_alpha_power_law(self):
        # Far above threshold, the EKV interpolation must converge to
        # k * (Vdd - Vt)^alpha within a few percent.
        vdd = 1.0
        expected = FDSOI28_LVT.current_factor * (vdd - FDSOI28_LVT.vt0) ** FDSOI28_LVT.alpha
        assert float(drive_current(vdd)) == pytest.approx(expected, rel=0.10)


class TestInversionChargeFactor:
    def test_monotonic_in_overdrive(self):
        overdrives = np.linspace(-0.3, 0.6, 20)
        values = inversion_charge_factor(FDSOI28_LVT.vt0 + overdrives, FDSOI28_LVT.vt0)
        assert np.all(np.diff(values) > 0)

    def test_large_overdrive_is_linear(self):
        q = float(inversion_charge_factor(5.0, 0.4))
        n_phi = 2 * FDSOI28_LVT.subthreshold_slope_factor * FDSOI28_LVT.thermal_voltage
        assert q == pytest.approx((5.0 - 0.4) / n_phi, rel=1e-6)


class TestLeakage:
    def test_leakage_increases_with_forward_body_bias(self):
        forward = float(subthreshold_leakage_current(1.0, vbb=2.0))
        nominal = float(subthreshold_leakage_current(1.0, vbb=0.0))
        reverse = float(subthreshold_leakage_current(1.0, vbb=-2.0))
        assert forward > nominal > reverse > 0.0

    def test_leakage_at_nominal_matches_parameter(self):
        nominal = float(subthreshold_leakage_current(FDSOI28_LVT.vdd_nominal, 0.0))
        assert nominal == pytest.approx(FDSOI28_LVT.leakage_current_nominal, rel=0.05)

    def test_leakage_shrinks_with_supply(self):
        assert float(subthreshold_leakage_current(0.4)) < float(
            subthreshold_leakage_current(1.0)
        )

    def test_on_off_ratio_collapses_when_over_scaling(self):
        def on_off_current_ratio(vdd):
            return float(drive_current(vdd)) / float(subthreshold_leakage_current(vdd))

        ratio_nominal = on_off_current_ratio(1.0)
        ratio_scaled = on_off_current_ratio(0.4)
        assert ratio_nominal > ratio_scaled > 1.0
        assert ratio_nominal / ratio_scaled > 3.0
