"""Tests of process corners."""

import pytest

from repro.technology.corners import (
    _CORNER_ADJUSTMENTS,
    ProcessCorner,
    apply_corner,
    corner_library,
)
from repro.technology.delay import GateDelayModel
from repro.technology.fdsoi28 import FDSOI28_LVT, FDSOI28_RVT
from repro.technology.library import DEFAULT_LIBRARY


class TestProcessCorners:
    def test_typical_corner_is_identity_except_name(self):
        typical = apply_corner(ProcessCorner.TYPICAL)
        assert typical.current_factor == pytest.approx(FDSOI28_LVT.current_factor)
        assert typical.vt0 == pytest.approx(FDSOI28_LVT.vt0)
        assert "TT" in typical.name

    def test_slow_corner_is_slower_than_fast_corner(self):
        slow = GateDelayModel(1.0, 0.0, apply_corner(ProcessCorner.SLOW)).tau
        fast = GateDelayModel(1.0, 0.0, apply_corner(ProcessCorner.FAST)).tau
        typical = GateDelayModel(1.0, 0.0, FDSOI28_LVT).tau
        assert slow > typical > fast

    def test_every_corner_produces_valid_parameters(self):
        for corner in ProcessCorner:
            tech = apply_corner(corner)
            assert tech.vt_min <= tech.vt0 <= tech.vt_max

    @pytest.mark.parametrize("corner", list(ProcessCorner))
    def test_apply_corner_applies_the_tabulated_adjustments(self, corner):
        current_scale, vt_shift = _CORNER_ADJUSTMENTS[corner]
        tech = apply_corner(corner)
        assert tech.current_factor == pytest.approx(
            FDSOI28_LVT.current_factor * current_scale
        )
        expected_vt = min(
            max(FDSOI28_LVT.vt0 + vt_shift, FDSOI28_LVT.vt_min), FDSOI28_LVT.vt_max
        )
        assert tech.vt0 == pytest.approx(expected_vt)
        assert tech.name.endswith(corner.value)

    @pytest.mark.parametrize("corner", list(ProcessCorner))
    def test_apply_corner_respects_a_custom_base_technology(self, corner):
        tech = apply_corner(corner, FDSOI28_RVT)
        current_scale, _ = _CORNER_ADJUSTMENTS[corner]
        assert tech.current_factor == pytest.approx(
            FDSOI28_RVT.current_factor * current_scale
        )
        assert "RVT" in tech.name

    def test_vt_shift_clamped_to_technology_window(self):
        near_ceiling = FDSOI28_LVT.with_overrides(vt0=FDSOI28_LVT.vt_max - 0.01)
        slow = apply_corner(ProcessCorner.SLOW, near_ceiling)
        assert slow.vt0 == pytest.approx(near_ceiling.vt_max)

    def test_mixed_corners_skew_without_the_full_shift(self):
        sf = apply_corner(ProcessCorner.SLOW_NMOS_FAST_PMOS)
        fs = apply_corner(ProcessCorner.FAST_NMOS_SLOW_PMOS)
        ss = apply_corner(ProcessCorner.SLOW)
        ff = apply_corner(ProcessCorner.FAST)
        assert ss.current_factor < sf.current_factor < FDSOI28_LVT.current_factor
        assert ff.current_factor > fs.current_factor > FDSOI28_LVT.current_factor

    @pytest.mark.parametrize("corner", list(ProcessCorner))
    def test_corner_library_binds_cells_to_the_shifted_technology(self, corner):
        library = corner_library(corner)
        assert library.cell_names == DEFAULT_LIBRARY.cell_names
        assert library.technology == apply_corner(corner)
        for name in library.cell_names:
            assert library.cell(name) == DEFAULT_LIBRARY.cell(name)
