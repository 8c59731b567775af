"""Tests of the declarative design space."""

import pytest

from repro.circuits.adders import SpeculativeAdderCircuit
from repro.circuits.operators import OperatorSpec
from repro.core.characterization import CharacterizationFlow
from repro.core.triad import PAPER_SUPPLY_VOLTAGES
from repro.explore import DesignSpace, TriadSpec


class TestCandidateSpec:
    def test_plain_candidate_builds_named_circuit(self):
        candidate = OperatorSpec("rca", 8)
        circuit = candidate.build()
        assert circuit.name == "rca8" == candidate.name
        assert circuit.width == 8

    def test_speculative_candidate_builds_windowed_circuit(self):
        candidate = OperatorSpec("spa", 16, 4)
        circuit = candidate.build()
        assert isinstance(circuit, SpeculativeAdderCircuit)
        assert circuit.name == "spa16w4" == candidate.name
        assert circuit.window == 4

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown adder architecture"):
            OperatorSpec("magic", 8)

    def test_window_requires_speculative_architecture(self):
        with pytest.raises(ValueError, match="speculative candidates"):
            OperatorSpec("rca", 8, 4)

    def test_window_must_fit_width(self):
        with pytest.raises(ValueError, match="window"):
            OperatorSpec("spa", 8, 8)


class TestDesignSpace:
    def test_candidate_order_is_deterministic_and_deduplicated(self):
        space = DesignSpace.from_axes(
            architectures=("bka", "rca", "rca"),
            widths=(16, 8, 8),
            speculation_windows=(None, 4, 4),
        )
        names = [candidate.name for candidate in space]
        assert names == sorted(set(names), key=names.index)  # no duplicates
        assert names == [c.name for c in space.candidates()]
        # speculative candidates collapse the architecture axis
        assert names.count("spa8w4") == 1 and names.count("spa16w4") == 1

    def test_windows_wider_than_width_are_skipped(self):
        space = DesignSpace.from_axes(("rca",), (8,), (None, 8, 12))
        assert [c.name for c in space] == ["rca8"]

    def test_supported_widths_all_build(self):
        # 61 is the widest adder whose sum and carry-out fit the 62-bit
        # output word.
        space = DesignSpace.from_axes(("rca",), (8, 16, 32, 61), (None,))
        for candidate in space:
            assert candidate.build().width == candidate.width
        with pytest.raises(ValueError, match="rca64 has a 65-bit result"):
            DesignSpace.from_axes(("rca",), (64,), (None,)).candidates()

    def test_table3_subspace(self):
        names = {c.name for c in DesignSpace.table3_subspace()}
        assert names == {"rca8", "bka8", "rca16", "bka16"}

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpace(architectures=())
        with pytest.raises(ValueError):
            DesignSpace(widths=(0,))
        with pytest.raises(ValueError):
            DesignSpace(speculation_windows=())
        with pytest.raises(ValueError):
            DesignSpace(speculation_windows=(-1,))
        with pytest.raises(ValueError):
            DesignSpace(architectures=("rca", "wat"))

    def test_len_matches_candidates(self):
        space = DesignSpace.from_axes(("rca", "bka"), (8,), (None, 2))
        assert len(space) == len(space.candidates()) == 3


class TestTriadSpec:
    def test_default_is_the_matched_table3_grid(self, rca8):
        flow = CharacterizationFlow(rca8)
        grid = TriadSpec().grid_for(flow)
        assert grid.triads == flow.default_triad_grid().triads

    def test_dense_grid_scales_with_the_critical_path(self, rca8):
        flow = CharacterizationFlow(rca8)
        spec = TriadSpec(
            clock_scales=(1.0, 0.5),
            supply_voltages=(1.0, 0.6),
            body_bias_voltages=(0.0, 2.0),
        )
        grid = spec.grid_for(flow)
        assert len(grid) == 2 * 2 * 2
        critical_ns = flow.guard_banded_critical_path() * 1e9
        periods = sorted({triad.tclk_ns for triad in grid})
        assert periods == sorted(
            {round(critical_ns * 0.5, 4), round(critical_ns * 1.0, 4)}
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TriadSpec(clock_scales=())
        with pytest.raises(ValueError):
            TriadSpec(clock_scales=(0.0,))
        with pytest.raises(ValueError):
            TriadSpec(supply_voltages=())
        with pytest.raises(ValueError):
            TriadSpec(body_bias_voltages=())

    def test_paper_axes_are_the_defaults(self):
        spec = TriadSpec()
        assert spec.supply_voltages == PAPER_SUPPLY_VOLTAGES
        assert spec.clock_scales is None


class TestReviewRegressions:
    def test_body_bias_outside_supported_range_rejected_at_declaration(self):
        with pytest.raises(ValueError, match="body bias"):
            TriadSpec(clock_scales=(1.0,), body_bias_voltages=(5.0,))

    def test_skipped_windows_are_reported(self):
        space = DesignSpace.from_axes(("rca",), (8, 16), (None, 8, 12))
        assert space.skipped_windows() == ((8, 8), (8, 12))
        assert {c.name for c in space} == {"rca8", "rca16", "spa16w8", "spa16w12"}

    def test_no_skipped_windows_for_fitting_axes(self):
        assert DesignSpace.from_axes(("rca",), (16,), (None, 4)).skipped_windows() == ()
