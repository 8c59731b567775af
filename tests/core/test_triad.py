"""Tests of operating triads and the Table III grids."""

import pytest

from repro.core.triad import (
    PAPER_CLOCK_PERIODS_NS,
    PAPER_CRITICAL_PATHS_NS,
    PAPER_SUPPLY_VOLTAGES,
    OperatingTriad,
    TriadGrid,
    benchmark_triad_grid,
    matched_triad_grid,
)


class TestOperatingTriad:
    def test_basic_properties(self):
        triad = OperatingTriad(tclk=0.28e-9, vdd=0.8, vbb=2.0)
        assert triad.tclk_ns == pytest.approx(0.28)

    def test_label_format_matches_paper(self):
        assert OperatingTriad(0.28e-9, 0.5, 2.0).label() == "0.28,0.5,±2"
        assert OperatingTriad(0.5e-9, 1.0, 0.0).label() == "0.5,1,0"
        assert OperatingTriad(0.13e-9, 0.7, -2.0).label() == "0.13,0.7,±2"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            OperatingTriad(tclk=0.0, vdd=1.0, vbb=0.0)
        with pytest.raises(ValueError):
            OperatingTriad(tclk=1e-9, vdd=0.0, vbb=0.0)

    def test_replace(self):
        triad = OperatingTriad(0.28e-9, 1.0, 0.0)
        scaled = triad.replace(vdd=0.5)
        assert scaled.vdd == pytest.approx(0.5)
        assert scaled.tclk == triad.tclk

    def test_triads_are_hashable_and_comparable(self):
        a = OperatingTriad(0.28e-9, 1.0, 0.0)
        b = OperatingTriad(0.28e-9, 1.0, 0.0)
        assert a == b
        assert len({a, b}) == 1


class TestTriadGrid:
    def test_from_product_size(self):
        grid = TriadGrid.from_product((0.5, 0.28), (1.0, 0.8), (0.0, 2.0))
        assert len(grid) == 8

    def test_deduplication_and_deterministic_order(self):
        triads = [OperatingTriad(1e-9, 1.0, 0.0), OperatingTriad(1e-9, 1.0, 0.0)]
        grid = TriadGrid(triads)
        assert len(grid) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            TriadGrid([])

    def test_filter_by_supply_and_bias(self):
        grid = TriadGrid.from_product((0.28,), (1.0, 0.7, 0.4), (-2.0, 0.0, 2.0))
        filtered = grid.filter(min_vdd=0.7, vbb_values=(0.0,))
        assert all(t.vdd >= 0.7 and t.vbb == 0.0 for t in filtered)
        assert len(filtered) == 2

    def test_nominal_is_relaxed_highest_supply_no_bias(self):
        grid = TriadGrid.from_product((0.5, 0.28), (1.0, 0.4), (0.0, 2.0))
        nominal = grid.nominal()
        assert nominal.vdd == pytest.approx(1.0)
        assert nominal.vbb == 0.0
        assert nominal.tclk == pytest.approx(0.5e-9)

    def test_indexing(self):
        grid = TriadGrid.from_product((0.28,), (1.0,), (0.0,))
        assert isinstance(grid[0], OperatingTriad)


class TestPaperGrids:
    @pytest.mark.parametrize("name", sorted(PAPER_CLOCK_PERIODS_NS))
    def test_benchmark_grid_has_43_triads(self, name):
        grid = benchmark_triad_grid(PAPER_CLOCK_PERIODS_NS[name])
        assert len(grid) == 43

    def test_grid_structure_relaxed_clock_only_at_nominal(self):
        grid = benchmark_triad_grid(PAPER_CLOCK_PERIODS_NS["rca8"])
        relaxed = max(t.tclk for t in grid)
        relaxed_triads = [t for t in grid if t.tclk == relaxed]
        assert len(relaxed_triads) == 1
        assert relaxed_triads[0].vdd == pytest.approx(1.0)
        assert relaxed_triads[0].vbb == 0.0

    def test_grid_covers_all_supplies(self):
        grid = benchmark_triad_grid(PAPER_CLOCK_PERIODS_NS["bka16"])
        supplies = {t.vdd for t in grid}
        assert supplies == set(PAPER_SUPPLY_VOLTAGES)

    def test_matched_grid_scales_with_measured_critical_path(self):
        matched = matched_triad_grid("rca8", PAPER_CRITICAL_PATHS_NS["rca8"] * 1e-9 * 2)
        original = benchmark_triad_grid(PAPER_CLOCK_PERIODS_NS["rca8"])
        assert len(matched) == 43
        assert max(t.tclk for t in matched) == pytest.approx(
            2 * max(t.tclk for t in original), rel=1e-3
        )

    def test_matched_grid_identity_when_paths_agree(self):
        matched = matched_triad_grid("bka8", PAPER_CRITICAL_PATHS_NS["bka8"] * 1e-9)
        original = benchmark_triad_grid(PAPER_CLOCK_PERIODS_NS["bka8"])
        assert {round(t.tclk_ns, 3) for t in matched} == {
            round(t.tclk_ns, 3) for t in original
        }

    def test_matched_grid_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matched_triad_grid("rca8", 0.0)
        with pytest.raises(ValueError):
            matched_triad_grid("unknown", 1e-9)

    def test_benchmark_grid_requires_two_clocks(self):
        with pytest.raises(ValueError):
            benchmark_triad_grid((0.5,))


class TestBodyBiasValidation:
    def test_paper_body_biases_accepted(self):
        for vbb in (-2.0, 0.0, 2.0):
            assert OperatingTriad(tclk=1e-9, vdd=1.0, vbb=vbb).vbb == vbb

    def test_range_limits_are_inclusive(self):
        from repro.technology.library import SUPPORTED_BODY_BIAS_RANGE

        low, high = SUPPORTED_BODY_BIAS_RANGE
        assert OperatingTriad(tclk=1e-9, vdd=1.0, vbb=low).vbb == low
        assert OperatingTriad(tclk=1e-9, vdd=1.0, vbb=high).vbb == high

    def test_out_of_range_body_bias_rejected_at_construction(self):
        with pytest.raises(ValueError, match="body-bias range"):
            OperatingTriad(tclk=1e-9, vdd=1.0, vbb=5.0)
        with pytest.raises(ValueError, match="body-bias range"):
            OperatingTriad(tclk=1e-9, vdd=1.0, vbb=-3.5)

    def test_replace_revalidates(self):
        triad = OperatingTriad(tclk=1e-9, vdd=1.0, vbb=0.0)
        with pytest.raises(ValueError, match="body-bias range"):
            triad.replace(vbb=10.0)
