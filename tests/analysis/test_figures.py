"""Tests of the figure generators (Fig. 5, 7, 8)."""

import numpy as np
import pytest

from repro.analysis.figures import (
    fig5_ber_per_bit,
    fig7_model_accuracy,
    fig8_ber_energy_series,
    render_fig8,
)


class TestFig5:
    def test_series_shapes_and_trend(self):
        series = fig5_ber_per_bit(
            supply_voltages=(0.7, 0.5), n_vectors=1200, seed=3
        )
        assert [s.vdd for s in series] == [0.7, 0.5]
        for entry in series:
            assert entry.ber_per_bit.shape == (9,)
            assert np.all(entry.ber_per_bit >= 0.0)
        # Deeper over-scaling raises the mean BER.
        assert series[1].mean_ber > series[0].mean_ber

    def test_lsbs_fail_last(self):
        series = fig5_ber_per_bit(supply_voltages=(0.5,), n_vectors=1500, seed=4)[0]
        # Bit 0 never depends on a carry, so it must stay clean while the
        # upper half of the output word shows substantial error rates.
        assert series.ber_per_bit[0] == 0.0
        assert series.ber_per_bit[4:].max() > 0.05


class TestFig7:
    def test_points_cover_benchmarks_and_metrics(self):
        points = fig7_model_accuracy(
            benchmarks=(("rca", 8),),
            metrics=("mse", "hamming"),
            n_vectors=600,
            max_triads=3,
        )
        assert len(points) == 2
        names = {point.adder_name for point in points}
        assert names == {"rca8"}
        for point in points:
            assert point.mean_normalized_hamming < 0.5
            assert point.mean_snr_db > 0.0 or point.mean_snr_db == float("inf")


class TestFig8:
    def test_series_ordering_and_lengths(self, rca8_characterization):
        series = fig8_ber_energy_series(rca8_characterization)
        assert len(series.labels) == len(rca8_characterization.results) == 43
        energies = series.energy_per_operation_pj
        assert np.all(np.diff(energies) <= 1e-12)
        assert int(np.sum(series.ber_percent == 0.0)) >= 5

    def test_two_regime_shape(self, rca8_characterization):
        """Left half of the plot: energy falls while BER stays mostly 0;
        right half: BER rises as energy keeps falling (Fig. 8 narrative)."""
        series = fig8_ber_energy_series(rca8_characterization)
        half = len(series.labels) // 2
        left_zero_fraction = float(np.mean(series.ber_percent[:half] == 0.0))
        assert left_zero_fraction > 0.5
        assert series.ber_percent[half:].max() > 10.0
        # Energy at the faulty end is far below the error-free end.
        assert series.energy_per_operation_pj[-1] < 0.5 * series.energy_per_operation_pj[0]

    def test_render_contains_labels(self, rca8_characterization):
        series = fig8_ber_energy_series(rca8_characterization)
        text = render_fig8(series)
        assert series.adder_name in text
        assert series.labels[0] in text
