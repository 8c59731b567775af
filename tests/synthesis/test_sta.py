"""Tests of static timing analysis."""

import numpy as np
import pytest

from repro.simulation.timing_sim import VosTimingSimulator
from repro.synthesis.sta import StaticTimingAnalysis


class TestStaticTimingAnalysis:
    def test_critical_path_positive_and_in_expected_range(self, rca8):
        sta = StaticTimingAnalysis(rca8.netlist, vdd=1.0)
        # Calibration target: the paper's Table II reports 0.28 ns for the
        # 8-bit RCA; the analytical substrate must land in the same decade.
        assert 0.1e-9 < sta.critical_path_delay < 1.0e-9

    def test_margin_scales_reported_delay(self, rca8):
        plain = StaticTimingAnalysis(rca8.netlist, vdd=1.0)
        padded = StaticTimingAnalysis(rca8.netlist, vdd=1.0, timing_margin=1.5)
        assert padded.critical_path_delay == pytest.approx(1.5 * plain.critical_path_delay)

    def test_margin_below_one_rejected(self, rca8):
        with pytest.raises(ValueError):
            StaticTimingAnalysis(rca8.netlist, vdd=1.0, timing_margin=0.9)

    def test_critical_path_trace_ends_at_msb_region(self, rca8):
        sta = StaticTimingAnalysis(rca8.netlist, vdd=1.0)
        path = sta.critical_path()
        # The structurally longest path of an RCA ends at the carry-out or
        # the MSB sum.
        assert path.output_port in {"s7", "s8"}
        assert path.depth >= 8
        assert path.arrival_time == pytest.approx(sta.critical_path_delay)

    def test_slack_signs(self, rca8):
        sta = StaticTimingAnalysis(rca8.netlist, vdd=1.0)
        generous = sta.slack(sta.critical_path_delay * 2)
        tight = sta.slack(sta.critical_path_delay * 0.5)
        assert all(value > 0 for value in generous.values())
        assert min(tight.values()) < 0
        with pytest.raises(ValueError):
            sta.slack(0.0)

    def test_arrival_times_monotone_along_carry_chain(self, rca8):
        sta = StaticTimingAnalysis(rca8.netlist, vdd=1.0)
        outputs = rca8.netlist.primary_outputs
        arrivals = [sta.arrival_time(outputs[f"s{i}"]) for i in range(9)]
        assert arrivals[0] < arrivals[4] < arrivals[8]

    def test_sta_matches_simulator_annotation(self, rca8):
        sta = StaticTimingAnalysis(rca8.netlist, vdd=0.7)
        simulator = VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())
        annotation = simulator.annotation(0.7, 0.0)
        assert sta.critical_path_delay == pytest.approx(annotation.critical_path_delay)

    def test_sta_no_dynamic_errors_at_reported_clock(self, rca8):
        """A clock taken from STA must be safe in the dynamic simulation."""
        sta = StaticTimingAnalysis(rca8.netlist, vdd=0.8)
        simulator = VosTimingSimulator(rca8.netlist, output_ports=rca8.output_ports())
        rng = np.random.default_rng(2)
        in1 = rng.integers(0, 256, 500)
        in2 = rng.integers(0, 256, 500)
        result = simulator.run(
            rca8.input_assignment(in1, in2),
            tclk=sta.critical_path_delay,
            vdd=0.8,
        )
        assert np.array_equal(result.latched_words, in1 + in2)

    def test_bka_critical_path_shorter_than_rca(self, rca8, bka8, rca16, bka16):
        for rca, bka in ((rca8, bka8), (rca16, bka16)):
            rca_sta = StaticTimingAnalysis(rca.netlist, vdd=1.0)
            bka_sta = StaticTimingAnalysis(bka.netlist, vdd=1.0)
            assert bka_sta.critical_path_delay < rca_sta.critical_path_delay
