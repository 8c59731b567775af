"""Tests of the zero-delay logic simulator."""

import numpy as np
import pytest

from repro.circuits.builder import NetlistBuilder
from repro.simulation.logic_sim import LogicSimulator


def _mux_netlist():
    builder = NetlistBuilder("mux")
    a = builder.add_input("a")
    b = builder.add_input("b")
    sel = builder.add_input("sel")
    builder.add_output("y", builder.mux2(a, b, sel))
    return builder.build()


class TestLogicSimulator:
    def test_all_nets_returned(self, rca8):
        simulator = LogicSimulator(rca8.netlist)
        values = simulator.run(rca8.input_assignment(np.array([1]), np.array([2])))
        assert len(values) == rca8.netlist.net_count

    def test_run_outputs_keys(self, rca8):
        outputs = LogicSimulator(rca8.netlist).run_outputs(
            rca8.input_assignment(np.array([1]), np.array([2]))
        )
        assert set(outputs) == set(rca8.netlist.primary_outputs)

    def test_missing_input_rejected(self):
        netlist = _mux_netlist()
        with pytest.raises(ValueError, match="missing values"):
            LogicSimulator(netlist).run({"a": np.array([True])})

    def test_unknown_input_rejected(self):
        netlist = _mux_netlist()
        inputs = {
            "a": np.array([True]),
            "b": np.array([False]),
            "sel": np.array([True]),
            "bogus": np.array([True]),
        }
        with pytest.raises(ValueError, match="unknown primary inputs"):
            LogicSimulator(netlist).run(inputs)

    def test_inconsistent_shapes_rejected(self):
        netlist = _mux_netlist()
        inputs = {
            "a": np.array([True, False]),
            "b": np.array([False]),
            "sel": np.array([True]),
        }
        with pytest.raises(ValueError, match="inconsistent shapes"):
            LogicSimulator(netlist).run(inputs)

    def test_mux_selects_correct_input(self):
        netlist = _mux_netlist()
        outputs = LogicSimulator(netlist).run_outputs(
            {
                "a": np.array([True, True]),
                "b": np.array([False, False]),
                "sel": np.array([False, True]),
            },
        )
        assert outputs["y"].tolist() == [True, False]

    def test_run_output_word_matches_exact_addition(self, bka8, random_operand_batch):
        in1, in2 = random_operand_batch
        simulator = LogicSimulator(bka8.netlist)
        result = simulator.run_output_word(
            bka8.input_assignment(in1, in2), bka8.output_ports()
        )
        assert np.array_equal(result, in1 + in2)

    def test_batch_shapes_preserved(self, rca8):
        in1 = np.arange(10)
        in2 = np.arange(10)
        simulator = LogicSimulator(rca8.netlist)
        outputs = simulator.run_outputs(rca8.input_assignment(in1, in2))
        assert all(values.shape == (10,) for values in outputs.values())
