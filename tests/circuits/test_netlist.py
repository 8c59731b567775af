"""Tests of the netlist graph structure."""

import pytest

from repro.circuits.builder import NetlistBuilder
from repro.circuits.cells import GateType
from repro.circuits.netlist import Gate, Netlist


def _small_netlist():
    builder = NetlistBuilder("toy")
    a = builder.add_input("a")
    b = builder.add_input("b")
    x = builder.xor2(a, b)
    y = builder.and2(a, x)
    builder.add_output("x", x)
    builder.add_output("y", y)
    return builder.build()


class TestNetlistStructure:
    def test_counts(self):
        netlist = _small_netlist()
        assert netlist.gate_count == 2
        assert netlist.net_count == 4
        assert set(netlist.primary_inputs) == {"a", "b"}
        assert set(netlist.primary_outputs) == {"x", "y"}

    def test_logic_levels_and_depth(self):
        netlist = _small_netlist()
        assert netlist.logic_depth == 2

    def test_fanout_counts(self):
        netlist = _small_netlist()
        a_net = netlist.primary_inputs["a"]
        x_net = netlist.primary_outputs["x"]
        assert netlist.fanout(a_net) == 2  # xor and and
        assert netlist.fanout(x_net) == 2  # and gate + primary output

    def test_topological_order_respects_dependencies(self):
        netlist = _small_netlist()
        order = [gate.gate_type for gate in netlist.topological_gates]
        assert order.index(GateType.XOR2) < order.index(GateType.AND2)

    def test_gate_type_histogram(self):
        histogram = _small_netlist().gate_type_histogram()
        assert histogram == {"AND2": 1, "XOR2": 1}

    def test_repr_contains_name_and_counts(self):
        text = repr(_small_netlist())
        assert "toy" in text and "gates=2" in text


class TestNetlistValidationAtConstruction:
    def test_multiple_drivers_rejected(self):
        gates = [
            Gate(GateType.INV, (0,), 1, "g0"),
            Gate(GateType.INV, (0,), 1, "g1"),
        ]
        with pytest.raises(ValueError, match="multiple drivers"):
            Netlist("bad", 2, {"a": 0}, {"y": 1}, gates)

    def test_combinational_loop_rejected(self):
        gates = [
            Gate(GateType.INV, (2,), 1, "g0"),
            Gate(GateType.INV, (1,), 2, "g1"),
        ]
        with pytest.raises(ValueError, match="loop"):
            Netlist("loop", 3, {"a": 0}, {"y": 1}, gates)

    def test_undriven_output_rejected(self):
        with pytest.raises(ValueError, match="undriven"):
            Netlist("bad", 2, {"a": 0}, {"y": 1}, [])

    def test_undeclared_net_rejected(self):
        gates = [Gate(GateType.INV, (5,), 1, "g0")]
        with pytest.raises(ValueError, match="undeclared net"):
            Netlist("bad", 2, {"a": 0}, {"y": 1}, gates)

    def test_gate_arity_enforced(self):
        with pytest.raises(ValueError, match="expects 2 inputs"):
            Gate(GateType.XOR2, (0,), 1)

    def test_negative_net_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Gate(GateType.INV, (-1,), 0)

    def test_zero_net_count_rejected(self):
        with pytest.raises(ValueError):
            Netlist("bad", 0, {}, {}, [])
