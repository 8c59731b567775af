"""Tests of zero-delay (functional) simulation on the compiled engine."""

import numpy as np
import pytest

from repro.circuits.builder import NetlistBuilder
from repro.circuits.signals import bits_to_int
from repro.simulation import engine


def _mux_netlist():
    builder = NetlistBuilder("mux")
    a = builder.add_input("a")
    b = builder.add_input("b")
    sel = builder.add_input("sel")
    builder.add_output("y", builder.mux2(a, b, sel))
    return builder.build()


def _settle(netlist, inputs):
    return engine.evaluate_values(netlist, engine.bind_inputs(netlist, inputs))


def _packed_outputs(netlist, inputs):
    """Settled primary outputs from the bit-packed mode, keyed by port."""
    words, n_vectors = engine.evaluate_packed(
        netlist, engine.bind_inputs(netlist, inputs)
    )
    bits = engine.unpack_vectors(words, n_vectors)
    return {port: bits[net] for port, net in netlist.primary_outputs.items()}


class TestZeroDelaySimulation:
    def test_all_nets_returned(self, rca8):
        values = _settle(
            rca8.netlist, rca8.input_assignment(np.array([1]), np.array([2]))
        )
        assert values.shape == (rca8.netlist.net_count, 1)

    def test_missing_input_rejected(self):
        netlist = _mux_netlist()
        with pytest.raises(ValueError, match="missing values"):
            _settle(netlist, {"a": np.array([True])})

    def test_unknown_input_rejected(self):
        netlist = _mux_netlist()
        inputs = {
            "a": np.array([True]),
            "b": np.array([False]),
            "sel": np.array([True]),
            "bogus": np.array([True]),
        }
        with pytest.raises(ValueError, match="unknown primary inputs"):
            _settle(netlist, inputs)

    def test_inconsistent_shapes_rejected(self):
        netlist = _mux_netlist()
        inputs = {
            "a": np.array([True, False]),
            "b": np.array([False]),
            "sel": np.array([True]),
        }
        with pytest.raises(ValueError, match="inconsistent shapes"):
            _settle(netlist, inputs)

    def test_mux_selects_correct_input(self):
        netlist = _mux_netlist()
        outputs = _packed_outputs(
            netlist,
            {
                "a": np.array([True, True]),
                "b": np.array([False, False]),
                "sel": np.array([False, True]),
            },
        )
        assert outputs["y"].tolist() == [True, False]

    def test_output_word_matches_exact_addition(self, bka8, random_operand_batch):
        in1, in2 = random_operand_batch
        outputs = _packed_outputs(bka8.netlist, bka8.input_assignment(in1, in2))
        bits = np.stack([outputs[port] for port in bka8.output_ports()], axis=-1)
        assert np.array_equal(bits_to_int(bits), in1 + in2)

    def test_batch_shapes_preserved(self, rca8):
        in1 = np.arange(10)
        in2 = np.arange(10)
        outputs = _packed_outputs(rca8.netlist, rca8.input_assignment(in1, in2))
        assert all(values.shape == (10,) for values in outputs.values())
