"""Tests of the netlist builder."""

import numpy as np
import pytest

from repro.circuits.builder import NetlistBuilder
from repro.circuits.cells import GateType
from repro.simulation import engine


class TestBuilderBasics:
    def test_inputs_get_distinct_nets(self):
        builder = NetlistBuilder("t")
        a = builder.add_input("a")
        b = builder.add_input("b")
        assert a != b

    def test_duplicate_input_rejected(self):
        builder = NetlistBuilder("t")
        builder.add_input("a")
        with pytest.raises(ValueError, match="duplicate primary input"):
            builder.add_input("a")

    def test_duplicate_output_rejected(self):
        builder = NetlistBuilder("t")
        a = builder.add_input("a")
        builder.add_output("y", a)
        with pytest.raises(ValueError, match="duplicate primary output"):
            builder.add_output("y", a)

    def test_output_must_reference_existing_net(self):
        builder = NetlistBuilder("t")
        builder.add_input("a")
        with pytest.raises(ValueError, match="unknown net"):
            builder.add_output("y", 99)

    def test_gate_input_must_exist(self):
        builder = NetlistBuilder("t")
        with pytest.raises(ValueError, match="unknown net"):
            builder.inv(3)

    def test_gate_arity_checked(self):
        builder = NetlistBuilder("t")
        a = builder.add_input("a")
        with pytest.raises(ValueError, match="expects 2 inputs"):
            builder.add_gate(GateType.XOR2, a)

    def test_constants_are_memoised(self):
        builder = NetlistBuilder("t")
        assert builder.constant_zero() == builder.constant_zero()
        assert builder.constant_one() == builder.constant_one()
        assert builder.constant_zero() != builder.constant_one()

    def test_build_requires_outputs(self):
        builder = NetlistBuilder("t")
        builder.add_input("a")
        with pytest.raises(ValueError, match="no primary outputs"):
            builder.build()

    def test_gate_count_tracks_instances(self):
        builder = NetlistBuilder("t")
        a = builder.add_input("a")
        builder.inv(a)
        builder.inv(a)
        assert builder.gate_count == 2

    def test_instance_names_default_and_custom(self):
        builder = NetlistBuilder("t")
        a = builder.add_input("a")
        builder.inv(a)
        builder.inv(a, name="my_inv")
        builder.add_output("y", a)
        names = [gate.name for gate in builder.build().gates]
        assert "my_inv" in names
        assert any(name.startswith("inv_") for name in names)


class TestCompositeHelpers:
    def _simulate(self, builder, outputs, assignments):
        netlist = builder.build()
        values = engine.evaluate_values(
            netlist, engine.bind_inputs(netlist, assignments)
        )
        ports = netlist.primary_outputs
        return {name: bool(values[ports[name]][0]) for name in outputs}

    def test_half_adder_truth_table(self):
        for a_val, b_val in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            builder = NetlistBuilder("ha")
            a = builder.add_input("a")
            b = builder.add_input("b")
            s, c = builder.half_adder(a, b)
            builder.add_output("s", s)
            builder.add_output("c", c)
            result = self._simulate(
                builder,
                ["s", "c"],
                {"a": np.array([bool(a_val)]), "b": np.array([bool(b_val)])},
            )
            assert int(result["s"]) == (a_val + b_val) % 2
            assert int(result["c"]) == (a_val + b_val) // 2

    def test_full_adder_truth_table(self):
        for a_val in (0, 1):
            for b_val in (0, 1):
                for c_val in (0, 1):
                    builder = NetlistBuilder("fa")
                    a = builder.add_input("a")
                    b = builder.add_input("b")
                    c = builder.add_input("c")
                    s, carry = builder.full_adder(a, b, c)
                    builder.add_output("s", s)
                    builder.add_output("co", carry)
                    result = self._simulate(
                        builder,
                        ["s", "co"],
                        {
                            "a": np.array([bool(a_val)]),
                            "b": np.array([bool(b_val)]),
                            "c": np.array([bool(c_val)]),
                        },
                    )
                    total = a_val + b_val + c_val
                    assert int(result["s"]) == total % 2
                    assert int(result["co"]) == total // 2
