"""Netlist graph: nets, gates, primary I/O, topological order and fanout.

A :class:`Netlist` is a directed acyclic graph of gate instances connected by
integer-identified nets.  It is deliberately simple -- only what the logic
simulator, the VOS timing simulator and the synthesis reports need:

* nets are integers ``0 .. net_count - 1``; a net has exactly one driver
  (either a primary input or a gate output),
* gates reference their input and output nets and carry a
  :class:`~repro.circuits.cells.GateType`,
* the topological order of gates is computed once and cached, since every
  simulation walks the gates in that order.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Mapping, Sequence

from repro.circuits.cells import GATE_ARITY, GateType


@dataclasses.dataclass(frozen=True)
class Gate:
    """A combinational gate instance.

    Attributes
    ----------
    gate_type:
        Cell type of the instance.
    inputs:
        Net identifiers of the input pins, in pin order.
    output:
        Net identifier driven by the gate.
    name:
        Optional instance name, useful in reports and error messages.
    """

    gate_type: GateType
    inputs: tuple[int, ...]
    output: int
    name: str = ""

    def __post_init__(self) -> None:
        expected = GATE_ARITY[self.gate_type]
        if len(self.inputs) != expected:
            raise ValueError(
                f"{self.gate_type.value} gate {self.name!r} expects {expected} "
                f"inputs, got {len(self.inputs)}"
            )
        if any(net < 0 for net in self.inputs) or self.output < 0:
            raise ValueError("net identifiers must be non-negative")


class Netlist:
    """Gate-level combinational netlist.

    Parameters
    ----------
    name:
        Design name (e.g. ``"rca8"``).
    net_count:
        Total number of nets.
    primary_inputs:
        Mapping from input port name to net identifier, in declaration order.
    primary_outputs:
        Mapping from output port name to net identifier, in declaration order.
    gates:
        Gate instances.  They need not be in topological order; the
        constructor computes and caches a valid order.
    """

    def __init__(
        self,
        name: str,
        net_count: int,
        primary_inputs: Mapping[str, int],
        primary_outputs: Mapping[str, int],
        gates: Sequence[Gate],
    ) -> None:
        if net_count <= 0:
            raise ValueError("net_count must be positive")
        self._name = name
        self._net_count = net_count
        self._primary_inputs = dict(primary_inputs)
        self._primary_outputs = dict(primary_outputs)
        self._gates = tuple(gates)
        self._check_structure()
        self._topological_gates = self._topological_sort()
        self._fanout_counts = self._compute_fanout()
        self._logic_levels = self._compute_levels()
        self._level_groups: tuple[tuple[int, GateType, tuple[int, ...]], ...] | None = None

    # -- construction helpers -------------------------------------------------

    def _check_structure(self) -> None:
        drivers: dict[int, str] = {}
        for port, net in self._primary_inputs.items():
            if net in drivers:
                raise ValueError(f"net {net} has multiple drivers ({drivers[net]}, {port})")
            drivers[net] = f"input {port}"
        for gate in self._gates:
            if gate.output in drivers:
                raise ValueError(
                    f"net {gate.output} has multiple drivers "
                    f"({drivers[gate.output]}, gate {gate.name or gate.gate_type.value})"
                )
            drivers[gate.output] = f"gate {gate.name or gate.gate_type.value}"
        all_nets = set(range(self._net_count))
        for gate in self._gates:
            for net in (*gate.inputs, gate.output):
                if net not in all_nets:
                    raise ValueError(f"gate references undeclared net {net}")
        for port, net in {**self._primary_inputs, **self._primary_outputs}.items():
            if net not in all_nets:
                raise ValueError(f"port {port} references undeclared net {net}")
        for port, net in self._primary_outputs.items():
            if net not in drivers:
                raise ValueError(f"primary output {port} (net {net}) is undriven")

    def _topological_sort(self) -> tuple[Gate, ...]:
        """Kahn's algorithm over the gate graph (nets are the edges)."""
        driver_gate: dict[int, int] = {}
        for index, gate in enumerate(self._gates):
            driver_gate[gate.output] = index
        dependencies: list[set[int]] = [set() for _ in self._gates]
        dependents: list[set[int]] = [set() for _ in self._gates]
        for index, gate in enumerate(self._gates):
            for net in gate.inputs:
                producer = driver_gate.get(net)
                if producer is not None:
                    dependencies[index].add(producer)
                    dependents[producer].add(index)
        in_degree = [len(deps) for deps in dependencies]
        ready = deque(i for i, degree in enumerate(in_degree) if degree == 0)
        order: list[Gate] = []
        while ready:
            index = ready.popleft()
            order.append(self._gates[index])
            for dependent in dependents[index]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    ready.append(dependent)
        if len(order) != len(self._gates):
            raise ValueError(f"netlist {self._name!r} contains a combinational loop")
        return tuple(order)

    def _compute_fanout(self) -> tuple[int, ...]:
        counts = [0] * self._net_count
        for gate in self._gates:
            for net in gate.inputs:
                counts[net] += 1
        for net in self._primary_outputs.values():
            counts[net] += 1
        return tuple(counts)

    def _compute_levels(self) -> tuple[int, ...]:
        """Logic level (depth in gates) of every net; primary inputs are 0."""
        levels = [0] * self._net_count
        for gate in self._topological_gates:
            levels[gate.output] = 1 + max(levels[net] for net in gate.inputs)
        return tuple(levels)

    # -- public accessors ------------------------------------------------------

    @property
    def name(self) -> str:
        """Design name."""
        return self._name

    @property
    def net_count(self) -> int:
        """Total number of nets in the design."""
        return self._net_count

    @property
    def primary_inputs(self) -> dict[str, int]:
        """Ordered mapping of primary input port names to net ids."""
        return dict(self._primary_inputs)

    @property
    def primary_outputs(self) -> dict[str, int]:
        """Ordered mapping of primary output port names to net ids."""
        return dict(self._primary_outputs)

    @property
    def input_nets(self) -> tuple[int, ...]:
        """Net ids of the primary inputs, in declaration order."""
        return tuple(self._primary_inputs.values())

    @property
    def output_nets(self) -> tuple[int, ...]:
        """Net ids of the primary outputs, in declaration order."""
        return tuple(self._primary_outputs.values())

    @property
    def gates(self) -> tuple[Gate, ...]:
        """Gates in their original declaration order."""
        return self._gates

    @property
    def topological_gates(self) -> tuple[Gate, ...]:
        """Gates sorted so every gate appears after all its drivers."""
        return self._topological_gates

    @property
    def gate_count(self) -> int:
        """Number of gate instances."""
        return len(self._gates)

    @property
    def logic_depth(self) -> int:
        """Maximum number of gates on any input-to-output path."""
        if not self._gates:
            return 0
        return max(self._logic_levels[net] for net in self.output_nets)

    def fanout(self, net: int) -> int:
        """Number of gate inputs (plus primary outputs) the net drives."""
        return self._fanout_counts[net]

    def gate_type_histogram(self) -> dict[str, int]:
        """Count of gate instances per cell type (for synthesis reports)."""
        histogram: dict[str, int] = {}
        for gate in self._gates:
            histogram[gate.gate_type.value] = histogram.get(gate.gate_type.value, 0) + 1
        return dict(sorted(histogram.items()))

    def level_groups(self) -> tuple[tuple[int, GateType, tuple[int, ...]], ...]:
        """Same-typed gates grouped per evaluation wave, as topological indices.

        Returns ``(wave, gate_type, topo_indices)`` triples ordered by wave
        then gate-type name.  All inputs of a wave-``W`` gate settle in waves
        below ``W``, so evaluating the groups in this order is a valid
        schedule in which every group can be evaluated *at once*.  This is the
        structural hook the compiled simulation engine builds its per-group
        index arrays from; it is computed once and cached on the netlist.

        Waves are logic levels with one scheduling refinement: *sink* gates
        (gates whose output drives no other gate, only primary outputs) are
        deferred to a single final wave.  Nothing depends on them, so the
        deferral is always legal, and it merges gates that plain
        level-grouping would scatter -- e.g. the sum XORs of a ripple-carry
        adder sit at eight different levels along the carry chain but form
        one vectorisable group at the end.
        """
        if self._level_groups is None:
            consumed = [0] * self._net_count
            for gate in self._gates:
                for net in gate.inputs:
                    consumed[net] += 1
            max_level = max(
                (
                    self._logic_levels[gate.output]
                    for gate in self._gates
                    if consumed[gate.output] > 0
                ),
                default=0,
            )
            buckets: dict[tuple[int, str], list[int]] = {}
            for index, gate in enumerate(self._topological_gates):
                wave = (
                    max_level + 1
                    if consumed[gate.output] == 0
                    else self._logic_levels[gate.output]
                )
                buckets.setdefault((wave, gate.gate_type.value), []).append(index)
            self._level_groups = tuple(
                (wave, GateType(type_name), tuple(indices))
                for (wave, type_name), indices in sorted(buckets.items())
            )
        return self._level_groups

    def __repr__(self) -> str:
        return (
            f"Netlist(name={self._name!r}, gates={self.gate_count}, "
            f"nets={self._net_count}, depth={self.logic_depth})"
        )
