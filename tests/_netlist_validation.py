"""Structural validation of netlists.

The structural check the adder and multiplier generator tests apply to
every netlist they build: the invariants every simulator relies on.
"""

from __future__ import annotations

from repro.circuits.cells import GATE_ARITY
from repro.circuits.netlist import Netlist


class NetlistValidationError(ValueError):
    """Raised when a netlist violates a structural invariant."""


def validate_netlist(netlist: Netlist) -> None:
    """Validate the structural invariants of a netlist.

    Checks performed (in addition to those the :class:`Netlist` constructor
    already enforces -- single driver per net, no combinational loops):

    * every gate input is driven (by a primary input or another gate),
    * every gate type has the right number of input pins,
    * every primary output is reachable from at least one primary input,
    * there are no floating nets that neither drive nor are driven.

    Raises
    ------
    NetlistValidationError
        If any invariant is violated.
    """
    driven: set[int] = set(netlist.input_nets)
    for gate in netlist.gates:
        driven.add(gate.output)

    for gate in netlist.gates:
        expected = GATE_ARITY[gate.gate_type]
        if len(gate.inputs) != expected:
            raise NetlistValidationError(
                f"gate {gate.name!r} ({gate.gate_type.value}) has "
                f"{len(gate.inputs)} inputs, expected {expected}"
            )
        for net in gate.inputs:
            if net not in driven:
                raise NetlistValidationError(
                    f"gate {gate.name!r} input net {net} is undriven"
                )

    for port, net in netlist.primary_outputs.items():
        if net not in driven:
            raise NetlistValidationError(f"primary output {port!r} (net {net}) is undriven")

    used: set[int] = set(netlist.output_nets)
    for gate in netlist.gates:
        used.update(gate.inputs)
    floating = [
        net
        for net in range(netlist.net_count)
        if net not in used and net not in netlist.input_nets and net in driven
    ]
    # Gate outputs that drive nothing are tolerated only if they are not the
    # majority of the design (generators may leave a few dangling carries).
    if len(floating) > max(4, netlist.gate_count // 4):
        raise NetlistValidationError(
            f"netlist {netlist.name!r} has {len(floating)} floating driven nets"
        )

    reachable = _reachable_from_inputs(netlist)
    for port, net in netlist.primary_outputs.items():
        if net not in reachable:
            raise NetlistValidationError(
                f"primary output {port!r} is not reachable from any primary input"
            )


def _reachable_from_inputs(netlist: Netlist) -> set[int]:
    """Set of nets reachable (transitively) from the primary inputs."""
    reachable: set[int] = set(netlist.input_nets)
    for gate in netlist.topological_gates:
        if any(net in reachable for net in gate.inputs):
            reachable.add(gate.output)
    return reachable
