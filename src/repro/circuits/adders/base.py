"""Common wrapper for generated adder netlists."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.netlist import Netlist
from repro.circuits.signals import int_to_bits


@dataclasses.dataclass(frozen=True)
class AdderCircuit:
    """An adder netlist together with its operand/result port conventions.

    Attributes
    ----------
    netlist:
        The gate-level netlist.  Primary inputs are named ``a0..a{n-1}``,
        ``b0..b{n-1}`` (plus optional constant nets); primary outputs are
        ``s0..s{n}`` where ``s{n}`` is the carry out.
    width:
        Operand width ``n`` in bits.
    architecture:
        Short architecture tag (``"rca"``, ``"bka"``, ...).
    """

    netlist: Netlist
    width: int
    architecture: str

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        inputs = self.netlist.primary_inputs
        outputs = self.netlist.primary_outputs
        for i in range(self.width):
            for port in (f"a{i}", f"b{i}"):
                if port not in inputs:
                    raise ValueError(f"adder netlist is missing input port {port!r}")
        for i in range(self.width + 1):
            if f"s{i}" not in outputs:
                raise ValueError(f"adder netlist is missing output port s{i!r}")

    @property
    def name(self) -> str:
        """Human readable name, e.g. ``"rca8"``."""
        return f"{self.architecture}{self.width}"

    @property
    def output_width(self) -> int:
        """Number of result bits (operand width + carry out)."""
        return self.width + 1

    def input_assignment(self, in1: np.ndarray, in2: np.ndarray) -> dict[str, np.ndarray]:
        """Map operand integer arrays onto the netlist's primary input ports.

        Constant nets (``__const0`` / ``__const1``) are driven with their
        fixed values.  The returned dictionary can be passed directly to the
        logic and timing simulators.
        """
        in1_arr = np.asarray(in1, dtype=np.int64)
        in2_arr = np.asarray(in2, dtype=np.int64)
        if in1_arr.shape != in2_arr.shape:
            raise ValueError("in1 and in2 must have the same shape")
        a_bits = int_to_bits(in1_arr, self.width)
        b_bits = int_to_bits(in2_arr, self.width)
        assignment: dict[str, np.ndarray] = {}
        for i in range(self.width):
            assignment[f"a{i}"] = a_bits[..., i]
            assignment[f"b{i}"] = b_bits[..., i]
        if "__const0" in self.netlist.primary_inputs:
            assignment["__const0"] = np.zeros(in1_arr.shape, dtype=bool)
        if "__const1" in self.netlist.primary_inputs:
            assignment["__const1"] = np.ones(in1_arr.shape, dtype=bool)
        return assignment

    def exact_words(self, in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
        """Golden reference result (``in1 + in2``) as integers."""
        return np.asarray(in1, dtype=np.int64) + np.asarray(in2, dtype=np.int64)

    def output_ports(self) -> tuple[str, ...]:
        """Result port names in LSB-to-MSB order (``s0`` .. ``s{n}``)."""
        return tuple(f"s{i}" for i in range(self.output_width))
