"""Gate-level circuit substrate.

The paper characterises structural (gate-level) adder netlists produced by a
synthesis tool.  This package re-creates that substrate in Python:

* :mod:`repro.circuits.cells`    -- combinational cell set and their boolean
  functions (vectorised over numpy arrays).
* :mod:`repro.circuits.netlist`  -- the netlist graph (nets, gates, primary
  I/O, topological order, fanout).
* :mod:`repro.circuits.builder`  -- a small fluent builder used by all the
  generators.
* :mod:`repro.circuits.adders`   -- adder generators: ripple-carry (RCA) and
  Brent-Kung (BKA) as in the paper, plus Kogge-Stone, carry-lookahead,
  carry-select and carry-skip extensions.
* :mod:`repro.circuits.multipliers` -- array multiplier built from the same
  cells (used by the application examples).
* :mod:`repro.circuits.operators` -- the canonical operator-spec grammar
  (``rca8`` ... ``spa16w4``) shared by the design-space module, the typed
  job API and the CLI.
* :mod:`repro.circuits.signals`  -- integer <-> bit-vector conversions.
"""

from repro.circuits.cells import GateType, evaluate_gate, GATE_FUNCTIONS
from repro.circuits.netlist import Gate, Netlist
from repro.circuits.builder import NetlistBuilder
from repro.circuits.signals import (
    int_to_bits,
    bits_to_int,
)
from repro.circuits.adders import (
    AdderCircuit,
    SpeculativeAdderCircuit,
    ripple_carry_adder,
    brent_kung_adder,
    kogge_stone_adder,
    carry_lookahead_adder,
    carry_select_adder,
    carry_skip_adder,
    speculative_adder,
    ADDER_GENERATORS,
    build_adder,
)
from repro.circuits.multipliers import array_multiplier, MultiplierCircuit
from repro.circuits.operators import (
    OperatorSpec,
    parse_circuit_spec,
    parse_windows,
)

__all__ = [
    "GateType",
    "evaluate_gate",
    "GATE_FUNCTIONS",
    "Gate",
    "Netlist",
    "NetlistBuilder",
    "int_to_bits",
    "bits_to_int",
    "AdderCircuit",
    "SpeculativeAdderCircuit",
    "speculative_adder",
    "ripple_carry_adder",
    "brent_kung_adder",
    "kogge_stone_adder",
    "carry_lookahead_adder",
    "carry_select_adder",
    "carry_skip_adder",
    "ADDER_GENERATORS",
    "build_adder",
    "array_multiplier",
    "MultiplierCircuit",
    "OperatorSpec",
    "parse_circuit_spec",
    "parse_windows",
]
