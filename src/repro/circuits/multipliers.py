"""Array multiplier generator.

The paper's statistical model targets "basic arithmetic operators"; adders
are the proof of concept, but the application examples (FIR filter, image
convolution) also need multiplications.  The array multiplier here is built
from the same cell set so it can be pushed through the identical
characterization and VOS-simulation flow.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.builder import NetlistBuilder
from repro.circuits.netlist import Netlist
from repro.circuits.operators import check_result_width
from repro.circuits.signals import int_to_bits


@dataclasses.dataclass(frozen=True)
class MultiplierCircuit:
    """An unsigned array multiplier netlist with its port conventions.

    Primary inputs are ``a0..a{n-1}`` and ``b0..b{m-1}``; primary outputs are
    ``p0..p{n+m-1}``.
    """

    netlist: Netlist
    width_a: int
    width_b: int

    def __post_init__(self) -> None:
        if self.width_a <= 0 or self.width_b <= 0:
            raise ValueError("operand widths must be positive")

    @property
    def name(self) -> str:
        """Human readable name, e.g. ``"mul8x8"``."""
        return f"mul{self.width_a}x{self.width_b}"

    @property
    def output_width(self) -> int:
        """Number of product bits."""
        return self.width_a + self.width_b

    def input_assignment(self, in1: np.ndarray, in2: np.ndarray) -> dict[str, np.ndarray]:
        """Map operand integer arrays onto the primary input ports."""
        in1_arr = np.asarray(in1, dtype=np.int64)
        in2_arr = np.asarray(in2, dtype=np.int64)
        if in1_arr.shape != in2_arr.shape:
            raise ValueError("in1 and in2 must have the same shape")
        a_bits = int_to_bits(in1_arr, self.width_a)
        b_bits = int_to_bits(in2_arr, self.width_b)
        assignment: dict[str, np.ndarray] = {}
        for i in range(self.width_a):
            assignment[f"a{i}"] = a_bits[..., i]
        for j in range(self.width_b):
            assignment[f"b{j}"] = b_bits[..., j]
        if "__const0" in self.netlist.primary_inputs:
            assignment["__const0"] = np.zeros(in1_arr.shape, dtype=bool)
        return assignment

    def exact_words(self, in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
        """Golden reference product (``in1 * in2``) as integers."""
        return np.asarray(in1, dtype=np.int64) * np.asarray(in2, dtype=np.int64)

    def output_ports(self) -> tuple[str, ...]:
        """Product port names in LSB-to-MSB order."""
        return tuple(f"p{i}" for i in range(self.output_width))


def array_multiplier(width_a: int, width_b: int | None = None) -> MultiplierCircuit:
    """Generate an unsigned carry-save array multiplier netlist.

    Partial products are AND gates; each row of the array adds one shifted
    partial-product row with a rank of full adders, carries saved diagonally;
    a final ripple stage merges the last carry row.

    Raises
    ------
    ValueError
        For a non-positive width, or a product that does not fit the output
        word (see :func:`~repro.circuits.operators.check_result_width`).
    """
    if width_b is None:
        width_b = width_a
    if width_a <= 0 or width_b <= 0:
        raise ValueError("operand widths must be positive")
    name = f"mul{width_a}x{width_b}"
    check_result_width(name, width_a + width_b)
    builder = NetlistBuilder(name)
    a_nets = [builder.add_input(f"a{i}") for i in range(width_a)]
    b_nets = [builder.add_input(f"b{j}") for j in range(width_b)]
    zero = builder.constant_zero()

    # partial[i][j] = a_i AND b_j contributes to product bit i + j.
    product_width = width_a + width_b
    # Running sum row (carry-save): sums[k] is the current sum at weight k.
    sums: list[int] = [zero] * product_width
    carries: list[int] = [zero] * product_width

    for j in range(width_b):
        new_sums = list(sums)
        new_carries: list[int] = [zero] * product_width
        for i in range(width_a):
            weight = i + j
            partial = builder.and2(a_nets[i], b_nets[j])
            sum_bit, carry_bit = _add_three(builder, sums[weight], carries[weight], partial)
            new_sums[weight] = sum_bit
            if weight + 1 < product_width:
                new_carries[weight + 1] = _merge_carry(
                    builder, new_carries[weight + 1], carry_bit, zero
                )
        sums = new_sums
        carries = new_carries

    # Final carry-propagate stage: ripple the remaining carries into the sums.
    carry = zero
    for k in range(product_width):
        sum_bit, carry_next = _add_three(builder, sums[k], carries[k], carry)
        builder.add_output(f"p{k}", sum_bit)
        carry = carry_next

    return MultiplierCircuit(netlist=builder.build(), width_a=width_a, width_b=width_b)


def _add_three(builder: NetlistBuilder, a: int, b: int, c: int) -> tuple[int, int]:
    """Full adder over three nets (tolerates constant-zero inputs)."""
    return builder.full_adder(a, b, c)


def _merge_carry(builder: NetlistBuilder, existing: int, carry: int, zero: int) -> int:
    """Place a saved carry into a carry-save column.

    In this array structure each column receives at most one saved carry per
    row, so the existing entry must still be the constant-zero net; anything
    else indicates a generator bug and is rejected loudly rather than
    silently dropping a carry.
    """
    del builder  # structural helper kept symmetric with _add_three
    if existing != zero:
        raise AssertionError("carry-save column received two carries in one row")
    return carry
