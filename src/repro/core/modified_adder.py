"""The equivalent statistical operator (functional stand-in for VOS hardware).

After calibration, the model of Fig. 6 replaces the hardware adder at
algorithm level: for each operand pair it extracts the theoretical maximal
carry chain, draws a realised chain limit from the conditional probability
table, and returns the carry-truncated sum.  The class below packages that
three-step recipe together with convenience entry points used by the
application layer (element-wise addition of numpy arrays, accumulation,
dot products).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.carry_model import (
    CarryProbabilityTable,
    carry_truncated_add,
    theoretical_max_carry_chain,
)


@dataclasses.dataclass
class ApproximateAdderModel:
    """Statistical model of an adder operated under voltage over-scaling.

    Parameters
    ----------
    width:
        Operand width in bits.
    table:
        Calibrated conditional probability table ``P(Cmax | Cth_max)``.
    seed:
        Seed of the model's private random generator; the generator state
        advances with every call, so repeated additions of the same operands
        may produce different (but statistically consistent) results, exactly
        like the hardware it imitates.
    saturate:
        When True, operands larger than ``2**width - 1`` are clipped; when
        False they raise, which is the safer default for catching scaling
        bugs in applications.
    """

    width: int
    table: CarryProbabilityTable
    seed: int = 2017
    saturate: bool = False

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.table.width != self.width:
            raise ValueError(
                f"table width {self.table.width} does not match adder width {self.width}"
            )
        self._rng = np.random.default_rng(self.seed)

    # -- basic operator --------------------------------------------------------

    def add(self, in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
        """Approximate addition of two operand arrays.

        Follows the paper's three run-time steps: extract ``Cth_max``, sample
        ``Cmax`` from the table, compute the chain-limited sum.
        """
        a = self._prepare(in1)
        b = self._prepare(in2)
        cth = theoretical_max_carry_chain(a, b, self.width)
        cmax = self.table.sample(cth, self._rng)
        return carry_truncated_add(a, b, self.width, cmax)

    # -- composite helpers used by the applications ----------------------------

    def accumulate(self, values: np.ndarray) -> int:
        """Sum a sequence with the approximate adder (left fold).

        Intermediate results are reduced modulo ``2**width`` (the accumulator
        register width), mirroring a fixed-point datapath.
        """
        values_arr = np.asarray(values, dtype=np.int64).reshape(-1)
        total = 0
        mask = (1 << self.width) - 1
        for value in values_arr:
            total = int(self.add(np.int64(total & mask), np.int64(int(value) & mask)))
            total &= mask
        return total

    def dot(self, values: np.ndarray, weights: np.ndarray) -> int:
        """Fixed-point dot product with exact multiplies and approximate adds.

        This mirrors the paper's use case: the adder is the VOS-scaled
        operator, everything around it stays exact.
        """
        values_arr = np.asarray(values, dtype=np.int64).reshape(-1)
        weights_arr = np.asarray(weights, dtype=np.int64).reshape(-1)
        if values_arr.shape != weights_arr.shape:
            raise ValueError("values and weights must have the same length")
        products = values_arr * weights_arr
        return self.accumulate(products)

    def reseed(self, seed: int) -> None:
        """Reset the private random generator (for reproducible experiments)."""
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    # -- internals --------------------------------------------------------------

    def _prepare(self, operand: np.ndarray) -> np.ndarray:
        values = np.asarray(operand, dtype=np.int64)
        limit = (1 << self.width) - 1
        if self.saturate:
            return np.clip(values, 0, limit)
        if np.any(values < 0) or np.any(values > limit):
            raise ValueError(
                f"operands must lie within [0, {limit}] for a {self.width}-bit adder"
            )
        return values
