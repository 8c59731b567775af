"""Carry-chain arithmetic and the conditional probability table of Table I.

The paper's statistical model of a VOS-scaled adder has a single parameter:
``Cmax``, the longest carry-propagation chain that completes within the clock
period.  This module provides the three ingredients of that model:

* :func:`theoretical_max_carry_chain` -- ``Cth_max(in1, in2)``, the longest
  carry chain the *exact* addition of the operands would exercise;
* :func:`carry_truncated_add`         -- the "modified adder": the sum of the
  operands with every carry chain truncated after ``Cmax`` positions;
* :class:`CarryProbabilityTable`      -- ``P(Cmax = k | Cth_max = l)``,
  the lower-triangular conditional probability table of Table I, with
  sampling support used by the run-time model.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.signals import int_to_bits, bits_to_int


def generate_propagate(
    in1: np.ndarray, in2: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bit generate and propagate signals of the operand pair.

    Returns ``(generate, propagate)`` boolean arrays of shape
    ``operands.shape + (width,)`` with bit 0 first.
    """
    a_bits = int_to_bits(np.asarray(in1), width)
    b_bits = int_to_bits(np.asarray(in2), width)
    return a_bits & b_bits, a_bits ^ b_bits


def theoretical_max_carry_chain(
    in1: np.ndarray, in2: np.ndarray, width: int
) -> np.ndarray:
    """Longest carry-propagation chain of the exact addition, per operand pair.

    A chain starts at a *generate* position (both operand bits set) and
    extends through the consecutive *propagate* positions (exactly one
    operand bit set) above it.  Its length counts the generate position plus
    the propagate positions it travels through, so the value ranges from 0
    (no carry generated anywhere) to ``width`` (a carry born at bit 0 that
    ripples through every remaining position).  This is the column index
    ``Cth_max`` of the paper's Table I.
    """
    generate, propagate = generate_propagate(in1, in2, width)
    flat_generate = generate.reshape(-1, width)
    flat_propagate = propagate.reshape(-1, width)
    n_vectors = flat_generate.shape[0]
    longest = np.zeros(n_vectors, dtype=np.int64)
    current = np.zeros(n_vectors, dtype=np.int64)
    for position in range(width):
        g = flat_generate[:, position]
        p = flat_propagate[:, position]
        # A generate restarts the chain at length 1; a propagate extends a
        # live chain by one; a kill position terminates it.
        current = np.where(g, 1, np.where(p & (current > 0), current + 1, 0))
        longest = np.maximum(longest, current)
    return longest.reshape(np.asarray(in1).shape)


def carry_truncated_add(
    in1: np.ndarray,
    in2: np.ndarray,
    width: int,
    cmax: np.ndarray | int,
) -> np.ndarray:
    """Sum of the operands with carry chains truncated after ``cmax`` positions.

    This is the paper's "modified adder" ``add_modified(in1, in2, C)``: the
    carry into bit ``j`` is produced only by generates at positions
    ``j - cmax .. j - 1`` whose propagation path to ``j`` is unbroken.  With
    ``cmax = 0`` the result is the carry-free sum ``in1 XOR in2``; with
    ``cmax >= Cth_max(in1, in2)`` the result is exact.

    Parameters
    ----------
    in1, in2:
        Operand arrays (non-negative integers below ``2**width``).
    width:
        Operand width in bits; the result has ``width + 1`` bits.
    cmax:
        Scalar or per-operand-pair array of maximal carry-chain lengths.
    """
    in1_arr = np.asarray(in1, dtype=np.int64)
    in2_arr = np.asarray(in2, dtype=np.int64)
    if in1_arr.shape != in2_arr.shape:
        raise ValueError("in1 and in2 must have the same shape")
    cmax_arr = np.broadcast_to(np.asarray(cmax, dtype=np.int64), in1_arr.shape)
    if np.any(cmax_arr < 0) or np.any(cmax_arr > width):
        raise ValueError(f"cmax values must lie within [0, {width}]")

    generate, propagate = generate_propagate(in1_arr, in2_arr, width)
    flat_g = generate.reshape(-1, width)
    flat_p = propagate.reshape(-1, width)
    flat_cmax = cmax_arr.reshape(-1)
    n_vectors = flat_g.shape[0]

    # carry[:, j] = carry into bit position j (j in 0..width); position 0 has
    # no carry in.  chain_age tracks how many positions the live carry has
    # travelled, so it can be killed once it exceeds the per-vector budget.
    sum_bits = np.zeros((n_vectors, width + 1), dtype=bool)
    carry = np.zeros(n_vectors, dtype=bool)
    age = np.zeros(n_vectors, dtype=np.int64)
    for position in range(width):
        sum_bits[:, position] = flat_p[:, position] ^ carry
        propagated = flat_p[:, position] & carry
        new_age = np.where(
            flat_g[:, position], 1, np.where(propagated, age + 1, 0)
        )
        new_carry = flat_g[:, position] | propagated
        # Truncate: a chain older than the budget is dropped.
        over_budget = new_age > flat_cmax
        carry = new_carry & ~over_budget
        age = np.where(carry, new_age, 0)
    sum_bits[:, width] = carry
    result = bits_to_int(sum_bits)
    return result.reshape(in1_arr.shape)


class CarryProbabilityTable:
    """Conditional probability table ``P(Cmax = k | Cth_max = l)`` (Table I).

    The table is lower triangular: the effective carry chain can never exceed
    the theoretical one, so ``P(k | l) = 0`` for ``k > l``; the column for
    ``l = 0`` is the point mass at ``k = 0``.

    Parameters
    ----------
    width:
        Operand width ``N``; the table has ``(N + 1) x (N + 1)`` entries.
    probabilities:
        Optional initial matrix, rows indexed by ``k`` (realised chain) and
        columns by ``l`` (theoretical chain).  Defaults to the identity
        (error-free adder: every chain completes).
    """

    def __init__(self, width: int, probabilities: np.ndarray | None = None) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self._width = width
        size = width + 1
        if probabilities is None:
            matrix = np.eye(size)
        else:
            matrix = np.array(probabilities, dtype=float, copy=True)
            if matrix.shape != (size, size):
                raise ValueError(f"probabilities must have shape ({size}, {size})")
        self._validate(matrix)
        self._matrix = matrix

    def _validate(self, matrix: np.ndarray) -> None:
        if np.any(matrix < -1e-12):
            raise ValueError("probabilities must be non-negative")
        upper = np.triu(matrix, k=1)
        # Upper triangle must be zero *above* the diagonal when read as
        # (row=k, column=l): entries with k > l live below the diagonal, so
        # the invalid region is the strictly lower triangle transposed --
        # i.e. matrix[k, l] for k > l.
        invalid = np.tril(matrix, k=-1)
        if np.any(invalid > 1e-9):
            raise ValueError("P(Cmax=k | Cth_max=l) must be zero for k > l")
        del upper
        column_sums = matrix.sum(axis=0)
        for column, total in enumerate(column_sums):
            if not (abs(total - 1.0) < 1e-6 or abs(total) < 1e-12):
                raise ValueError(
                    f"column {column} must sum to 1 (or be all-zero), got {total!r}"
                )

    @property
    def width(self) -> int:
        """Operand width the table was built for."""
        return self._width

    @property
    def matrix(self) -> np.ndarray:
        """A copy of the probability matrix (rows: Cmax, columns: Cth_max)."""
        return self._matrix.copy()

    def probability(self, cmax: int, cth_max: int) -> float:
        """``P(Cmax = cmax | Cth_max = cth_max)``."""
        return float(self._matrix[cmax, cth_max])

    def sample(self, cth_max: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw ``Cmax`` values for an array of theoretical chain lengths.

        Columns that were never observed during calibration (all-zero) fall
        back to the identity behaviour (``Cmax = Cth_max``), which keeps the
        model exact for unseen chain lengths instead of silently corrupting
        them.
        """
        lengths = np.asarray(cth_max, dtype=np.int64)
        if np.any(lengths < 0) or np.any(lengths > self._width):
            raise ValueError(f"cth_max values must lie within [0, {self._width}]")
        flat = lengths.reshape(-1)
        samples = np.empty_like(flat)
        uniforms = rng.random(flat.shape[0])
        for column in np.unique(flat):
            mask = flat == column
            distribution = self._matrix[:, column]
            total = distribution.sum()
            if total == 0:
                samples[mask] = column
                continue
            cumulative = np.cumsum(distribution / total)
            samples[mask] = np.searchsorted(cumulative, uniforms[mask], side="right")
        samples = np.minimum(samples, self._width)
        return samples.reshape(lengths.shape)

    @classmethod
    def from_counts(cls, width: int, counts: np.ndarray) -> "CarryProbabilityTable":
        """Build a table from raw occurrence counts (Algorithm 1 output).

        Each column is normalised by its own total; unobserved columns stay
        all-zero and are treated as identity by :meth:`sample`.
        """
        count_matrix = np.asarray(counts, dtype=float)
        size = width + 1
        if count_matrix.shape != (size, size):
            raise ValueError(f"counts must have shape ({size}, {size})")
        if np.any(count_matrix < 0):
            raise ValueError("counts must be non-negative")
        totals = count_matrix.sum(axis=0)
        matrix = np.zeros_like(count_matrix)
        nonzero = totals > 0
        matrix[:, nonzero] = count_matrix[:, nonzero] / totals[nonzero]
        return cls(width, matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CarryProbabilityTable):
            return NotImplemented
        return self._width == other._width and np.allclose(self._matrix, other._matrix)

    def __repr__(self) -> str:
        return f"CarryProbabilityTable(width={self._width})"
