"""Integer <-> bit-vector conversions used throughout the simulators.

Conventions:

* Bit 0 is the least-significant bit (LSB); arrays are ordered LSB first.
* Operand matrices have shape ``(n_vectors, n_bits)``; a batch of integers is
  converted column by column so the simulators can work on one bit position
  at a time.
"""

from __future__ import annotations

import numpy as np

#: Widest output word, in bits, that :func:`bits_to_int` packs into a
#: non-negative ``int64``; it bounds every operator's result width.
MAX_WORD_BITS = 62


def int_to_bits(values: np.ndarray | int, n_bits: int) -> np.ndarray:
    """Convert unsigned integers to an LSB-first boolean bit matrix.

    Parameters
    ----------
    values:
        Scalar or array of non-negative integers, each < ``2**n_bits``.
    n_bits:
        Width of the produced bit vectors.

    Returns
    -------
    numpy.ndarray
        Boolean array of shape ``values.shape + (n_bits,)``.
    """
    if n_bits <= 0:
        raise ValueError("n_bits must be positive")
    array = np.asarray(values, dtype=np.int64)
    if np.any(array < 0):
        raise ValueError("values must be non-negative")
    if np.any(array >= (1 << n_bits)):
        raise ValueError(f"values must be < 2**{n_bits}")
    shifts = np.arange(n_bits, dtype=np.int64).reshape((n_bits,) + (1,) * array.ndim)
    # Bit-major layout: each bit position is a contiguous slab, so the
    # per-bit-position slices the simulators take (``bits[..., i]``) are
    # contiguous arrays that pack/copy at full memory bandwidth.
    return np.moveaxis(((array[None, ...] >> shifts) & 1).astype(bool), 0, -1)


def bits_to_int(bits: np.ndarray) -> np.ndarray:
    """Convert an LSB-first boolean bit matrix back to unsigned integers.

    The last axis is interpreted as the bit axis; entries are booleans or
    0/1 integers.  The bits are packed into the bytes of an ``int64``
    little-endian word (``np.packbits(..., bitorder="little")``), which is
    exact and gives the same integers as the weighted sum
    ``sum(bit_i << i)`` without an int64 temporary per bit.
    """
    array = np.asarray(bits)
    n_bits = array.shape[-1]
    if n_bits > MAX_WORD_BITS:
        raise ValueError(f"bits_to_int supports at most {MAX_WORD_BITS} bits")
    packed = np.packbits(array, axis=-1, bitorder="little")
    words = np.zeros(array.shape[:-1] + (8,), dtype=np.uint8)
    words[..., : packed.shape[-1]] = packed
    # ``[()]`` turns the 0-d result of a single bit vector into a scalar.
    return words.view("<i8")[..., 0].astype(np.int64, copy=False)[()]
