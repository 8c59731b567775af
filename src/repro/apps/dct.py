"""Fixed-point 8-point DCT built on the approximate adder model.

The discrete cosine transform is the core of image/video compression, one of
the application classes the paper lists as error resilient.  The transform
here uses an integer (scaled) DCT-II matrix; the per-coefficient dot products
accumulate with either exact arithmetic or the approximate adder model.
"""

from __future__ import annotations

import numpy as np

from repro.core.modified_adder import ApproximateAdderModel

#: Fixed-point scale of the integer DCT matrix entries.
DCT_SCALE = 64


def dct_matrix(size: int = 8, scale: int = DCT_SCALE) -> np.ndarray:
    """Integer DCT-II matrix of the requested size (entries scaled by ``scale``)."""
    if size <= 0:
        raise ValueError("size must be positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    k = np.arange(size).reshape(-1, 1)
    n = np.arange(size).reshape(1, -1)
    basis = np.cos(np.pi * (2 * n + 1) * k / (2 * size))
    basis[0, :] *= 1.0 / np.sqrt(2.0)
    basis *= np.sqrt(2.0 / size)
    return np.round(basis * scale).astype(np.int64)


def dct_1d(
    samples: np.ndarray,
    adder: ApproximateAdderModel | None = None,
    matrix: np.ndarray | None = None,
) -> np.ndarray:
    """1-D integer DCT of a sample block.

    Parameters
    ----------
    samples:
        Integer samples (one block, any length matching the matrix size).
    adder:
        Approximate adder model for the accumulations; exact when ``None``.
    matrix:
        Pre-computed integer DCT matrix; defaults to :func:`dct_matrix` of
        the block size.
    """
    block = np.asarray(samples, dtype=np.int64)
    if block.ndim != 1:
        raise ValueError("samples must be a 1-D block")
    transform = dct_matrix(block.size) if matrix is None else np.asarray(matrix, dtype=np.int64)
    if transform.shape != (block.size, block.size):
        raise ValueError("matrix shape does not match the block size")
    coefficients = np.empty(block.size, dtype=np.int64)
    for row in range(block.size):
        products = transform[row] * block
        coefficients[row] = _accumulate(products, adder)
    return coefficients


def _accumulate(products: np.ndarray, adder: ApproximateAdderModel | None) -> int:
    if adder is None:
        return int(products.sum())
    positive = products[products > 0]
    negative = -products[products < 0]
    pos_total = adder.accumulate(positive) if positive.size else 0
    neg_total = adder.accumulate(negative) if negative.size else 0
    return int(pos_total) - int(neg_total)
