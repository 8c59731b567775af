"""Image convolution workloads (box blur, Sobel edge detection).

Image filtering is the prototypical error-resilient application in the
approximate-computing literature the paper builds on: per-pixel accumulation
errors show up as mild noise while the picture stays recognisable.  The
kernels here operate on unsigned 8-bit synthetic images and accumulate with
either exact arithmetic or an approximate adder model.
"""

from __future__ import annotations

import numpy as np

from repro.core.modified_adder import ApproximateAdderModel


def synthetic_gradient_image(height: int = 32, width: int = 32) -> np.ndarray:
    """Diagonal gradient test image with values in 0..255."""
    if height <= 0 or width <= 0:
        raise ValueError("image dimensions must be positive")
    rows = np.arange(height).reshape(-1, 1)
    cols = np.arange(width).reshape(1, -1)
    image = (rows * 255 // max(height - 1, 1) + cols * 255 // max(width - 1, 1)) // 2
    return image.astype(np.int64)


def convolve2d(
    image: np.ndarray,
    kernel: np.ndarray,
    adder: ApproximateAdderModel | None = None,
    normalize: int = 1,
    clip_to_byte: bool = True,
) -> np.ndarray:
    """2-D convolution with integer kernel and optional approximate accumulation.

    Parameters
    ----------
    image:
        2-D array of non-negative integer pixels.
    kernel:
        2-D integer kernel (may contain negative weights).
    adder:
        Approximate adder model used for the per-pixel accumulation; exact
        when ``None``.
    normalize:
        Divisor applied to the accumulated value (e.g. kernel sum for a box
        blur).
    clip_to_byte:
        Clip the result to 0..255 (standard for 8-bit image pipelines).
    """
    pixels = np.asarray(image, dtype=np.int64)
    weights = np.asarray(kernel, dtype=np.int64)
    if pixels.ndim != 2 or weights.ndim != 2:
        raise ValueError("image and kernel must be 2-D arrays")
    if normalize <= 0:
        raise ValueError("normalize must be positive")
    pad_r, pad_c = weights.shape[0] // 2, weights.shape[1] // 2
    padded = np.pad(pixels, ((pad_r, pad_r), (pad_c, pad_c)), mode="edge")
    output = np.empty_like(pixels)
    for row in range(pixels.shape[0]):
        for col in range(pixels.shape[1]):
            patch = padded[row : row + weights.shape[0], col : col + weights.shape[1]]
            products = (patch * weights).ravel()
            total = _accumulate(products, adder)
            value = total // normalize
            if clip_to_byte:
                value = min(max(value, 0), 255)
            output[row, col] = value
    return output


def box_blur(
    image: np.ndarray,
    size: int = 3,
    adder: ApproximateAdderModel | None = None,
) -> np.ndarray:
    """Box blur with a ``size x size`` all-ones kernel."""
    if size <= 0 or size % 2 == 0:
        raise ValueError("size must be a positive odd number")
    kernel = np.ones((size, size), dtype=np.int64)
    return convolve2d(image, kernel, adder=adder, normalize=size * size)


_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
_SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int64)


def sobel_magnitude(
    image: np.ndarray,
    adder: ApproximateAdderModel | None = None,
) -> np.ndarray:
    """Approximate Sobel gradient magnitude ``|Gx| + |Gy|`` (clipped to 8 bits)."""
    gradient_x = convolve2d(image, _SOBEL_X, adder=adder, clip_to_byte=False)
    gradient_y = convolve2d(image, _SOBEL_Y, adder=adder, clip_to_byte=False)
    magnitude = np.abs(gradient_x) + np.abs(gradient_y)
    return np.clip(magnitude, 0, 255)


def _accumulate(products: np.ndarray, adder: ApproximateAdderModel | None) -> int:
    if adder is None:
        return int(products.sum())
    positive = products[products > 0]
    negative = -products[products < 0]
    pos_total = adder.accumulate(positive) if positive.size else 0
    neg_total = adder.accumulate(negative) if negative.size else 0
    return int(pos_total) - int(neg_total)
