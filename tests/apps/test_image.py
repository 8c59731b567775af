"""Tests of the image-filtering application."""

import numpy as np
import pytest

from repro.apps.image import (
    box_blur,
    convolve2d,
    sobel_magnitude,
    synthetic_gradient_image,
)
from repro.apps.quality import psnr_db
from repro.core.carry_model import CarryProbabilityTable
from repro.core.modified_adder import ApproximateAdderModel


def _truncating_model(width, limit, seed=0):
    counts = np.zeros((width + 1, width + 1))
    for theoretical in range(width + 1):
        counts[min(theoretical, limit), theoretical] = 1.0
    return ApproximateAdderModel(
        width, CarryProbabilityTable.from_counts(width, counts), seed=seed
    )


class TestSyntheticImages:
    def test_gradient_range_and_shape(self):
        image = synthetic_gradient_image(16, 24)
        assert image.shape == (16, 24)
        assert image.min() >= 0 and image.max() <= 255
        assert image[0, 0] < image[-1, -1]

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            synthetic_gradient_image(0, 5)


class TestExactConvolution:
    def test_identity_kernel_preserves_image(self):
        image = synthetic_gradient_image(10, 10)
        kernel = np.zeros((3, 3), dtype=np.int64)
        kernel[1, 1] = 1
        assert np.array_equal(convolve2d(image, kernel), image)

    def test_box_blur_smooths_checkerboard(self):
        # A one-pixel checkerboard of 32s and 224s: the strongest contrast.
        image = np.where(np.indices((16, 16)).sum(axis=0) % 2 == 0, 32, 224)
        blurred = box_blur(image, 3)
        assert blurred.std() < image.std()
        assert blurred.min() >= 0 and blurred.max() <= 255

    def test_box_blur_constant_image_unchanged(self):
        image = np.full((8, 8), 77, dtype=np.int64)
        assert np.array_equal(box_blur(image, 3), image)

    def test_sobel_flat_region_zero_edges(self):
        image = np.full((8, 8), 100, dtype=np.int64)
        assert np.all(sobel_magnitude(image) == 0)

    def test_sobel_detects_vertical_edge(self):
        image = np.zeros((8, 8), dtype=np.int64)
        image[:, 4:] = 200
        edges = sobel_magnitude(image)
        assert edges[:, 3:5].max() > 0
        assert np.all(edges[:, 0] == 0)

    def test_validation(self):
        image = synthetic_gradient_image(8, 8)
        with pytest.raises(ValueError):
            convolve2d(image, np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError):
            convolve2d(image, np.ones((3, 3), dtype=np.int64), normalize=0)
        with pytest.raises(ValueError):
            box_blur(image, 4)


class TestApproximateConvolution:
    def test_identity_model_matches_exact(self):
        image = synthetic_gradient_image(10, 10)
        model = ApproximateAdderModel(16, CarryProbabilityTable(16))
        assert np.array_equal(box_blur(image, 3, adder=model), box_blur(image, 3))

    def test_truncating_model_degrades_gracefully(self):
        image = synthetic_gradient_image(12, 12)
        exact = box_blur(image, 3)
        approx = box_blur(image, 3, adder=_truncating_model(16, 6))
        assert not np.array_equal(exact, approx)
        assert psnr_db(exact, approx) > 10.0

    def test_harsher_truncation_reduces_quality(self):
        image = synthetic_gradient_image(12, 12)
        exact = box_blur(image, 3)
        mild = box_blur(image, 3, adder=_truncating_model(16, 8, seed=1))
        severe = box_blur(image, 3, adder=_truncating_model(16, 2, seed=1))
        assert psnr_db(exact, mild) > psnr_db(exact, severe)
