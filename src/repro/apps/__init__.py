"""Error-resilient applications mapped onto the approximate operator model.

The paper motivates VOS-based approximate operators with statistical /
signal-processing workloads that tolerate hardware errors.  This package
provides three such workloads built on :class:`repro.core.ApproximateAdderModel`:

* :mod:`repro.apps.fir`   -- fixed-point FIR filtering,
* :mod:`repro.apps.image` -- image convolution (box blur, Sobel edges),
* :mod:`repro.apps.dct`   -- 8-point one-dimensional DCT,
* :mod:`repro.apps.quality` -- application-level quality metrics (PSNR, SNR).

Each application can run with the exact adder or with an approximate adder
model, so the examples and benchmarks can quantify the application-level
quality loss corresponding to a circuit-level BER.
"""

from repro.apps.quality import psnr_db, output_snr_db, relative_error
from repro.apps.fir import FirFilter, moving_average_coefficients, low_pass_coefficients
from repro.apps.image import (
    convolve2d,
    box_blur,
    sobel_magnitude,
    synthetic_gradient_image,
)
from repro.apps.dct import dct_1d, dct_matrix

__all__ = [
    "psnr_db",
    "output_snr_db",
    "relative_error",
    "FirFilter",
    "moving_average_coefficients",
    "low_pass_coefficients",
    "convolve2d",
    "box_blur",
    "sobel_magnitude",
    "synthetic_gradient_image",
    "dct_1d",
    "dct_matrix",
]
