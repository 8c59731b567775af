"""Fixed-point FIR filtering with exact or approximate accumulation.

The FIR filter is the canonical "soft DSP" workload (the paper cites Hegde &
Shanbhag's soft digital signal processing): multiply-accumulate chains whose
accumulations can tolerate occasional errors.  Multiplications stay exact;
the accumulation adder is either the exact integer adder or an
:class:`~repro.core.modified_adder.ApproximateAdderModel` trained on a VOS
triad.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.modified_adder import ApproximateAdderModel


def moving_average_coefficients(taps: int) -> np.ndarray:
    """Integer moving-average coefficients (all ones)."""
    if taps <= 0:
        raise ValueError("taps must be positive")
    return np.ones(taps, dtype=np.int64)


def low_pass_coefficients(taps: int, scale: int = 64) -> np.ndarray:
    """Windowed-sinc low-pass coefficients quantised to integers.

    Cut-off is fixed at a quarter of the sample rate; the coefficients are
    scaled by ``scale`` and rounded, giving a realistic small fixed-point
    kernel without needing scipy.
    """
    if taps <= 0:
        raise ValueError("taps must be positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    n = np.arange(taps) - (taps - 1) / 2.0
    cutoff = 0.25
    safe_n = np.where(n == 0, 1.0, n)
    sinc = np.where(n == 0, 2 * cutoff, np.sin(2 * np.pi * cutoff * safe_n) / (np.pi * safe_n))
    window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(taps) / max(taps - 1, 1))
    kernel = sinc * window
    quantised = np.round(kernel * scale).astype(np.int64)
    if not quantised.any():
        quantised[taps // 2] = 1
    return quantised


@dataclasses.dataclass
class FirFilter:
    """Direct-form FIR filter over unsigned fixed-point samples.

    Parameters
    ----------
    coefficients:
        Integer tap coefficients (may be negative; the accumulation is done
        in offset-binary so the approximate adder only sees non-negative
        operands).
    adder:
        Optional approximate adder model used for the accumulations; when
        ``None`` the filter is exact.
    accumulator_width:
        Bit width of the accumulation datapath; defaults to the adder
        model's width, or 32 for the exact filter.
    """

    coefficients: np.ndarray
    adder: ApproximateAdderModel | None = None
    accumulator_width: int | None = None

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=np.int64)
        if self.coefficients.ndim != 1 or self.coefficients.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D array")
        if self.accumulator_width is None:
            self.accumulator_width = self.adder.width if self.adder is not None else 32
        if self.adder is not None and self.adder.width != self.accumulator_width:
            raise ValueError("accumulator_width must match the adder width")
        if self.accumulator_width <= 1:
            raise ValueError("accumulator_width must be at least 2 bits")

    @property
    def taps(self) -> int:
        """Number of filter taps."""
        return int(self.coefficients.size)

    def filter(self, samples: np.ndarray) -> np.ndarray:
        """Filter a 1-D sample stream, returning one output per input sample.

        The convolution is causal: output ``n`` uses samples ``n-taps+1 .. n``
        (zero-padded at the start).
        """
        signal = np.asarray(samples, dtype=np.int64)
        if signal.ndim != 1:
            raise ValueError("samples must be a 1-D array")
        padded = np.concatenate([np.zeros(self.taps - 1, dtype=np.int64), signal])
        outputs = np.empty(signal.size, dtype=np.int64)
        for index in range(signal.size):
            window = padded[index : index + self.taps][::-1]
            outputs[index] = self._mac(window)
        return outputs

    def _mac(self, window: np.ndarray) -> int:
        products = window * self.coefficients
        if self.adder is None:
            return int(products.sum())
        # Accumulate positive and negative contributions separately so the
        # unsigned approximate adder never sees a negative operand, then take
        # the exact difference (the subtractor is assumed accurate, as in the
        # paper's accurate/approximate split designs).
        positive = products[products > 0]
        negative = -products[products < 0]
        pos_total = self.adder.accumulate(positive) if positive.size else 0
        neg_total = self.adder.accumulate(negative) if negative.size else 0
        return int(pos_total) - int(neg_total)
