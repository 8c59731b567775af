"""Accuracy metrics used for characterization and model calibration.

The paper uses:

* **BER** -- ratio of faulty output bits over total output bits (the headline
  accuracy metric of Figs. 5 and 8 and Table IV);
* **MSE** -- mean squared error between faulty and golden output words;
* **bit-wise error probability** -- per output position, the ratio of faulty
  bits over vectors (Fig. 5);
* three **distance metrics** used to calibrate the statistical model
  (Section IV): MSE, Hamming distance, and weighted Hamming distance;
* **SNR** -- to report how close the statistical model is to the
  characterized hardware (Fig. 7a).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.circuits.signals import int_to_bits

#: Signature of a distance metric: (reference words, candidate words, width) -> per-vector distances.
DistanceMetric = Callable[[np.ndarray, np.ndarray, int], np.ndarray]


def _as_int_arrays(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x_arr = np.asarray(x, dtype=np.int64)
    y_arr = np.asarray(y, dtype=np.int64)
    if x_arr.shape != y_arr.shape:
        raise ValueError("arrays must have the same shape")
    return x_arr, y_arr


def bit_error_rate(reference: np.ndarray, observed: np.ndarray, width: int) -> float:
    """Ratio of faulty output bits over total output bits.

    Parameters
    ----------
    reference:
        Golden output words.
    observed:
        Faulty output words (same shape).
    width:
        Number of output bits per word.
    """
    ref, obs = _as_int_arrays(reference, observed)
    differing = int_to_bits(ref, width) != int_to_bits(obs, width)
    return float(differing.mean())


def mean_squared_error(reference: np.ndarray, observed: np.ndarray) -> float:
    """Mean squared numerical error between output words."""
    ref, obs = _as_int_arrays(reference, observed)
    deviation = (obs - ref).astype(float)
    return float(np.mean(deviation**2))


def hamming_distance(reference: np.ndarray, observed: np.ndarray, width: int) -> np.ndarray:
    """Per-vector Hamming distance (number of differing bits)."""
    ref, obs = _as_int_arrays(reference, observed)
    differing = int_to_bits(ref, width) != int_to_bits(obs, width)
    return differing.reshape(-1, width).sum(axis=1)


def normalized_hamming_distance(
    reference: np.ndarray, observed: np.ndarray, width: int
) -> float:
    """Mean Hamming distance normalised by the word width (Fig. 7b)."""
    return float(hamming_distance(reference, observed, width).mean() / width)


def weighted_hamming_distance(
    reference: np.ndarray,
    observed: np.ndarray,
    width: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Per-vector Hamming distance weighted by bit significance.

    By default bit ``i`` carries weight ``2**i`` (its arithmetic
    significance), so an MSB flip costs as much as it costs numerically.
    """
    ref, obs = _as_int_arrays(reference, observed)
    differing = int_to_bits(ref, width) != int_to_bits(obs, width)
    if weights is None:
        weights = 2.0 ** np.arange(width)
    weight_arr = np.asarray(weights, dtype=float)
    if weight_arr.shape != (width,):
        raise ValueError(f"weights must have shape ({width},)")
    return (differing.reshape(-1, width) * weight_arr).sum(axis=1)


def signal_to_noise_ratio_db(reference: np.ndarray, observed: np.ndarray) -> float:
    """SNR (dB) of ``observed`` with respect to ``reference``.

    ``SNR = 10 log10( sum(reference^2) / sum((observed - reference)^2) )``.
    Returns ``inf`` when the two signals are identical.
    """
    ref, obs = _as_int_arrays(reference, observed)
    noise_power = float(np.sum((obs - ref).astype(float) ** 2))
    signal_power = float(np.sum(ref.astype(float) ** 2))
    if noise_power == 0.0:
        return float("inf")
    if signal_power == 0.0:
        return float("-inf")
    return 10.0 * np.log10(signal_power / noise_power)


# -- distance metrics for Algorithm 1 ----------------------------------------


def _mse_distance(reference: np.ndarray, candidate: np.ndarray, width: int) -> np.ndarray:
    del width
    ref, cand = _as_int_arrays(reference, candidate)
    return (cand - ref).astype(float) ** 2


def _hamming_metric(reference: np.ndarray, candidate: np.ndarray, width: int) -> np.ndarray:
    return hamming_distance(reference, candidate, width).astype(float)


def _weighted_hamming_metric(
    reference: np.ndarray, candidate: np.ndarray, width: int
) -> np.ndarray:
    return weighted_hamming_distance(reference, candidate, width).astype(float)


#: The three calibration metrics of Section IV, keyed by the names used in Fig. 7.
DISTANCE_METRICS: dict[str, DistanceMetric] = {
    "mse": _mse_distance,
    "hamming": _hamming_metric,
    "weighted_hamming": _weighted_hamming_metric,
}


def distance_metric(name: str) -> DistanceMetric:
    """Look up a calibration distance metric by name."""
    try:
        return DISTANCE_METRICS[name]
    except KeyError:
        raise ValueError(
            f"unknown distance metric {name!r}; "
            f"available: {', '.join(sorted(DISTANCE_METRICS))}"
        ) from None
