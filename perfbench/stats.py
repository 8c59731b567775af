"""Order statistics shared by the benchmark and its steadiness mode."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; fewer make the tail a handful of outliers.
MIN_TAIL_SAMPLES = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def min_samples_for(percent: float) -> int:
    """Smallest sample count leaving ``MIN_TAIL_SAMPLES`` beyond ``percent``."""
    if not 0 < percent < 100:
        raise ValueError("percent must lie strictly between 0 and 100")
    return math.ceil(MIN_TAIL_SAMPLES / (1 - percent / 100.0) - 1e-9)


def percentile(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank ``percent``-th percentile of ``samples``.

    Raises :class:`TooFewSamples` when fewer than ``MIN_TAIL_SAMPLES``
    samples lie beyond the returned rank.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if not ordered or beyond < MIN_TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{percent:g} of {len(ordered)} sample(s) leaves {max(beyond, 0)} "
            f"beyond it; at least {MIN_TAIL_SAMPLES} are needed "
            f"({min_samples_for(percent)} samples)"
        )
    return ordered[rank - 1]


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics`` gives them."""
    if len(samples) < 2:
        value = samples[0]
        return value, value, value
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def relative_spread(samples: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a 0 median)."""
    q1, q2, q3 = quartiles(samples)
    return (q3 - q1) / abs(q2) if q2 else 0.0
