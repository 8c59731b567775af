"""Variation-aware Monte Carlo characterization.

The paper's numbers are nominal-process numbers; this subsystem puts error
bars (and a manufacturing yield) on them.  It samples per-gate process
variation around a process corner, lowers whole batches of sampled instances
through the packed timing engine as one vectorized simulation pass, shards
sample ranges across the worker-process orchestrator, and persists every
``(triad, sample range)`` summary in the content-addressed sweep result
store -- so Monte Carlo at paper-fidelity stimulus sizes stays interactive
and warm reruns simulate nothing.

Layers:

* :mod:`repro.variation.sampler`    -- deterministic per-gate mismatch draws,
* :mod:`repro.variation.montecarlo` -- the Monte Carlo sweep request and
  the results built from its payloads,
* :mod:`repro.variation.stats`      -- distribution summaries, quantile BER,
  yield at a BER margin.

The exploration subsystem (:mod:`repro.explore`) consumes these results to
score candidates by *quantile* BER instead of nominal BER -- a Pareto
frontier that is robust under variation.
"""

from repro.variation.montecarlo import (
    DEFAULT_SAMPLE_CHUNK,
    MonteCarloConfig,
    supply_scaling_grid,
)
from repro.variation.sampler import VariationBatch, VariationSampler
from repro.variation.stats import (
    DistributionSummary,
    TriadVariationResult,
    yield_at_margin,
)

__all__ = [
    "DEFAULT_SAMPLE_CHUNK",
    "MonteCarloConfig",
    "supply_scaling_grid",
    "VariationBatch",
    "VariationSampler",
    "DistributionSummary",
    "TriadVariationResult",
    "yield_at_margin",
]
