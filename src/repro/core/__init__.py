"""Core VOS characterization and statistical modelling (the paper's contribution).

Modules:

* :mod:`repro.core.triad`           -- operating triads (Tclk, Vdd, Vbb) and
  the Table III triad grids.
* :mod:`repro.core.metrics`         -- BER, MSE, Hamming / weighted Hamming
  distances, SNR and per-bit error probability.
* :mod:`repro.core.carry_model`     -- carry-chain arithmetic: theoretical
  maximal carry chain, carry-truncated addition, and the conditional
  probability table of Table I.
* :mod:`repro.core.calibration`     -- Algorithm 1: offline optimisation of
  the probability table against characterization data.
* :mod:`repro.core.modified_adder`  -- the equivalent statistical operator
  used at algorithm level in place of the VOS hardware.
* :mod:`repro.core.characterization`-- the Fig. 4 flow: sweep triads, collect
  BER / MSE / energy statistics.
* :mod:`repro.core.energy`          -- energy-efficiency analysis and the
  Table IV aggregation.
* :mod:`repro.core.speculation`     -- dynamic speculation: runtime triad
  selection under a user-defined error margin.
* :mod:`repro.core.error_detection` -- double-sampling (shadow register)
  error monitor and online BER estimator feeding the speculation loop.
* :mod:`repro.core.dataset`         -- JSON serialisation of characterization
  results and trained models.
* :mod:`repro.core.sweep`           -- sharded, cache-backed sweep
  orchestration (worker processes + deterministic merge).
* :mod:`repro.core.store`           -- content-addressed on-disk result
  store backing the sweep orchestrator.
"""

from repro.core.triad import (
    OperatingTriad,
    TriadGrid,
    paper_triad_grid,
    matched_triad_grid,
    benchmark_triad_grid,
    PAPER_CLOCK_PERIODS_NS,
    PAPER_CRITICAL_PATHS_NS,
    PAPER_SUPPLY_VOLTAGES,
    PAPER_BODY_BIAS_VOLTAGES,
)
from repro.core.metrics import (
    bit_error_rate,
    bitwise_error_probability,
    mean_squared_error,
    hamming_distance,
    normalized_hamming_distance,
    weighted_hamming_distance,
    signal_to_noise_ratio_db,
    DISTANCE_METRICS,
    distance_metric,
)
from repro.core.carry_model import (
    generate_propagate,
    theoretical_max_carry_chain,
    carry_truncated_add,
    CarryProbabilityTable,
)
from repro.core.calibration import CalibrationResult, calibrate_probability_table
from repro.core.modified_adder import ApproximateAdderModel
from repro.core.characterization import (
    TriadCharacterization,
    AdderCharacterization,
    CharacterizationFlow,
    characterize_benchmarks,
)
from repro.core.store import (
    SweepResultStore,
    library_fingerprint,
    netlist_fingerprint,
    operand_fingerprint,
)
from repro.core.sweep import (
    run_characterization_sweep,
    run_fault_sweep,
    shard_triads,
)
from repro.core.energy import (
    energy_efficiency,
    EfficiencySummary,
    summarize_by_ber_range,
    pareto_front,
    PAPER_BER_RANGES,
)
from repro.core.speculation import DynamicSpeculationController, SpeculationDecision
from repro.core.error_detection import (
    ShadowRegisterMonitor,
    ShadowComparisonResult,
    OnlineBerEstimator,
)
from repro.core.dataset import (
    save_characterization,
    load_characterization,
    save_probability_table,
    load_probability_table,
)

__all__ = [
    "OperatingTriad",
    "TriadGrid",
    "paper_triad_grid",
    "matched_triad_grid",
    "benchmark_triad_grid",
    "PAPER_CLOCK_PERIODS_NS",
    "PAPER_CRITICAL_PATHS_NS",
    "PAPER_SUPPLY_VOLTAGES",
    "PAPER_BODY_BIAS_VOLTAGES",
    "bit_error_rate",
    "bitwise_error_probability",
    "mean_squared_error",
    "hamming_distance",
    "normalized_hamming_distance",
    "weighted_hamming_distance",
    "signal_to_noise_ratio_db",
    "DISTANCE_METRICS",
    "distance_metric",
    "generate_propagate",
    "theoretical_max_carry_chain",
    "carry_truncated_add",
    "CarryProbabilityTable",
    "CalibrationResult",
    "calibrate_probability_table",
    "ApproximateAdderModel",
    "TriadCharacterization",
    "AdderCharacterization",
    "CharacterizationFlow",
    "characterize_benchmarks",
    "SweepResultStore",
    "library_fingerprint",
    "netlist_fingerprint",
    "operand_fingerprint",
    "run_characterization_sweep",
    "run_fault_sweep",
    "shard_triads",
    "energy_efficiency",
    "EfficiencySummary",
    "summarize_by_ber_range",
    "pareto_front",
    "PAPER_BER_RANGES",
    "DynamicSpeculationController",
    "SpeculationDecision",
    "ShadowRegisterMonitor",
    "ShadowComparisonResult",
    "OnlineBerEstimator",
    "save_characterization",
    "load_characterization",
    "save_probability_table",
    "load_probability_table",
]
