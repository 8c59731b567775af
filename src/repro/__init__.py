"""repro -- voltage over-scaling characterization and statistical modelling.

Reproduction of R. Ragavan, B. Barrois, C. Killian, O. Sentieys,
"Pushing the Limits of Voltage Over-Scaling for Error-Resilient
Applications", DATE 2017.

The package is organised in layers:

* :mod:`repro.technology` -- analytical 28nm FDSOI models (delay, energy,
  body biasing),
* :mod:`repro.circuits`   -- gate-level adder/multiplier netlists,
* :mod:`repro.synthesis`  -- area / power / static-timing reports,
* :mod:`repro.simulation` -- logic and VOS timing-error simulation,
* :mod:`repro.core`       -- the paper's contribution: characterization over
  operating triads, the carry-chain statistical model, Algorithm 1
  calibration, energy-efficiency analysis and dynamic speculation,
* :mod:`repro.explore`    -- design-space exploration: parameterized operator
  search over architecture x width x speculation window x triad ranges with
  adaptive Pareto refinement,
* :mod:`repro.variation`  -- Monte Carlo variation characterization: sampled
  per-gate mismatch lowered as a batch dimension through the packed engine,
  distribution statistics and yield analysis,
* :mod:`repro.apps`       -- error-resilient applications mapped onto the
  approximate operator model,
* :mod:`repro.analysis`   -- generators for every table and figure of the
  paper's evaluation,
* :mod:`repro.api`        -- the typed Session/Job facade: declarative job
  objects over a shared execution session with batch-level sweep dedup (the
  layer the CLI is a thin adapter over).

Quickstart::

    from repro import CharacterizeJob, PatternOptions, Session

    session = Session(store=None)  # store="default" persists sweep results
    result = session.run(
        CharacterizeJob(operator="rca8", pattern=PatternOptions(vectors=2000))
    )
    for entry in result.characterization.sorted_by_energy():
        print(entry.label(), entry.ber_percent, entry.energy_per_operation_pj)

Importing the package before NumPy pins BLAS to one thread per process
(``OPENBLAS_NUM_THREADS`` / ``MKL_NUM_THREADS`` default to ``"1"``; a value
the caller set is kept): the only parallelism is the ``jobs`` worker
processes, so ``jobs=N`` keeps exactly N cores busy.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
del _variable

from repro.core import (
    OperatingTriad,
    TriadGrid,
    paper_triad_grid,
    CharacterizationFlow,
    characterize_benchmarks,
    SweepResultStore,
    AdderCharacterization,
    TriadCharacterization,
    CarryProbabilityTable,
    calibrate_probability_table,
    ApproximateAdderModel,
    DynamicSpeculationController,
    summarize_by_ber_range,
    pareto_front,
    bit_error_rate,
    mean_squared_error,
    signal_to_noise_ratio_db,
)
from repro.circuits import build_adder, ripple_carry_adder, brent_kung_adder
from repro.explore import (
    CandidateEvaluator,
    DesignSpace,
    ParetoFrontier,
    TriadSpec,
    run_search,
)
from repro.simulation import PatternConfig, generate_patterns
from repro.synthesis import synthesize
from repro.api import (
    BatchReport,
    BatchResult,
    CalibrateJob,
    CharacterizeJob,
    ExploreJob,
    FaultSweepJob,
    Fig5Job,
    MonteCarloJob,
    OperatorSpec,
    PatternOptions,
    Session,
    SpeculateJob,
    StoreOptions,
    SweepOptions,
    SynthesizeJob,
    Table4Job,
    parse_circuit_spec,
)
from repro.variation import (
    MonteCarloConfig,
    TriadVariationResult,
    VariationSampler,
    run_montecarlo_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "OperatingTriad",
    "TriadGrid",
    "paper_triad_grid",
    "CharacterizationFlow",
    "characterize_benchmarks",
    "SweepResultStore",
    "AdderCharacterization",
    "TriadCharacterization",
    "CarryProbabilityTable",
    "calibrate_probability_table",
    "ApproximateAdderModel",
    "DynamicSpeculationController",
    "summarize_by_ber_range",
    "pareto_front",
    "bit_error_rate",
    "mean_squared_error",
    "signal_to_noise_ratio_db",
    "build_adder",
    "ripple_carry_adder",
    "brent_kung_adder",
    "PatternConfig",
    "generate_patterns",
    "synthesize",
    "DesignSpace",
    "TriadSpec",
    "CandidateEvaluator",
    "ParetoFrontier",
    "run_search",
    "MonteCarloConfig",
    "TriadVariationResult",
    "VariationSampler",
    "run_montecarlo_sweep",
    "BatchReport",
    "BatchResult",
    "CalibrateJob",
    "CharacterizeJob",
    "ExploreJob",
    "FaultSweepJob",
    "Fig5Job",
    "MonteCarloJob",
    "OperatorSpec",
    "PatternOptions",
    "Session",
    "SpeculateJob",
    "StoreOptions",
    "SweepOptions",
    "SynthesizeJob",
    "Table4Job",
    "parse_circuit_spec",
    "__version__",
]
