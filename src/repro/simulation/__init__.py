"""Simulation substrate (the SPICE stand-in).

The paper characterises its adders with transistor-level Eldo SPICE
simulations; this package provides the functional equivalent:

* :mod:`repro.simulation.timing_sim` -- vectorised data-dependent timing
  simulation under an operating triad: per-net arrival times are propagated
  through the netlist and outputs whose arrival exceeds the clock period
  latch the previous cycle's value, which is exactly the timing-error
  mechanism of voltage over-scaling.
* :mod:`repro.simulation.patterns`   -- input stimulus generators, including
  the paper's "equal carry-propagation probability" training patterns.
* :mod:`repro.simulation.fault_injection` -- position-independent random
  bit-flip baseline against which the VOS model is compared, plus
  gate-level single-stuck-at fault simulation on the compiled packed
  engine (shardable across worker processes by :mod:`repro.core.sweep`).
* :mod:`repro.simulation.testbench`  -- per-triad measurement runs of an
  adder or multiplier combining functional results with energy estimates.
* :mod:`repro.simulation.engine`     -- compiled level-packed evaluation
  plans, bit-packed (64 vectors/word) golden simulation, and the cached
  per-netlist / per-operating-point metadata all simulators share.

Each simulator has one simulation path.  The per-gate loops the engine
replaced are the parity tests' oracle, under ``tests/``.
"""

from repro.simulation.engine import (
    CompiledNetlistPlan,
    compile_plan,
    pack_vectors,
    unpack_vectors,
)
from repro.simulation.timing_sim import (
    TimingAnnotation,
    VosTimingSimulator,
    VosSimulationResult,
)
from repro.simulation.patterns import (
    PatternConfig,
    uniform_random_patterns,
    carry_balanced_patterns,
    exhaustive_patterns,
    walking_one_patterns,
    correlated_patterns,
    generate_patterns,
    PATTERN_GENERATORS,
)
from repro.simulation.fault_injection import (
    RandomBitFlipModel,
    StuckAtFault,
    StuckAtFaultSimulator,
    FaultSimulationResult,
    enumerate_stuck_at_faults,
)
from repro.simulation.testbench import TriadMeasurement, OperatorTestbench

__all__ = [
    "TimingAnnotation",
    "VosTimingSimulator",
    "VosSimulationResult",
    "PatternConfig",
    "uniform_random_patterns",
    "carry_balanced_patterns",
    "exhaustive_patterns",
    "walking_one_patterns",
    "correlated_patterns",
    "generate_patterns",
    "PATTERN_GENERATORS",
    "RandomBitFlipModel",
    "StuckAtFault",
    "StuckAtFaultSimulator",
    "FaultSimulationResult",
    "enumerate_stuck_at_faults",
    "OperatorTestbench",
    "TriadMeasurement",
    "CompiledNetlistPlan",
    "compile_plan",
    "pack_vectors",
    "unpack_vectors",
]
