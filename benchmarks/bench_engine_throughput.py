"""Engine throughput: compiled/packed simulation vs the seed's per-gate loop.

Two measurements, persisted so future PRs have a perf trajectory:

* **Golden (zero-delay) simulation** of the 8-bit RCA: vectors/second of

  - the *seed* simulator: one Python-dispatched ``evaluate_gate`` call per
    gate, fed with the seed's vector-major stimulus layout (whose per-port
    bit columns are strided views -- reproduced here verbatim so the
    baseline stays the code this PR replaced),
  - the in-repo per-gate oracle (``reference.logic_values``, same loop but
    fed with the engine's bit-major contiguous layout),
  - the compiled level-packed engine on boolean arrays (``run``),
  - the compiled engine in bit-packed uint64 mode, 64 vectors per word
    (``run_outputs``).

* **Fig. 4 characterization sweep** of the same adder over its full matched
  triad grid, engine (sweep-level reuse) vs the per-gate oracle
  (``reference.sweep``), with bit-identical BER/energy assertions.
"""

from __future__ import annotations

import os
import time

import numpy as np

from _bench_utils import Metric, bench_vectors, write_metrics, write_output

from repro.circuits.adders import build_adder
from repro.core.characterization import CharacterizationFlow, entry_from_payload
from repro.core.sweep import measurement_to_payload
from repro.simulation import reference as oracle
from repro.simulation.logic_sim import LogicSimulator
from repro.simulation.patterns import PatternConfig, generate_patterns

#: The golden-simulation measurement uses at least a 64 K-vector stimulus
#: (about 3x the paper's 20 K): below that, Python call overhead -- not
#: simulation work -- dominates every implementation and the comparison
#: measures nothing.
GOLDEN_MIN_VECTORS = 65536

#: Required packed-vs-seed golden speedup (the PR's acceptance floor).
#: ``REPRO_BENCH_RELAXED=1`` lowers it to a sanity floor for shared/noisy CI
#: runners, where relative timings depend on the machine and numpy build.
PACKED_SPEEDUP_FLOOR = 5.0
RELAXED_SPEEDUP_FLOOR = 2.0

_REPEATS = 5


def _speedup_floor() -> float:
    if os.environ.get("REPRO_BENCH_RELAXED", "") not in ("", "0"):
        return RELAXED_SPEEDUP_FLOOR
    return PACKED_SPEEDUP_FLOOR


def _best_time(function, repeats: int = _REPEATS) -> float:
    function()  # warm-up (plan compilation, caches)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _seed_assignment(adder, in1: np.ndarray, in2: np.ndarray) -> dict:
    """The seed's stimulus layout: vector-major bit matrix, strided columns."""
    shifts = np.arange(adder.width, dtype=np.int64)
    a_bits = ((np.asarray(in1, dtype=np.int64)[..., None] >> shifts) & 1).astype(bool)
    b_bits = ((np.asarray(in2, dtype=np.int64)[..., None] >> shifts) & 1).astype(bool)
    assignment = {}
    for i in range(adder.width):
        assignment[f"a{i}"] = a_bits[..., i]
        assignment[f"b{i}"] = b_bits[..., i]
    inputs = adder.netlist.primary_inputs
    if "__const0" in inputs:
        assignment["__const0"] = np.zeros(len(in1), dtype=bool)
    if "__const1" in inputs:
        assignment["__const1"] = np.ones(len(in1), dtype=bool)
    return assignment


def test_engine_throughput(benchmark):
    """Measure golden-sim and sweep throughput; assert engine speedups."""
    adder = build_adder("rca", 8)
    simulator = LogicSimulator(adder.netlist)

    n_golden = max(bench_vectors(), GOLDEN_MIN_VECTORS)
    rng = np.random.default_rng(2017)
    in1 = rng.integers(0, 256, n_golden)
    in2 = rng.integers(0, 256, n_golden)
    assignment = adder.input_assignment(in1, in2)
    seed_assignment = _seed_assignment(adder, in1, in2)

    # Bit-exactness of every path against the seed loop.
    seed_values = oracle.logic_values(adder.netlist, seed_assignment)
    compiled_values = simulator.run(assignment)
    packed_outputs = simulator.run_outputs(assignment)
    for net in seed_values:
        assert np.array_equal(seed_values[net], compiled_values[net])
    for port, net in adder.netlist.primary_outputs.items():
        assert np.array_equal(packed_outputs[port], seed_values[net])

    t_seed = _best_time(lambda: oracle.logic_values(adder.netlist, seed_assignment))
    t_reference = _best_time(lambda: oracle.logic_values(adder.netlist, assignment))
    t_compiled = _best_time(lambda: simulator.run(assignment))
    t_packed = _best_time(lambda: simulator.run_outputs(assignment))
    packed_speedup = t_seed / t_packed

    lines = [
        "Engine throughput: 8-bit RCA golden (zero-delay) simulation",
        f"vectors per run: {n_golden}",
        f"{'path':<38}{'time [us]':>12}{'vectors/s':>16}{'vs seed':>9}",
    ]
    for label, seconds in (
        ("seed per-gate loop (strided layout)", t_seed),
        ("per-gate reference (bit-major layout)", t_reference),
        ("compiled level-packed (bool)", t_compiled),
        ("compiled bit-packed (uint64 words)", t_packed),
    ):
        lines.append(
            f"{label:<38}{seconds * 1e6:>12.0f}{n_golden / seconds:>16,.0f}"
            f"{t_seed / seconds:>8.1f}x"
        )

    # Characterization sweep (the Fig. 4 flow) at the harness vector count.
    n_sweep = bench_vectors()
    pattern = PatternConfig(n_vectors=n_sweep, width=8, seed=2017, kind="uniform")

    flow_reference = CharacterizationFlow(build_adder("rca", 8))
    start = time.perf_counter()
    reference_results = [
        entry_from_payload(
            measurement_to_payload(measurement, adder.output_width, False)
        )
        for measurement in oracle.sweep(
            flow_reference.testbench,
            *generate_patterns(pattern),
            flow_reference.default_triad_grid(),
        )
    ]
    t_sweep_reference = time.perf_counter() - start

    flow_engine = CharacterizationFlow(build_adder("rca", 8))
    start = time.perf_counter()
    engine = flow_engine.run(pattern=pattern, keep_measurements=False)
    t_sweep_engine = time.perf_counter() - start

    assert [e.ber for e in reference_results] == [e.ber for e in engine.results]
    assert [e.energy_per_operation for e in reference_results] == [
        e.energy_per_operation for e in engine.results
    ]
    assert [e.mse for e in reference_results] == [e.mse for e in engine.results]
    sweep_speedup = t_sweep_reference / t_sweep_engine

    lines += [
        "",
        "Fig. 4 characterization sweep: 8-bit RCA, full matched triad grid",
        f"vectors per triad: {n_sweep}, triads: {len(engine.results)}",
        f"{'per-gate reference loop':<38}{t_sweep_reference * 1e6:>12.0f}",
        f"{'compiled engine + sweep reuse':<38}{t_sweep_engine * 1e6:>12.0f}",
        f"end-to-end speedup: {sweep_speedup:.2f}x (BER/energy bit-identical)",
    ]
    text = "\n".join(lines)
    print("\n=== Engine throughput ===")
    print(text)
    write_output("bench_engine_throughput.txt", text)
    write_metrics(
        "engine_throughput",
        [
            Metric("packed_golden_speedup", packed_speedup, "x", kind="ratio"),
            Metric("compiled_golden_speedup", t_seed / t_compiled, "x", kind="ratio"),
            Metric("sweep_engine_speedup", sweep_speedup, "x", kind="ratio"),
            Metric("golden_packed_s", t_packed, "s", kind="time"),
            Metric("golden_seed_s", t_seed, "s", kind="time"),
            Metric("sweep_engine_s", t_sweep_engine, "s", kind="time"),
        ],
        vectors=n_golden,
    )

    floor = _speedup_floor()
    assert packed_speedup >= floor, (
        f"packed golden simulation is only {packed_speedup:.1f}x over the seed "
        f"loop (floor is {floor}x)"
    )
    assert sweep_speedup > 1.0, "sweep-level reuse must beat the per-triad loop"

    benchmark(lambda: simulator.run_outputs(assignment))
