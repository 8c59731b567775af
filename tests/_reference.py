"""Per-gate reference loops: the oracle of every compiled simulation path.

Each function here evaluates a netlist one Python-dispatched gate at a
time, in topological order, with none of the engine's level packing, bit
packing or sweep-level reuse.  They are the seed simulators kept as an
independent check: the parity tests compare the compiled paths with them
bit for bit, and ``benchmarks/bench_engine_throughput.py`` times them as the
baseline.  They live under ``tests/`` because no entry point runs them.

* :func:`logic_values` -- settled values of every net (zero delay).
* :func:`vos_run` -- the VOS timing simulation of one triad, with explicit
  per-gate delays so that a test can also run it once per Monte Carlo
  instance.
* :func:`sweep` -- :func:`vos_run` under every triad of a sweep, as
  testbench measurements.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.circuits.cells import evaluate_gate
from repro.circuits.netlist import Netlist
from repro.circuits.signals import bits_to_int
from repro.simulation.testbench import OperatorTestbench, TriadMeasurement
from repro.simulation.timing_sim import VosSimulationResult, VosTimingSimulator


def logic_values(
    netlist: Netlist, inputs: Mapping[str, np.ndarray]
) -> dict[int, np.ndarray]:
    """Settled values of every net, keyed by net id, one gate at a time.

    ``inputs`` maps each primary-input port name to a boolean array; all
    arrays share one shape.
    """
    values = _bind(netlist, inputs)
    for gate in netlist.topological_gates:
        gate_inputs = [values[net] for net in gate.inputs]
        values[gate.output] = evaluate_gate(gate.gate_type, gate_inputs)
    return values


def vos_run(
    simulator: VosTimingSimulator,
    inputs: Mapping[str, np.ndarray],
    tclk: float,
    vdd: float,
    vbb: float = 0.0,
    *,
    gate_delays: np.ndarray | None = None,
    previous_inputs: Mapping[str, np.ndarray] | None = None,
) -> VosSimulationResult:
    """The VOS timing simulation of one triad, without any reuse.

    Takes the netlist, observed outputs and annotation of ``simulator``;
    ``inputs`` and ``previous_inputs`` are as in
    :meth:`~repro.simulation.timing_sim.VosTimingSimulator.run`.
    ``gate_delays`` replaces the annotation's per-gate delays (for
    example with one Monte Carlo instance's sampled delays); energies and
    leakage stay those of the annotation.  Logic values, arrival times and
    latched bits follow the seed loop exactly.  The dynamic energy reduces
    the per-gate toggle matrix with the same ``energies @ toggles``
    expression as the engine (the seed accumulated ``+=`` per gate, which
    differs at ULP level), so energy comparisons are exact.
    """
    if tclk <= 0:
        raise ValueError("tclk must be positive")
    netlist = simulator.netlist
    annotation = simulator.annotation(vdd, vbb)
    if gate_delays is None:
        gate_delays = annotation.gate_delays
    current = _bind(netlist, inputs)
    if previous_inputs is None:
        previous = {net: _shift_right(values) for net, values in current.items()}
    else:
        previous = _bind(netlist, previous_inputs)

    n_vectors = next(iter(current.values())).shape[0]
    new_values: dict[int, np.ndarray] = dict(current)
    old_values: dict[int, np.ndarray] = dict(previous)
    arrival = {net: np.zeros(n_vectors, dtype=float) for net in current}
    changed_gates = np.zeros((netlist.gate_count, n_vectors), dtype=bool)

    for index, gate in enumerate(netlist.topological_gates):
        out_new = evaluate_gate(gate.gate_type, [new_values[n] for n in gate.inputs])
        out_old = evaluate_gate(gate.gate_type, [old_values[n] for n in gate.inputs])
        changed = out_new != out_old
        input_arrival = np.zeros(n_vectors, dtype=float)
        for net in gate.inputs:
            contribution = np.where(
                new_values[net] != old_values[net], arrival[net], 0.0
            )
            np.maximum(input_arrival, contribution, out=input_arrival)
        arrival[gate.output] = np.where(
            changed, input_arrival + gate_delays[index], 0.0
        )
        new_values[gate.output] = out_new
        old_values[gate.output] = out_old
        changed_gates[index] = changed

    dynamic_energy = annotation.gate_switch_energies @ changed_gates.astype(
        np.float64
    )
    output_nets = [netlist.primary_outputs[port] for port in simulator.output_ports]
    settled = np.stack([new_values[net] for net in output_nets], axis=-1)
    stale = np.stack([old_values[net] for net in output_nets], axis=-1)
    arrivals = np.stack([arrival[net] for net in output_nets], axis=-1)
    latched = np.where(arrivals <= tclk, settled, stale)
    return VosSimulationResult(
        latched_words=bits_to_int(latched),
        settled_words=bits_to_int(settled),
        n_outputs=len(output_nets),
        dynamic_energy=dynamic_energy,
        static_energy=np.full(n_vectors, annotation.leakage_power * tclk),
        tclk=tclk,
        arrival_pass=lambda: arrivals,
    )


def sweep(
    testbench: OperatorTestbench,
    in1: np.ndarray,
    in2: np.ndarray,
    triads: Iterable,
) -> Iterator[TriadMeasurement]:
    """:func:`vos_run` under every triad, as the testbench's measurements.

    The oracle of :meth:`OperatorTestbench.iter_sweep`: the same operand
    binding and measurement fields, one independent per-gate run per triad.
    """
    in1_arr = np.asarray(in1, dtype=np.int64)
    in2_arr = np.asarray(in2, dtype=np.int64)
    assignment = testbench.circuit.input_assignment(in1_arr, in2_arr)
    for triad in triads:
        result = vos_run(
            testbench.simulator, assignment, triad.tclk, triad.vdd, triad.vbb
        )
        yield testbench.measurement(in1_arr, in2_arr, result, triad.vdd, triad.vbb)


def _bind(netlist: Netlist, inputs: Mapping[str, np.ndarray]) -> dict[int, np.ndarray]:
    return {
        net: np.asarray(inputs[port], dtype=bool)
        for port, net in netlist.primary_inputs.items()
    }


def _shift_right(values: np.ndarray) -> np.ndarray:
    """Previous-cycle version of a vector stream (first cycle sees zeros)."""
    shifted = np.zeros_like(values)
    shifted[1:] = values[:-1]
    return shifted
