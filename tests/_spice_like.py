"""Event-driven reference simulator (the "slow but faithful" engine).

The vectorised simulator in :mod:`repro.simulation.timing_sim` approximates
signal settling with a single arrival time per net.  This module provides an
event-driven simulator that propagates individual value-change events through
the netlist with per-gate delays, optionally perturbed by random per-gate
variation.  It models glitches (a net may change value several times within
one cycle) and is the oracle of the cross-engine tests in
``tests/simulation/test_spice_like.py``.  It simulates one vector pair at a
time, so it plays the role SPICE plays in the paper: accurate and slow.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Mapping

import numpy as np

from repro.circuits.cells import evaluate_gate
from repro.circuits.netlist import Netlist
from repro.simulation import engine
from repro.simulation.timing_sim import TimingAnnotation
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary


@dataclasses.dataclass(frozen=True)
class VariabilityModel:
    """Log-normal per-gate delay variation (local mismatch).

    ``sigma_fraction`` is the relative standard deviation of the per-gate
    delay at the nominal supply.  Variation is amplified as the supply drops
    (near-threshold operation is more sensitive to Vt mismatch); the
    amplification exponent controls how fast.
    """

    sigma_fraction: float = 0.05
    low_voltage_amplification: float = 1.5
    reference_vdd: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma_fraction < 0:
            raise ValueError("sigma_fraction must be non-negative")
        if self.low_voltage_amplification < 0:
            raise ValueError("low_voltage_amplification must be non-negative")
        if self.reference_vdd <= 0:
            raise ValueError("reference_vdd must be positive")

    def sigma_at(self, vdd: float) -> float:
        """Effective relative sigma at the given supply voltage."""
        ratio = max(self.reference_vdd / max(vdd, 1e-9), 1.0)
        return self.sigma_fraction * ratio**self.low_voltage_amplification

    def sample_multipliers(
        self,
        n_gates: int,
        vdd: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw one log-normal delay multiplier per gate.

        The multipliers have unit median so the deterministic delay model is
        recovered for ``sigma_fraction == 0``.
        """
        if n_gates < 0:
            raise ValueError("n_gates must be non-negative")
        sigma = self.sigma_at(vdd)
        if sigma == 0.0 or n_gates == 0:
            return np.ones(n_gates)
        return rng.lognormal(mean=0.0, sigma=sigma, size=n_gates)


@dataclasses.dataclass(frozen=True)
class EventDrivenResult:
    """Result of one event-driven cycle simulation.

    Attributes
    ----------
    latched:
        Mapping from output port name to the value sampled at ``tclk``.
    settled:
        Mapping from output port name to the final settled value.
    settle_time:
        Time at which the last observed output event occurred (seconds).
    transition_count:
        Total number of value-change events that occurred (includes
        glitches), which upper-bounds the dynamic energy estimate of the
        vectorised engine.
    """

    latched: dict[str, bool]
    settled: dict[str, bool]
    settle_time: float
    transition_count: int


class EventDrivenSimulator:
    """Single-vector event-driven timing simulator.

    Parameters
    ----------
    netlist:
        Combinational netlist to simulate.
    library:
        Standard-cell library providing per-gate delays.
    variability:
        Optional per-gate random delay variation; when provided, a seeded
        ``numpy.random.Generator`` must be supplied too.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
        variability: VariabilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._netlist = netlist
        self._library = library
        self._variability = variability
        self._rng = rng
        if variability is not None and rng is None:
            raise ValueError("a random generator is required when variability is set")
        # Fanout map: net -> list of (gate index, gate).
        self._fanout: dict[int, list[int]] = {net: [] for net in range(netlist.net_count)}
        for index, gate in enumerate(netlist.topological_gates):
            for net in gate.inputs:
                self._fanout[net].append(index)

    def run_cycle(
        self,
        previous_inputs: Mapping[str, bool],
        current_inputs: Mapping[str, bool],
        tclk: float,
        vdd: float,
        vbb: float = 0.0,
    ) -> EventDrivenResult:
        """Simulate one clock cycle: previous vector settled, new vector applied.

        Parameters
        ----------
        previous_inputs / current_inputs:
            Scalar boolean value per primary-input port.
        tclk:
            Clock period in seconds; outputs are sampled at this time.
        vdd, vbb:
            Operating voltages.
        """
        if tclk <= 0:
            raise ValueError("tclk must be positive")
        annotation = TimingAnnotation.annotate(self._netlist, vdd, vbb, self._library)
        delays = annotation.gate_delays.copy()
        if self._variability is not None:
            multipliers = self._variability.sample_multipliers(
                len(delays), vdd, self._rng
            )
            delays = delays * multipliers

        gates = self._netlist.topological_gates
        values = self._settled_values(previous_inputs)
        sample_values: dict[int, bool] | None = None
        transition_count = 0
        last_output_event = 0.0
        output_nets = set(self._netlist.output_nets)

        # Event queue of (time, sequence, net, new_value).
        queue: list[tuple[float, int, int, bool]] = []
        sequence = 0
        for port, net in self._netlist.primary_inputs.items():
            new_value = bool(current_inputs[port])
            if new_value != values[net]:
                heapq.heappush(queue, (0.0, sequence, net, new_value))
                sequence += 1

        while queue:
            time, _seq, net, new_value = heapq.heappop(queue)
            if sample_values is None and time > tclk:
                # Clock edge passed: freeze the register sample before
                # applying any later events.
                sample_values = dict(values)
            if values[net] == new_value:
                continue
            values[net] = new_value
            transition_count += 1
            if net in output_nets:
                last_output_event = max(last_output_event, time)
            for gate_index in self._fanout[net]:
                gate = gates[gate_index]
                gate_output = bool(
                    evaluate_gate(
                        gate.gate_type,
                        [np.asarray(values[i]) for i in gate.inputs],
                    )
                )
                event_time = time + delays[gate_index]
                heapq.heappush(queue, (event_time, sequence, gate.output, gate_output))
                sequence += 1

        if sample_values is None:
            sample_values = dict(values)

        outputs = self._netlist.primary_outputs
        return EventDrivenResult(
            latched={port: bool(sample_values[net]) for port, net in outputs.items()},
            settled={port: bool(values[net]) for port, net in outputs.items()},
            settle_time=last_output_event,
            transition_count=transition_count,
        )

    def _settled_values(self, inputs: Mapping[str, bool]) -> dict[int, bool]:
        """Zero-delay settled state of every net for the given inputs."""
        values: dict[int, bool] = {
            net: bool(value)
            for net, value in engine.bind_inputs(self._netlist, inputs).items()
        }
        for gate in self._netlist.topological_gates:
            gate_inputs = [np.asarray(values[net]) for net in gate.inputs]
            values[gate.output] = bool(evaluate_gate(gate.gate_type, gate_inputs))
        return values
