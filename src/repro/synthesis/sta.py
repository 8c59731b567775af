"""Static timing analysis over the annotated netlist.

STA computes, per output, the worst-case (topological) arrival time -- i.e.
the delay of the longest structural path regardless of whether any input
vector can sensitise it.  The paper notes that EDA tools add extra timing
margin during STA; :class:`StaticTimingAnalysis` exposes the same idea with
an explicit ``timing_margin`` multiplier, so tests can verify that a clock
chosen from the STA report never produces timing errors in the dynamic
simulation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.netlist import Netlist
from repro.simulation.timing_sim import TimingAnnotation
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary


@dataclasses.dataclass(frozen=True)
class TimingPath:
    """One input-to-output structural path with its delay."""

    output_port: str
    arrival_time: float
    gate_names: tuple[str, ...]

    @property
    def depth(self) -> int:
        """Number of gates on the path."""
        return len(self.gate_names)


class StaticTimingAnalysis:
    """Topological worst-case timing of a netlist at one operating point.

    Parameters
    ----------
    netlist:
        Design under analysis.
    vdd, vbb:
        Operating voltages.
    library:
        Standard-cell library providing delays.
    timing_margin:
        Multiplicative guard band applied to the reported critical path
        (EDA-style clock-path pessimism; 1.0 disables it).
    """

    def __init__(
        self,
        netlist: Netlist,
        vdd: float,
        vbb: float = 0.0,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
        timing_margin: float = 1.0,
    ) -> None:
        if timing_margin < 1.0:
            raise ValueError("timing_margin must be >= 1.0")
        self._netlist = netlist
        self._vdd = vdd
        self._vbb = vbb
        self._margin = timing_margin
        self._annotation = TimingAnnotation.annotate(netlist, vdd, vbb, library)
        self._arrival, self._worst_driver = self._propagate()

    def _propagate(self) -> tuple[np.ndarray, dict[int, int]]:
        arrival = np.zeros(self._netlist.net_count, dtype=float)
        worst_driver: dict[int, int] = {}
        for index, gate in enumerate(self._netlist.topological_gates):
            worst_input = max(gate.inputs, key=lambda net: arrival[net])
            arrival[gate.output] = (
                arrival[worst_input] + self._annotation.gate_delays[index]
            )
            worst_driver[gate.output] = index
        return arrival, worst_driver

    @property
    def vdd(self) -> float:
        """Supply voltage of the analysis."""
        return self._vdd

    @property
    def vbb(self) -> float:
        """Body-bias voltage of the analysis."""
        return self._vbb

    def arrival_time(self, net: int) -> float:
        """Worst-case arrival time of a net, in seconds (no margin applied)."""
        return float(self._arrival[net])

    @property
    def critical_path_delay(self) -> float:
        """Worst output arrival time including the timing margin, seconds."""
        worst = max(
            (self._arrival[net] for net in self._netlist.output_nets), default=0.0
        )
        return float(worst) * self._margin

    def critical_path(self) -> TimingPath:
        """Trace and return the single worst structural path."""
        outputs = self._netlist.primary_outputs
        worst_port = max(outputs, key=lambda port: self._arrival[outputs[port]])
        gates = self._netlist.topological_gates
        names: list[str] = []
        net = outputs[worst_port]
        while net in self._worst_driver:
            gate_index = self._worst_driver[net]
            gate = gates[gate_index]
            names.append(gate.name or gate.gate_type.value)
            net = max(gate.inputs, key=lambda candidate: self._arrival[candidate])
        return TimingPath(
            output_port=worst_port,
            arrival_time=float(self._arrival[outputs[worst_port]]) * self._margin,
            gate_names=tuple(reversed(names)),
        )

    def slack(self, tclk: float) -> dict[str, float]:
        """Per-output slack (``tclk`` minus margined arrival time)."""
        if tclk <= 0:
            raise ValueError("tclk must be positive")
        return {
            port: tclk - float(self._arrival[net]) * self._margin
            for port, net in self._netlist.primary_outputs.items()
        }
