"""Per-triad measurement runs for operator circuits.

The testbench plays the role of the paper's automated SPICE test scripts: it
applies a pattern set to an operator (an adder or an array multiplier) under
one operating triad, captures the latched outputs, compares them with the
golden outputs and records energy.  The raw measurements are consumed by
:mod:`repro.core.characterization`, which aggregates them into the
statistics the paper reports (BER, MSE, bit-wise error probability, energy
efficiency).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Iterable, Iterator

import numpy as np

from repro.circuits.signals import int_to_bits
from repro.simulation.timing_sim import VosSimulationResult, VosTimingSimulator
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary


@dataclasses.dataclass(frozen=True)
class TriadMeasurement:
    """Raw measurement of an operator under one operating triad.

    Attributes
    ----------
    adder_name:
        Name of the measured circuit (e.g. ``"rca8"``).
    tclk, vdd, vbb:
        The operating triad (seconds, volts, volts).
    in1, in2:
        The applied operand streams.
    latched_words:
        Output words captured by the output register each cycle.
    exact_words:
        Golden results (``in1 + in2`` or ``in1 * in2``).
    output_width:
        Number of observed output bits.
    energy_per_operation:
        Mean total (dynamic + leakage) energy per operation, joules.
    dynamic_energy_per_operation:
        Mean dynamic energy per operation, joules.
    static_energy_per_operation:
        Mean leakage energy per operation, joules.
    """

    adder_name: str
    tclk: float
    vdd: float
    vbb: float
    in1: np.ndarray
    in2: np.ndarray
    latched_words: np.ndarray
    exact_words: np.ndarray
    output_width: int
    energy_per_operation: float
    dynamic_energy_per_operation: float
    static_energy_per_operation: float

    @property
    def n_vectors(self) -> int:
        """Number of applied operand pairs."""
        return int(self.in1.shape[0])

    @functools.cached_property
    def error_bits(self) -> np.ndarray:
        """Boolean matrix (vectors x output bits) of faulty latched bits."""
        return int_to_bits(self.latched_words ^ self.exact_words, self.output_width)

    @property
    def faulty_vector_fraction(self) -> float:
        """Fraction of cycles whose latched word differs from the golden word.

        A count over the vector count: the same double as the ``.mean()`` of
        the boolean mismatch vector (an exact integer sum divided once).
        """
        mismatches = self.latched_words != self.exact_words
        return int(np.count_nonzero(mismatches)) / mismatches.size


class OperatorTestbench:
    """Reusable testbench for one operator circuit.

    Parameters
    ----------
    circuit:
        The circuit under test: an
        :class:`~repro.circuits.adders.AdderCircuit` or a
        :class:`~repro.circuits.multipliers.MultiplierCircuit`, or anything
        else with their ``name``, ``netlist``, ``output_ports()``,
        ``input_assignment(in1, in2)`` and ``exact_words(in1, in2)``.
    library:
        Standard-cell library used for delays and energies.
    """

    def __init__(
        self,
        circuit: Any,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
    ) -> None:
        self._circuit = circuit
        self._simulator = VosTimingSimulator(
            circuit.netlist,
            output_ports=circuit.output_ports(),
            library=library,
        )

    @property
    def circuit(self) -> Any:
        """The circuit under test."""
        return self._circuit

    @property
    def simulator(self) -> VosTimingSimulator:
        """The underlying timing simulator (exposed for advanced experiments)."""
        return self._simulator

    def nominal_critical_path(self, vdd: float | None = None, vbb: float = 0.0) -> float:
        """Static critical path delay (seconds) at the given operating point."""
        supply = DEFAULT_LIBRARY.technology.vdd_nominal if vdd is None else vdd
        return self._simulator.annotation(supply, vbb).critical_path_delay

    def run_triad(
        self,
        in1: np.ndarray,
        in2: np.ndarray,
        tclk: float,
        vdd: float,
        vbb: float = 0.0,
    ) -> TriadMeasurement:
        """Apply an operand stream under one operating triad."""
        in1_arr, in2_arr = _operands(in1, in2)
        result = self._simulator.run(
            self._circuit.input_assignment(in1_arr, in2_arr),
            tclk=tclk,
            vdd=vdd,
            vbb=vbb,
        )
        return self.measurement(in1_arr, in2_arr, result, vdd, vbb)

    def run_sweep(
        self, in1: np.ndarray, in2: np.ndarray, triads: Iterable
    ) -> list[TriadMeasurement]:
        """Apply one operand stream under every triad of a sweep.

        ``triads`` is any iterable of objects with ``tclk`` / ``vdd`` /
        ``vbb`` attributes (e.g. :class:`repro.core.triad.OperatingTriad`).
        Everything that does not depend on the triad is computed once for the
        whole sweep: the operand-to-port binding, the golden words, and --
        inside the simulator -- the resolved stimulus, the settled words and
        one unit-``tau`` arrival pass with its per-vector maximum, which each
        operating point scales by its ``tau``; a triad then touches only the
        vectors that can be late.  Triads sharing ``vdd`` are cheapest back
        to back: the dynamic energy is held for the latest supply only.
        """
        return list(self.iter_sweep(in1, in2, triads))

    def iter_sweep(
        self, in1: np.ndarray, in2: np.ndarray, triads: Iterable
    ) -> Iterator[TriadMeasurement]:
        """:meth:`run_sweep`, yielding each measurement as it is computed.

        The operands are checked and bound on the call; the measurements
        follow as the iterator is consumed, so a caller can store them in
        batches while the whole stream shares one resolved stimulus.
        """
        in1_arr, in2_arr = _operands(in1, in2)
        exact = self._circuit.exact_words(in1_arr, in2_arr)
        triads = list(triads)
        results = self._simulator.run_sweep(
            self._circuit.input_assignment(in1_arr, in2_arr), triads
        )
        return (
            self.measurement(in1_arr, in2_arr, result, triad.vdd, triad.vbb, exact)
            for triad, result in zip(triads, results)
        )

    def measurement(
        self,
        in1: np.ndarray,
        in2: np.ndarray,
        result: VosSimulationResult,
        vdd: float,
        vbb: float,
        exact: np.ndarray | None = None,
    ) -> TriadMeasurement:
        """The :class:`TriadMeasurement` of one simulation result.

        ``in1`` and ``in2`` are the int64 operand arrays the result was
        simulated from; ``exact`` holds their golden words when the caller
        already has them (a sweep computes them once).
        """
        if exact is None:
            exact = self._circuit.exact_words(in1, in2)
        return TriadMeasurement(
            adder_name=self._circuit.name,
            tclk=result.tclk,
            vdd=vdd,
            vbb=vbb,
            in1=in1,
            in2=in2,
            latched_words=result.latched_words,
            exact_words=exact,
            output_width=result.n_outputs,
            energy_per_operation=float(result.total_energy.mean()),
            dynamic_energy_per_operation=float(result.dynamic_energy.mean()),
            static_energy_per_operation=float(result.static_energy.mean()),
        )


def _operands(in1: np.ndarray, in2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    in1_arr = np.asarray(in1, dtype=np.int64)
    in2_arr = np.asarray(in2, dtype=np.int64)
    if in1_arr.shape != in2_arr.shape:
        raise ValueError("in1 and in2 must have the same shape")
    return in1_arr, in2_arr
