"""Per-triad measurement runs for adder circuits.

The testbench plays the role of the paper's automated SPICE test scripts: it
applies a pattern set to an adder under one operating triad, captures the
latched outputs, compares them with the golden outputs and records energy.
The raw measurements are consumed by :mod:`repro.core.characterization`,
which aggregates them into the statistics the paper reports (BER, MSE,
bit-wise error probability, energy efficiency).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Iterator

import numpy as np

from repro.circuits.adders import AdderCircuit
from repro.circuits.signals import int_to_bits
from repro.simulation.timing_sim import VosSimulationResult, VosTimingSimulator
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary


@dataclasses.dataclass(frozen=True)
class TriadMeasurement:
    """Raw measurement of an adder under one operating triad.

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
        Golden results (``in1 + in2``).
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


class AdderTestbench:
    """Reusable testbench for one adder circuit.

    Parameters
    ----------
    adder:
        The circuit under test.
    library:
        Standard-cell library used for delays and energies.
    """

    def __init__(
        self,
        adder: AdderCircuit,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
    ) -> None:
        self._adder = adder
        self._simulator = VosTimingSimulator(
            adder.netlist,
            output_ports=adder.output_ports(),
            library=library,
        )

    @property
    def adder(self) -> AdderCircuit:
        """The circuit under test."""
        return self._adder

    @property
    def simulator(self) -> VosTimingSimulator:
        """The underlying timing simulator (exposed for advanced experiments)."""
        return self._simulator

    def nominal_critical_path(self, vdd: float | None = None, vbb: float = 0.0) -> float:
        """Static critical path delay (seconds) at the given operating point."""
        supply = self._simulator.annotation(
            vdd if vdd is not None else DEFAULT_LIBRARY.technology.vdd_nominal, vbb
        )
        return supply.critical_path_delay

    def run_triad(
        self,
        in1: np.ndarray,
        in2: np.ndarray,
        tclk: float,
        vdd: float,
        vbb: float = 0.0,
        *,
        use_reference: bool = False,
    ) -> TriadMeasurement:
        """Apply an operand stream under one operating triad.

        ``use_reference=True`` runs the legacy per-gate simulation loop
        instead of the compiled engine (parity tests / benchmarks only).
        """
        in1_arr = np.asarray(in1, dtype=np.int64)
        in2_arr = np.asarray(in2, dtype=np.int64)
        if in1_arr.shape != in2_arr.shape:
            raise ValueError("in1 and in2 must have the same shape")
        assignment = self._adder.input_assignment(in1_arr, in2_arr)
        simulate = (
            self._simulator.run_reference if use_reference else self._simulator.run
        )
        result = simulate(assignment, tclk=tclk, vdd=vdd, vbb=vbb)
        return self._to_measurement(in1_arr, in2_arr, result, tclk, vdd, vbb)

    def run_sweep(
        self,
        in1: np.ndarray,
        in2: np.ndarray,
        triads: Iterable,
        *,
        use_reference: bool = False,
    ) -> list[TriadMeasurement]:
        """Apply one operand stream under every triad of a sweep.

        ``triads`` is any iterable of objects with ``tclk`` / ``vdd`` /
        ``vbb`` attributes (e.g. :class:`repro.core.triad.OperatingTriad`).
        Everything that does not depend on the triad is computed once for the
        whole sweep: the operand-to-port binding, the golden sum, and --
        inside the simulator -- the resolved stimulus, the settled words and
        one unit-``tau`` arrival pass with its per-vector maximum, which each
        operating point scales by its ``tau``; a triad then touches only the
        vectors that can be late.  Triads sharing ``vdd`` are cheapest back
        to back: the dynamic energy is held for the latest supply only.
        """
        return list(
            self.iter_sweep(in1, in2, triads, use_reference=use_reference)
        )

    def iter_sweep(
        self,
        in1: np.ndarray,
        in2: np.ndarray,
        triads: Iterable,
        *,
        use_reference: bool = False,
    ) -> Iterator[TriadMeasurement]:
        """:meth:`run_sweep`, yielding each measurement as it is computed.

        The operands are checked and bound on the call; the measurements
        follow as the iterator is consumed, so a caller can store them in
        batches while the whole stream shares one resolved stimulus.
        """
        in1_arr = np.asarray(in1, dtype=np.int64)
        in2_arr = np.asarray(in2, dtype=np.int64)
        if in1_arr.shape != in2_arr.shape:
            raise ValueError("in1 and in2 must have the same shape")
        exact = self._adder.exact_sum(in1_arr, in2_arr)
        return sweep_measurements(
            self._simulator,
            self._adder.name,
            self._adder.input_assignment(in1_arr, in2_arr),
            in1_arr,
            in2_arr,
            exact,
            triads,
            use_reference=use_reference,
        )

    def _to_measurement(
        self,
        in1: np.ndarray,
        in2: np.ndarray,
        result: VosSimulationResult,
        tclk: float,
        vdd: float,
        vbb: float,
    ) -> TriadMeasurement:
        return measurement_from_result(
            self._adder.name,
            in1,
            in2,
            result,
            tclk,
            vdd,
            vbb,
            self._adder.exact_sum(in1, in2),
        )


def measurement_from_result(
    name: str,
    in1: np.ndarray,
    in2: np.ndarray,
    result: VosSimulationResult,
    tclk: float,
    vdd: float,
    vbb: float,
    exact: np.ndarray,
) -> TriadMeasurement:
    """Assemble a :class:`TriadMeasurement` from one simulation result.

    Shared by the adder and multiplier testbenches; ``exact`` holds the
    circuit's golden words.
    """
    return TriadMeasurement(
        adder_name=name,
        tclk=tclk,
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


def sweep_measurements(
    simulator: VosTimingSimulator,
    name: str,
    assignment: dict[str, np.ndarray],
    in1: np.ndarray,
    in2: np.ndarray,
    exact: np.ndarray,
    triads: Iterable,
    *,
    use_reference: bool = False,
) -> Iterator[TriadMeasurement]:
    """Run one operand stream under every triad of a sweep, lazily.

    The triad-independent state (port binding, golden words) is taken
    pre-computed; the simulator adds its own sweep-level reuse
    (the stimulus resolved once per sweep, settled bits and one unit-``tau``
    arrival pass per pattern set, scaled to each operating point).  Shared
    by the adder and multiplier testbenches.
    """
    triads = list(triads)
    if use_reference:
        results = (
            simulator.run_reference(
                assignment, tclk=triad.tclk, vdd=triad.vdd, vbb=triad.vbb
            )
            for triad in triads
        )
    else:
        results = simulator.run_sweep(assignment, triads)
    for triad, result in zip(triads, results):
        yield measurement_from_result(
            name, in1, in2, result, triad.tclk, triad.vdd, triad.vbb, exact
        )
