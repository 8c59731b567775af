"""Per-triad measurements for multiplier circuits.

The paper's flow is demonstrated on adders, but its characterization method
applies to any combinational arithmetic operator.  This module extends the
testbench to the array multiplier of :mod:`repro.circuits.multipliers`, so
the VOS behaviour of a multiply unit can be characterized with exactly the
same machinery (and compared against the adder results in the ablation
benchmarks).

Like :class:`~repro.simulation.testbench.AdderTestbench`, sweeps run on the
compiled engine with sweep-level reuse (:meth:`MultiplierTestbench.run_sweep`
computes the golden product once per pattern set), so the
sweep orchestrator shards multiplier grids exactly like adder grids.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.circuits.multipliers import MultiplierCircuit
from repro.simulation.testbench import (
    TriadMeasurement,
    measurement_from_result,
    sweep_measurements,
)
from repro.simulation.timing_sim import VosTimingSimulator
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary


class MultiplierTestbench:
    """Reusable testbench for one multiplier circuit.

    The interface mirrors :class:`repro.simulation.testbench.AdderTestbench`:
    ``run_triad`` applies an operand stream under one operating triad and
    returns a :class:`~repro.simulation.testbench.TriadMeasurement` whose
    golden reference is the exact product.
    """

    def __init__(
        self,
        multiplier: MultiplierCircuit,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
    ) -> None:
        self._multiplier = multiplier
        self._simulator = VosTimingSimulator(
            multiplier.netlist,
            output_ports=multiplier.output_ports(),
            library=library,
        )

    @property
    def multiplier(self) -> MultiplierCircuit:
        """The circuit under test."""
        return self._multiplier

    @property
    def simulator(self) -> VosTimingSimulator:
        """The underlying timing simulator."""
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
        assignment = self._multiplier.input_assignment(in1_arr, in2_arr)
        simulate = (
            self._simulator.run_reference if use_reference else self._simulator.run
        )
        result = simulate(assignment, tclk=tclk, vdd=vdd, vbb=vbb)
        exact = self._multiplier.exact_product(in1_arr, in2_arr)
        return measurement_from_result(
            self._multiplier.name,
            in1_arr,
            in2_arr,
            result,
            tclk,
            vdd,
            vbb,
            exact,
        )

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
        ``vbb`` attributes.  The operand-to-port binding and the golden
        product are computed once for the whole sweep; the simulator
        additionally reuses settled words and one unit-``tau``
        arrival pass per pattern set, exactly like the adder sweep.
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
        """:meth:`run_sweep`, yielding each measurement as it is computed
        (see :meth:`repro.simulation.testbench.AdderTestbench.iter_sweep`)."""
        in1_arr = np.asarray(in1, dtype=np.int64)
        in2_arr = np.asarray(in2, dtype=np.int64)
        if in1_arr.shape != in2_arr.shape:
            raise ValueError("in1 and in2 must have the same shape")
        exact = self._multiplier.exact_product(in1_arr, in2_arr)
        return sweep_measurements(
            self._simulator,
            self._multiplier.name,
            self._multiplier.input_assignment(in1_arr, in2_arr),
            in1_arr,
            in2_arr,
            exact,
            triads,
            use_reference=use_reference,
        )
