"""Characterization flow (the paper's Fig. 4).

The flow drives one adder circuit through a grid of operating triads, runs
the VOS timing simulation for each triad with the same input pattern set, and
condenses the raw measurements into the statistics the paper reports: BER,
MSE, per-bit error probability, energy per operation, and energy efficiency
relative to the nominal (ideal) triad.  The per-triad raw outputs are kept so
the calibration step (Algorithm 1) and the model-accuracy experiments can be
run on exactly the same data.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.circuits.adders import AdderCircuit, build_adder
from repro.circuits.operators import OperatorSpec
from repro.core import sweep as sweep_module
from repro.core.resilience import ExecutionPolicy, ExecutionReport
from repro.core.store import SweepResultStore
from repro.core.triad import OperatingTriad, TriadGrid, matched_triad_grid
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.simulation.testbench import OperatorTestbench, TriadMeasurement
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.testing.chaos import ChaosPlan


@dataclasses.dataclass(frozen=True)
class TriadCharacterization:
    """Summary statistics of one adder under one operating triad.

    Attributes
    ----------
    triad:
        The operating triad.
    ber:
        Bit error rate (faulty output bits over total output bits).
    mse:
        Mean squared numerical error of the latched outputs.
    bitwise_error:
        Per-output-bit error probability (LSB first) -- the Fig. 5 series.
    energy_per_operation:
        Mean total energy per operation, joules.
    dynamic_energy_per_operation / static_energy_per_operation:
        Energy components, joules.
    faulty_vector_fraction:
        Fraction of cycles whose whole output word was wrong.
    """

    triad: OperatingTriad
    ber: float
    mse: float
    bitwise_error: np.ndarray
    energy_per_operation: float
    dynamic_energy_per_operation: float
    static_energy_per_operation: float
    faulty_vector_fraction: float

    @property
    def ber_percent(self) -> float:
        """BER expressed in percent (the paper's unit)."""
        return self.ber * 100.0

    @property
    def energy_per_operation_pj(self) -> float:
        """Energy per operation in picojoules (the paper's unit)."""
        return self.energy_per_operation * 1e12

    def label(self) -> str:
        """The paper's triad label for plot axes."""
        return self.triad.label()


@dataclasses.dataclass
class AdderCharacterization:
    """Full characterization of one adder over a triad grid.

    Attributes
    ----------
    adder_name:
        Name of the characterized circuit (e.g. ``"rca8"``).
    width:
        Operand width in bits.
    results:
        One :class:`TriadCharacterization` per triad, in grid order.
    reference_triad:
        The nominal (ideal) triad used as the energy-efficiency baseline.
    measurements:
        Raw per-triad measurements (kept for calibration); indexed like
        ``results``.  May be empty if the characterization was loaded from
        disk.
    pattern_kind / n_vectors / seed:
        Stimulus configuration used for all triads.
    """

    adder_name: str
    width: int
    results: list[TriadCharacterization]
    reference_triad: OperatingTriad
    measurements: list[TriadMeasurement] = dataclasses.field(default_factory=list)
    pattern_kind: str = "uniform"
    n_vectors: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        self._reindex()

    def _reindex(self) -> None:
        """(Re)build the triad-keyed lookup tables over the stored lists."""
        self._results_by_triad: dict[OperatingTriad, TriadCharacterization] = {
            entry.triad: entry for entry in self.results
        }
        self._measurements_by_triad: dict[OperatingTriad, TriadMeasurement] = {
            OperatingTriad(
                tclk=measurement.tclk, vdd=measurement.vdd, vbb=measurement.vbb
            ): measurement
            for measurement in self.measurements
        }
        # Snapshot of the indexed list contents (entries are frozen, so
        # identity captures them fully); lets the lookups detect any
        # post-construction mutation of the lists and rebuild.
        self._index_snapshot = (
            tuple(map(id, self.results)),
            tuple(map(id, self.measurements)),
        )

    def _refresh_index(self) -> None:
        if self._index_snapshot != (
            tuple(map(id, self.results)),
            tuple(map(id, self.measurements)),
        ):
            self._reindex()

    @property
    def reference_energy(self) -> float:
        """Energy per operation of the nominal triad, joules."""
        reference = self.find(self.reference_triad)
        return reference.energy_per_operation

    def find(self, triad: OperatingTriad) -> TriadCharacterization:
        """Look up the characterization entry of a specific triad (keyed dict)."""
        self._refresh_index()
        entry = self._results_by_triad.get(triad)
        if entry is None:
            raise KeyError(f"triad {triad!r} was not characterized")
        return entry

    def energy_efficiency_of(self, entry: TriadCharacterization) -> float:
        """Energy saving of a triad relative to the nominal triad (0..1)."""
        reference = self.reference_energy
        if reference <= 0:
            raise ValueError("reference energy must be positive")
        return 1.0 - entry.energy_per_operation / reference

    def sorted_by_energy(self) -> list[TriadCharacterization]:
        """Entries sorted by decreasing energy per operation (Fig. 8 x-axis)."""
        return sorted(self.results, key=lambda entry: -entry.energy_per_operation)

    def within_ber(self, max_ber: float) -> list[TriadCharacterization]:
        """Entries whose BER does not exceed ``max_ber`` (fraction, not %)."""
        if max_ber < 0:
            raise ValueError("max_ber must be non-negative")
        return [entry for entry in self.results if entry.ber <= max_ber]

    def measurement_for(self, triad: OperatingTriad) -> TriadMeasurement:
        """Raw measurement of a triad (required by Algorithm 1; keyed dict)."""
        self._refresh_index()
        measurement = self._measurements_by_triad.get(triad)
        if measurement is None:
            raise KeyError(
                f"no raw measurement stored for triad {triad!r}; "
                "re-run the characterization with keep_measurements=True"
            )
        return measurement


class CharacterizationFlow:
    """Drive the Fig. 4 flow for one adder circuit.

    Parameters
    ----------
    adder:
        Circuit to characterize, or a name accepted by
        :func:`repro.circuits.adders.build_adder` combined with ``width``.
    library:
        Standard-cell library used by the simulator.
    sta_margin:
        Clock-path pessimism factor applied to the measured critical path
        when deriving the default triad grid.  The paper points out that EDA
        static timing analysis adds such a guard band, which is why the
        hardware still works error-free well below the nominal supply; 1.5
        reproduces that behaviour on this substrate.
    """

    def __init__(
        self,
        adder: AdderCircuit,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
        sta_margin: float = 1.5,
    ) -> None:
        if sta_margin < 1.0:
            raise ValueError("sta_margin must be >= 1.0")
        self._adder = adder
        self._library = library
        self._testbench = OperatorTestbench(adder, library=library)
        self._sta_margin = sta_margin

    @classmethod
    def for_benchmark(
        cls,
        architecture: str,
        width: int,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
        sta_margin: float = 1.5,
    ) -> "CharacterizationFlow":
        """Build the flow for an adder architecture/width pair."""
        return cls(build_adder(architecture, width), library=library, sta_margin=sta_margin)

    @property
    def adder(self) -> AdderCircuit:
        """The circuit under characterization."""
        return self._adder

    @property
    def testbench(self) -> OperatorTestbench:
        """The underlying testbench (exposed for custom experiments)."""
        return self._testbench

    def guard_banded_critical_path(self) -> float:
        """The adder's critical path with the STA pessimism margin, seconds.

        This is the clock-period base every derived triad grid is scaled
        from -- both :meth:`default_triad_grid` and the dense clock-scale
        ranges of the exploration subsystem (:mod:`repro.explore`).
        """
        return self._testbench.nominal_critical_path() * self._sta_margin

    def nominal_clock_period(self) -> float:
        """The matched equivalent of the paper's nominal clock, in seconds.

        The largest of the aggressive periods of :meth:`default_triad_grid`
        (the relaxed reference clock -- the overall maximum -- is excluded).
        This is the single definition of the rule; the Fig. 5 supply sweep
        and the Monte Carlo yield grids both scale from it.
        """
        clocks = sorted({triad.tclk for triad in self.default_triad_grid()})
        return clocks[-2] if len(clocks) > 1 else clocks[-1]

    def supply_scaling_triads(
        self, supply_voltages: Iterable[float]
    ) -> list[OperatingTriad]:
        """The Fig. 5 supply sweep: :meth:`nominal_clock_period` at each
        supply voltage with no body bias, in the given order (repeats kept).

        The single definition of the rule; :func:`repro.analysis.figures
        .fig5_ber_per_bit`, the ``fig5`` job and the Monte Carlo yield grids
        all sweep it.
        """
        nominal = self.nominal_clock_period()
        return [
            OperatingTriad(tclk=nominal, vdd=vdd, vbb=0.0) for vdd in supply_voltages
        ]

    def default_triad_grid(self) -> TriadGrid:
        """Table III triad grid rescaled to this adder's own critical path.

        For the paper's four benchmarks the clock periods keep the paper's
        over-/under-clocking ratios (see
        :func:`repro.core.triad.matched_triad_grid`); for any other adder the
        grid is derived from the synthesised critical path directly.
        """
        name = self._adder.name
        critical_path = self.guard_banded_critical_path()
        try:
            return matched_triad_grid(name, critical_path)
        except ValueError:
            critical_ns = critical_path * 1e9
            periods = (
                round(critical_ns * 1.8, 3),
                round(critical_ns, 3),
                round(critical_ns * 0.7, 3),
                round(critical_ns * 0.5, 3),
            )
            return TriadGrid.from_product(periods)

    def run(
        self,
        triads: Iterable[OperatingTriad] | TriadGrid | None = None,
        pattern: PatternConfig | None = None,
        operands: tuple[np.ndarray, np.ndarray] | None = None,
        keep_measurements: bool = True,
        jobs: int = 1,
        store: SweepResultStore | None = None,
        policy: ExecutionPolicy | None = None,
        chaos: ChaosPlan | None = None,
        report: ExecutionReport | None = None,
    ) -> AdderCharacterization:
        """Characterize the adder over a triad grid.

        The sweep runs as a one-request plan of
        :func:`repro.core.sweep.run_sweep_plan` (``store``, ``chaos`` and
        ``report`` as there; ``jobs`` and ``policy`` as in its
        :class:`~repro.core.sweep.SweepRequest`): the grid is sharded along
        ``(vdd, vbb)`` groups, per-triad summaries are looked up in (and
        persisted to) the optional result ``store``, and each worker reuses
        everything that does not depend on the full triad -- golden settled
        bits and one unit-``tau`` arrival pass per pattern set, scaled to
        each ``(vdd, vbb)`` pair (see
        :meth:`repro.simulation.testbench.OperatorTestbench.run_sweep`).
        Results are bit-identical for every combination of ``jobs`` and
        cache state.

        Parameters
        ----------
        triads:
            Triads to sweep; defaults to :meth:`default_triad_grid`.
        pattern:
            Stimulus configuration; defaults to 2 048 uniform random vectors
            (the paper uses 20 K -- pass a larger config for full fidelity).
        operands:
            Explicit operand arrays, overriding ``pattern``.
        keep_measurements:
            Whether to retain raw per-triad outputs (needed for Algorithm 1).
        """
        grid = self._resolve_grid(triads)
        if operands is not None:
            in1, in2 = (np.asarray(operands[0]), np.asarray(operands[1]))
            pattern_kind = "explicit"
            seed = 0
            stimulus = sweep_module.operand_stimulus(in1, in2)
        else:
            config = pattern or PatternConfig(
                n_vectors=2048, width=self._adder.width, kind="uniform"
            )
            if config.width != self._adder.width:
                raise ValueError(
                    f"pattern width {config.width} does not match adder width "
                    f"{self._adder.width}"
                )
            in1, in2 = generate_patterns(config)
            pattern_kind = config.kind
            seed = config.seed
            stimulus = sweep_module.pattern_stimulus(config)

        request = sweep_module.characterization_request(
            self._adder,
            grid,
            in1,
            in2,
            stimulus,
            library=self._library,
            keep_latched=keep_measurements,
            jobs=jobs,
            policy=policy,
            simulator=self._testbench,
        )
        [payloads] = sweep_module.run_sweep_plan(
            [request], store=store, chaos=chaos, report=report
        )

        return characterization_from_payloads(
            self._adder,
            payloads,
            in1,
            in2,
            keep_measurements=keep_measurements,
            pattern_kind=pattern_kind,
            seed=seed,
        )

    def _resolve_grid(
        self, triads: Iterable[OperatingTriad] | TriadGrid | None
    ) -> TriadGrid:
        if triads is None:
            return self.default_triad_grid()
        if isinstance(triads, TriadGrid):
            return triads
        return TriadGrid(list(triads))


#: Characterization flows one :class:`FlowCache` keeps alive.  Bounded: a
#: large design space would otherwise pin every built netlist and testbench
#: in memory, and rebuilding an evicted flow costs only a generator run plus
#: a plan compile.
FLOW_CACHE_SIZE = 64


class FlowCache:
    """Least-recently-used characterization flows, keyed by operator spec.

    A :class:`~repro.api.session.Session` keeps one for its jobs and every
    exploration evaluator keeps its own, so an evaluator's flows (and their
    stimulus caches) are freed with the evaluator, not kept for the
    session's lifetime.
    """

    def __init__(self, library: StandardCellLibrary, sta_margin: float) -> None:
        self._library = library
        self._sta_margin = sta_margin
        self._flows: collections.OrderedDict[
            OperatorSpec, CharacterizationFlow
        ] = collections.OrderedDict()

    def get(self, spec: OperatorSpec) -> CharacterizationFlow:
        """The flow of ``spec``, built on first use."""
        flow = self._flows.get(spec)
        if flow is None:
            flow = CharacterizationFlow(
                spec.build(), library=self._library, sta_margin=self._sta_margin
            )
            self._flows[spec] = flow
            if len(self._flows) > FLOW_CACHE_SIZE:
                self._flows.popitem(last=False)
        else:
            self._flows.move_to_end(spec)
        return flow


def entry_from_payload(payload: Mapping[str, Any]) -> TriadCharacterization:
    """Rebuild one :class:`TriadCharacterization` from a sweep payload dict.

    Payloads (see :mod:`repro.core.sweep`) are the exchange format between
    sweep workers, the result store and the characterization flow; every
    field round-trips exactly, so entries are identical whether a triad was
    computed here, in a worker process, or fetched from disk.
    """
    triad_data = payload["triad"]
    triad = OperatingTriad(
        tclk=float(triad_data["tclk"]),
        vdd=float(triad_data["vdd"]),
        vbb=float(triad_data["vbb"]),
    )
    return TriadCharacterization(
        triad=triad,
        ber=float(payload["ber"]),
        mse=float(payload["mse"]),
        bitwise_error=np.asarray(payload["bitwise_error"], dtype=float),
        energy_per_operation=float(payload["energy_per_operation"]),
        dynamic_energy_per_operation=float(payload["dynamic_energy_per_operation"]),
        static_energy_per_operation=float(payload["static_energy_per_operation"]),
        faulty_vector_fraction=float(payload["faulty_vector_fraction"]),
    )


def characterization_from_payloads(
    circuit: Any,
    payloads: Sequence[Mapping[str, Any]],
    in1: np.ndarray,
    in2: np.ndarray,
    *,
    keep_measurements: bool,
    pattern_kind: str,
    seed: int,
) -> AdderCharacterization:
    """Build a characterization from the payloads of one sweep.

    ``payloads`` answer the sweep's triads in order, on the operands
    ``in1``/``in2``; the reference triad is the nominal one among them.
    With ``keep_measurements`` the payloads must carry latched words, and
    the raw measurements are rebuilt from them.  Used by
    :meth:`CharacterizationFlow.run` and by the sweep jobs of
    :class:`~repro.api.session.Session`, so both build identical results.
    """
    results = [entry_from_payload(payload) for payload in payloads]
    measurements: list[TriadMeasurement] = []
    if keep_measurements:
        # The golden words are triad-independent: compute them once for
        # the whole sweep, not per payload.
        in1_arr = np.asarray(in1, dtype=np.int64)
        in2_arr = np.asarray(in2, dtype=np.int64)
        exact = circuit.exact_words(in1_arr, in2_arr)
        measurements = [
            sweep_module.payload_to_measurement(
                payload, circuit, in1_arr, in2_arr, exact=exact
            )
            for payload in payloads
        ]
    return AdderCharacterization(
        adder_name=circuit.name,
        width=circuit.width,
        results=results,
        reference_triad=TriadGrid([entry.triad for entry in results]).nominal(),
        measurements=measurements,
        pattern_kind=pattern_kind,
        n_vectors=int(np.asarray(in1).size),
        seed=seed,
    )
