"""Sharded, cache-backed sweep orchestration.

The paper's core experiment (the Fig. 4 flow feeding Fig. 5/8 and Tables
III-IV) is a grid sweep of operating triads per operator.  This repository
sweeps two more grids of independent units: stuck-at fault sites
(:func:`run_fault_sweep`) and ``(sample range, triad)`` Monte Carlo entries
(:func:`repro.variation.montecarlo.run_montecarlo_sweep`).  All three run
through one driver, :func:`run_unit_sweep`:

* **Result store.**  Each unit's payload is a pure function of its store
  key (circuit, stimulus, unit, library, engine version ...); the driver
  reads the whole grid from the content-addressed
  :class:`~repro.core.store.SweepResultStore` in one batch and simulates
  only the units it lacks, so repeated sweeps -- across CLI runs, benchmark
  sessions and CI jobs -- skip the simulation entirely.
* **One shard type, one split rule.**  Missing units are cut into pieces
  by their :class:`SweepKind` (triads by whole ``(vdd, vbb)`` group, the
  axis the simulator's reuse is keyed on; fault sites round-robin; Monte
  Carlo triads by group within one sample range).  With ``jobs > 1`` each
  piece becomes a :class:`_Shard` on the fault-tolerant pool of
  :func:`~repro.core.resilience.run_shards`: the built circuit and the
  operands travel pickled with the task, and ``split-and-retry`` halves a
  shard's units.  Otherwise the pieces run in-process on one simulator.
* **Crash consistency.**  Every completed shard, and in-process every
  flush block of its kind, is written to the store at once, so a run killed
  mid-flight resumes warm.  Results merge by grid order, so they are
  bit-identical for any worker count or completion order.

Everything travels as JSON-serialisable *payload* dicts (exact float / int64
round-trips), whether a result comes from this process, a worker, or the
on-disk store; each kind's payloads carry its own layout version, and the
conversion back to :class:`TriadCharacterization` /
:class:`TriadMeasurement` is therefore identical on every path.
Multiplier grids run through the identical entry points: one
:class:`~repro.simulation.testbench.OperatorTestbench` drives adders and
multipliers alike.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Mapping, Protocol, Sequence

import numpy as np

from repro.core.metrics import mean_squared_error
from repro.core.resilience import ExecutionPolicy, ExecutionReport, run_shards
from repro.core.store import (
    SweepResultStore,
    decode_int64_array,
    library_fingerprint,
    netlist_fingerprint,
    operand_fingerprint,
    pack_int64_array,
)
from repro.core.triad import OperatingTriad, TriadGrid
from repro.obs import metrics
from repro.obs.trace import TraceContext, current_context, span, worker_scope
from repro.simulation.engine import ENGINE_VERSION
from repro.simulation.fault_injection import (
    FaultSimulationResult,
    StuckAtFault,
    StuckAtFaultSimulator,
    enumerate_stuck_at_faults,
)
from repro.simulation.patterns import PatternConfig
from repro.simulation.testbench import OperatorTestbench, TriadMeasurement
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.testing.chaos import ChaosPlan

#: Version of the payload dict layout (part of the stored entries).
PAYLOAD_VERSION = 1

#: Fault sites simulated between store flushes on the in-process path of
#: :func:`run_fault_sweep` -- small enough that an interrupted campaign
#: loses little work, large enough that flushing stays off the profile.
SERIAL_FAULT_FLUSH_BLOCK = 64


# ---------------------------------------------------------------------------
# Simulation-count instrumentation
# ---------------------------------------------------------------------------

#: Work units actually simulated by this process's orchestrators (triads for
#: characterization sweeps, fault sites for fault campaigns, (sample range x
#: triad) entries for Monte Carlo runs).  Cache hits do not count.  The
#: counter is recorded parent-side (before shards are dispatched), so it is
#: accurate whether the units execute in-process or in worker processes.
#: Lives in the process-global metrics registry (:data:`repro.obs.metrics
#: .REGISTRY`), where the batch dedup counters also land.
_SIMULATED_UNITS = metrics.REGISTRY.counter("sweep.simulated_units")


def simulated_unit_count() -> int:
    """Total work units simulated so far (monotonic; cache hits excluded).

    Snapshot before and after an operation to measure how much real
    simulation it performed -- the batch planner's dedup accounting and the
    zero-duplicate-simulation tests are built on this.
    """
    return _SIMULATED_UNITS.value


def record_simulated_units(count: int) -> None:
    """Record ``count`` work units as actually simulated."""
    if count < 0:
        raise ValueError("count must be non-negative")
    _SIMULATED_UNITS.add(int(count))


# ---------------------------------------------------------------------------
# Stimulus descriptors (cache-key components + operand resolution)
# ---------------------------------------------------------------------------


def pattern_stimulus(config: PatternConfig) -> dict[str, Any]:
    """Cache-key components of a generated pattern stimulus."""
    return {
        "type": "pattern",
        "kind": config.kind,
        "n_vectors": config.n_vectors,
        "width": config.width,
        "seed": config.seed,
    }


def operand_stimulus(in1: np.ndarray, in2: np.ndarray) -> dict[str, Any]:
    """Cache-key components of an explicit operand-pair stimulus."""
    return {
        "type": "operands",
        "sha256": operand_fingerprint(in1, in2),
        "n_vectors": int(np.asarray(in1).size),
    }


# ---------------------------------------------------------------------------
# Payloads (the JSON-serialisable unit of result exchange)
# ---------------------------------------------------------------------------


def measurement_to_payload(
    measurement: TriadMeasurement,
    output_width: int,
    keep_latched: bool,
) -> dict[str, Any]:
    """Condense one triad measurement into a payload dict.

    The error rates are counts divided by their base, taken on the
    per-vector error words ``err = latched_words ^ exact_words``: the
    ``bitwise_error`` counts mask each output bit of the nonzero words only,
    ``ber`` is their total over ``n_vectors * output_width`` and
    ``faulty_vector_fraction`` is the share of nonzero words (see
    :attr:`TriadMeasurement.faulty_vector_fraction`).  These are the
    same doubles as the ``.mean()`` of the boolean error matrices the flow
    used before: such a mean sums 0.0/1.0 values, every partial sum is an
    integer below ``2**53`` and so exact, and divides the total once by the
    element count with correct rounding -- which is what the integer
    division does too.  ``mse`` and the energy means keep their float
    expressions, whose summation order matters.  Payload statistics are
    therefore bit-identical with a direct in-process summary.
    """
    err = np.bitwise_xor(measurement.latched_words, measurement.exact_words).ravel()
    n_rows = err.size
    faulty = err[err != 0]
    bit_counts = [
        int(np.count_nonzero(faulty & (1 << bit))) for bit in range(output_width)
    ]
    payload: dict[str, Any] = {
        "payload_version": PAYLOAD_VERSION,
        "triad": {
            "tclk": measurement.tclk,
            "vdd": measurement.vdd,
            "vbb": measurement.vbb,
        },
        "n_vectors": measurement.n_vectors,
        "ber": sum(bit_counts) / (n_rows * output_width),
        "mse": mean_squared_error(measurement.exact_words, measurement.latched_words),
        "bitwise_error": [count / n_rows for count in bit_counts],
        "energy_per_operation": measurement.energy_per_operation,
        "dynamic_energy_per_operation": measurement.dynamic_energy_per_operation,
        "static_energy_per_operation": measurement.static_energy_per_operation,
        "faulty_vector_fraction": measurement.faulty_vector_fraction,
    }
    if keep_latched:
        # Raw bytes, not base64: the store writes them verbatim into pack
        # records and warm reads hand the same bytes back, so cached and
        # freshly computed payloads are identical dicts.
        payload["latched_words"] = pack_int64_array(measurement.latched_words)
    return payload


def payload_to_measurement(
    payload: Mapping[str, Any],
    circuit: Any,
    in1: np.ndarray,
    in2: np.ndarray,
    exact: np.ndarray | None = None,
) -> TriadMeasurement:
    """Rebuild the raw measurement of one triad from its payload.

    Only the latched output words are stored; the golden words are
    recomputed from the operands, which is deterministic and exact.
    ``exact`` is triad-independent -- pass it in when rebuilding a whole
    sweep so it is computed once, not per triad.
    """
    if "latched_words" not in payload:
        raise KeyError("payload does not carry latched words")
    in1_arr = np.asarray(in1, dtype=np.int64)
    in2_arr = np.asarray(in2, dtype=np.int64)
    latched = decode_int64_array(payload["latched_words"]).reshape(in1_arr.shape)
    triad = payload["triad"]
    return TriadMeasurement.of_circuit(
        circuit,
        in1_arr,
        in2_arr,
        latched,
        tclk=triad["tclk"],
        vdd=triad["vdd"],
        vbb=triad["vbb"],
        energy=payload["energy_per_operation"],
        dynamic_energy=payload["dynamic_energy_per_operation"],
        static_energy=payload["static_energy_per_operation"],
        exact=exact,
    )

def payload_usable(
    payload: Mapping[str, Any] | None, n_vectors: int, keep_latched: bool
) -> bool:
    """Whether a (possibly cached) characterization payload satisfies a request.

    Shared by the sweep orchestrator and the batch planner of
    :mod:`repro.api.session`, so both judge warmness identically.
    """
    if payload is None:
        return False
    if payload.get("payload_version") != PAYLOAD_VERSION:
        return False
    if payload.get("n_vectors") != n_vectors:
        return False
    if keep_latched and "latched_words" not in payload:
        return False
    return True


# ---------------------------------------------------------------------------
# Sharding
# ---------------------------------------------------------------------------


def _by_operating_point(
    triads: Sequence[OperatingTriad],
) -> dict[tuple[float, float], list[OperatingTriad]]:
    """Triads grouped by ``(vdd, vbb)``, groups in first-appearance order."""
    groups: dict[tuple[float, float], list[OperatingTriad]] = {}
    for triad in triads:
        groups.setdefault((triad.vdd, triad.vbb), []).append(triad)
    return groups


def shard_triads(
    triads: Sequence[OperatingTriad], n_shards: int
) -> list[list[OperatingTriad]]:
    """Split a triad list into at most ``n_shards`` balanced shards.

    Triads sharing an operating point ``(vdd, vbb)`` always land in the same
    shard: its clocks share the point's annotation and the supply's dynamic
    energy, which a split group would compute twice.
    The expensive unit-``tau`` arrival pass runs once per shard whatever
    the split, so per-point work is small and balancing by triad count
    suffices.  Assignment is deterministic: groups (largest first) go to
    the currently lightest shard.
    """
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    groups = _by_operating_point(triads)
    ordered = sorted(
        groups.items(), key=lambda item: (-len(item[1]), item[0][0], item[0][1])
    )
    shards: list[list[OperatingTriad]] = [[] for _ in range(min(n_shards, len(groups)))]
    loads = [0] * len(shards)
    for _, group in ordered:
        lightest = loads.index(min(loads))
        shards[lightest].extend(group)
        loads[lightest] += len(group)
    return [shard for shard in shards if shard]


# ---------------------------------------------------------------------------
# Sweep kinds (the per-kind part of the one sweep driver)
# ---------------------------------------------------------------------------


class SweepKind(Protocol):
    """What :func:`run_unit_sweep` asks of one kind of sweep unit.

    Implementations are small frozen dataclasses: picklable (they ride in
    every :class:`_Shard`) and hashable (a unit is identified by its
    ``(kind, unit)`` pair).  They hold whatever besides the circuit and the
    operands a unit's simulation needs -- the cell library, the Monte Carlo
    sample range ...
    """

    #: ``kind`` attribute of the ``sweep.shard`` span.
    name: str
    #: Layout version every payload of this kind carries.
    payload_version: int

    def entry_key(self, base_components: Mapping[str, Any], unit: Any) -> str:
        """Store key of one unit within the sweep ``base_components`` name."""

    def usable(self, payload: Mapping[str, Any], n_vectors: int) -> bool:
        """Whether a cached payload serves the unit it is stored under."""

    def plan(self, units: list[Any], n_shards: int | None) -> list[list[Any]]:
        """Split ``units`` into pool pieces, or into the in-process flush
        blocks when ``n_shards`` is ``None``."""

    def simulator(self, circuit: Any) -> Any:
        """The reusable simulator :meth:`run` works on."""

    def run(
        self,
        simulator: Any,
        circuit: Any,
        in1: np.ndarray,
        in2: np.ndarray,
        pieces: Sequence[Sequence[Any]],
    ) -> Iterator[list[dict[str, Any]]]:
        """Yield one payload list per piece, in piece and unit order."""

    def shard_attributes(self) -> dict[str, Any]:
        """Attributes of the ``sweep.shard`` span besides kind and units."""


@dataclasses.dataclass(frozen=True)
class _CharacterizationKind:
    """Units are :class:`OperatingTriad` values; in-process, each
    ``(vdd, vbb)`` group is one flush block."""

    library: StandardCellLibrary
    keep_latched: bool

    name = "characterization"
    payload_version = PAYLOAD_VERSION

    def entry_key(
        self, base_components: Mapping[str, Any], unit: OperatingTriad
    ) -> str:
        return characterization_entry_key(base_components, unit)

    def usable(self, payload: Mapping[str, Any], n_vectors: int) -> bool:
        return payload_usable(payload, n_vectors, self.keep_latched)

    def plan(
        self, units: list[OperatingTriad], n_shards: int | None
    ) -> list[list[OperatingTriad]]:
        if n_shards is None:
            return list(_by_operating_point(units).values())
        return shard_triads(units, n_shards)

    def simulator(self, circuit: Any) -> Any:
        return OperatorTestbench(circuit, library=self.library)

    def run(
        self,
        simulator: Any,
        circuit: Any,
        in1: np.ndarray,
        in2: np.ndarray,
        pieces: Sequence[Sequence[OperatingTriad]],
    ) -> Iterator[list[dict[str, Any]]]:
        # The pieces are consumed from one lazy sweep, so the stimulus is
        # resolved (and its arrival pass run) once; ``zip`` draws from
        # ``piece`` first and so never takes a measurement of the next piece.
        measurements = simulator.iter_sweep(
            in1, in2, [triad for piece in pieces for triad in piece]
        )
        for piece in pieces:
            yield [
                measurement_to_payload(
                    measurement, circuit.output_width, self.keep_latched
                )
                for _, measurement in zip(piece, measurements)
            ]

    def shard_attributes(self) -> dict[str, Any]:
        return {}


@dataclasses.dataclass(frozen=True)
class _FaultKind:
    """Units are :class:`StuckAtFault` sites; in-process, every
    :data:`SERIAL_FAULT_FLUSH_BLOCK` sites are one flush block.

    Stuck-at simulation is purely functional, so no cell library enters
    the simulation or the key.
    """

    name = "faults"
    payload_version = PAYLOAD_VERSION

    def entry_key(
        self, base_components: Mapping[str, Any], unit: StuckAtFault
    ) -> str:
        return SweepResultStore.entry_key(
            {
                **base_components,
                "fault": {"net": unit.net, "value": bool(unit.stuck_value)},
            }
        )

    def usable(self, payload: Mapping[str, Any], n_vectors: int) -> bool:
        return (
            payload.get("payload_version") == PAYLOAD_VERSION
            and payload.get("n_vectors") == n_vectors
        )

    def plan(
        self, units: list[StuckAtFault], n_shards: int | None
    ) -> list[list[StuckAtFault]]:
        if n_shards is None:
            return [
                units[start : start + SERIAL_FAULT_FLUSH_BLOCK]
                for start in range(0, len(units), SERIAL_FAULT_FLUSH_BLOCK)
            ]
        n_shards = min(n_shards, len(units))
        return [units[start::n_shards] for start in range(n_shards)]

    def simulator(self, circuit: Any) -> StuckAtFaultSimulator:
        return StuckAtFaultSimulator(
            circuit.netlist, output_ports=circuit.output_ports()
        )

    def run(
        self,
        simulator: StuckAtFaultSimulator,
        circuit: Any,
        in1: np.ndarray,
        in2: np.ndarray,
        pieces: Sequence[Sequence[StuckAtFault]],
    ) -> Iterator[list[dict[str, Any]]]:
        assignment = circuit.input_assignment(in1, in2)
        n_vectors = int(in1.size)
        for piece in pieces:
            yield [
                _fault_result_to_payload(result, n_vectors)
                for result in simulator.run(assignment, piece)
            ]

    def shard_attributes(self) -> dict[str, Any]:
        return {}


def _fault_result_to_payload(
    result: FaultSimulationResult, n_vectors: int
) -> dict[str, Any]:
    return {
        "payload_version": PAYLOAD_VERSION,
        "fault": {"net": result.fault.net, "value": bool(result.fault.stuck_value)},
        "n_vectors": n_vectors,
        "detected": bool(result.detected),
        "faulty_vector_fraction": result.faulty_vector_fraction,
        "ber": result.ber,
    }


def _payload_to_fault_result(payload: Mapping[str, Any]) -> FaultSimulationResult:
    fault = payload["fault"]
    return FaultSimulationResult(
        fault=StuckAtFault(net=int(fault["net"]), stuck_value=bool(fault["value"])),
        detected=bool(payload["detected"]),
        faulty_vector_fraction=float(payload["faulty_vector_fraction"]),
        ber=float(payload["ber"]),
    )


# ---------------------------------------------------------------------------
# The shard (one pool task) and its worker / split / validate hooks
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Shard:
    """A piece of one kind's units, shipped to a worker process.

    The circuit and the operands travel inline: the pool pickles them with
    the task, and the worker simulates the unpickled circuit.
    """

    kind: SweepKind
    circuit: Any
    in1: np.ndarray
    in2: np.ndarray
    units: tuple[Any, ...]
    trace: TraceContext | None = None


def _run_shard(task: _Shard) -> list[dict[str, Any]]:
    """Worker entry point: one payload per unit of ``task``, in unit order."""
    with worker_scope(
        task.trace,
        "sweep.shard",
        kind=task.kind.name,
        units=len(task.units),
        **task.kind.shard_attributes(),
    ):
        [payloads] = task.kind.run(
            task.kind.simulator(task.circuit),
            task.circuit,
            task.in1,
            task.in2,
            [task.units],
        )
        return payloads


def _split_shard(task: _Shard) -> tuple[_Shard, _Shard]:
    """Halve a shard's units for the ``split-and-retry`` action.

    Each unit's payload is a function of that unit alone, so the halves
    reproduce the shard's payloads.
    """
    half = len(task.units) // 2
    return (
        dataclasses.replace(task, units=task.units[:half]),
        dataclasses.replace(task, units=task.units[half:]),
    )


def _validate_shard(task: _Shard, result: Any) -> bool:
    """Parent-side shard-result check: one payload per unit, of the kind's
    payload version.

    This is what catches a worker that completed but returned garbage (the
    chaos harness's ``corrupt`` action, a partially pickled result ...): the
    engine treats a failing result like any other shard failure.
    """
    if not isinstance(result, list) or len(result) != len(task.units):
        return False
    return all(
        isinstance(payload, Mapping)
        and payload.get("payload_version") == task.kind.payload_version
        for payload in result
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def characterization_key_components(
    circuit: Any,
    library: StandardCellLibrary,
    stimulus: Mapping[str, Any],
) -> dict[str, Any]:
    """Triad-independent key components of a characterization sweep.

    The single definition of what identifies a sweep's results in the store;
    combine with a triad via :func:`characterization_entry_key`.  Used by the
    orchestrator below and by the cross-job dedup planner of
    :mod:`repro.api.session` (which must predict the orchestrator's keys
    without running it).
    """
    return {
        "scenario": "characterization",
        "engine_version": ENGINE_VERSION,
        "circuit": netlist_fingerprint(circuit.netlist),
        "circuit_name": circuit.name,
        "library": library_fingerprint(library),
        "stimulus": dict(stimulus),
    }


def characterization_entry_key(
    base_components: Mapping[str, Any], triad: OperatingTriad
) -> str:
    """Store key of one triad's summary within a characterization sweep."""
    return SweepResultStore.entry_key(
        {
            **base_components,
            "triad": {"tclk": triad.tclk, "vdd": triad.vdd, "vbb": triad.vbb},
        }
    )


def run_unit_sweep(
    name: str,
    circuit: Any,
    in1: np.ndarray,
    in2: np.ndarray,
    base_components: Mapping[str, Any],
    units: Sequence[tuple[SweepKind, Any]],
    *,
    jobs: int,
    store: SweepResultStore | None,
    policy: ExecutionPolicy | None,
    chaos: ChaosPlan | None,
    report: ExecutionReport | None,
    simulator: Any = None,
) -> list[dict[str, Any]]:
    """The one sweep driver: payloads of ``units``, looked up or simulated.

    ``units`` are ``(kind, unit)`` pairs in grid order (see
    :class:`SweepKind`); ``base_components`` name the sweep in the store.
    Every unit the store holds a usable payload for is answered from it; the
    rest are recorded as simulated and split into pieces by their kind.
    With ``jobs > 1`` each kind is split so there are at least ``jobs``
    pieces (a lone Monte Carlo range still fills every worker), and the
    pieces run as :class:`_Shard` tasks, each carrying the circuit itself,
    on the fault-tolerant pool.  With ``jobs == 1``, or when the units form
    a single piece, they run in-process on one ``simulator`` (the caller's,
    or one the first kind builds) in the kind's flush blocks.  Every completed piece flushes to the store at
    once, so a run killed mid-flight resumes warm.  Returns the payloads in
    ``units`` order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    with span("sweep", kind=name, jobs=jobs) as sweep_span:
        in1_arr = np.asarray(in1, dtype=np.int64)
        in2_arr = np.asarray(in2, dtype=np.int64)
        n_vectors = int(in1_arr.size)
        keys = {
            (kind, unit): kind.entry_key(base_components, unit)
            for kind, unit in units
        }
        payloads: dict[tuple[SweepKind, Any], dict[str, Any]] = {}
        if store is not None:
            # One batch read for the whole grid: segments are visited in offset
            # order instead of seeking per key, which is what keeps warm sweeps
            # fast on multi-thousand-entry stores.
            with span("store.lookup", requested=len(keys)) as lookup_span:
                cached_batch = store.get_many(list(keys.values()))
                for (kind, unit), key in keys.items():
                    cached = cached_batch.get(key)
                    if cached is not None and kind.usable(cached, n_vectors):
                        payloads[(kind, unit)] = cached
                lookup_span.set(hits=len(payloads), misses=len(keys) - len(payloads))

        missing: dict[SweepKind, list[Any]] = {}
        for kind, unit in keys:
            if (kind, unit) not in payloads:
                missing.setdefault(kind, []).append(unit)
        n_missing = len(keys) - len(payloads)
        sweep_span.set(units=len(keys), cached=len(payloads), simulated=n_missing)
        if not missing:
            return [payloads[unit] for unit in units]
        record_simulated_units(n_missing)

        def accept(kind: SweepKind, piece: Sequence[Any], result: list) -> None:
            payloads.update(zip([(kind, unit) for unit in piece], result))
            if store is not None:
                with span("store.flush", entries=len(result)):
                    for unit, payload in zip(piece, result):
                        store.put(keys[(kind, unit)], payload)

        pieces: list[tuple[SweepKind, list[Any]]] = []
        if jobs > 1:
            per_kind = -(-jobs // len(missing))
            pieces = [
                (kind, piece)
                for kind, kind_units in missing.items()
                for piece in kind.plan(kind_units, per_kind)
            ]
        if len(pieces) > 1:
            trace_context = current_context()
            tasks = [
                _Shard(kind, circuit, in1_arr, in2_arr, tuple(piece), trace_context)
                for kind, piece in pieces
            ]
            # ``run_shards`` hands every accepted (sub)task to ``on_result``
            # exactly once, so merging there covers every unit.
            run_shards(
                tasks,
                _run_shard,
                policy=policy,
                max_workers=min(jobs, len(tasks)),
                units=lambda task: len(task.units),
                split=_split_shard,
                validate=_validate_shard,
                on_result=lambda task, result: accept(task.kind, task.units, result),
                chaos=chaos,
                report=report,
            )
        else:
            if simulator is None:
                simulator = next(iter(missing)).simulator(circuit)
            for kind, kind_units in missing.items():
                blocks = kind.plan(kind_units, None)
                results = kind.run(simulator, circuit, in1_arr, in2_arr, blocks)
                for block, result in zip(blocks, results):
                    accept(kind, block, result)
        return [payloads[unit] for unit in units]


def run_characterization_sweep(
    circuit: Any,
    grid: TriadGrid,
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
    jobs: int = 1,
    store: SweepResultStore | None = None,
    keep_latched: bool = True,
    testbench: Any = None,
    policy: ExecutionPolicy | None = None,
    chaos: ChaosPlan | None = None,
    report: ExecutionReport | None = None,
) -> list[dict[str, Any]]:
    """Characterize a circuit over a triad grid, sharded, cached, resilient.

    Parameters
    ----------
    circuit:
        :class:`AdderCircuit` or :class:`MultiplierCircuit` under test.
    grid:
        The triad grid to sweep.
    in1, in2:
        Operand streams (already resolved from the pattern config).
    stimulus:
        Cache-key components of the stimulus (:func:`pattern_stimulus` or
        :func:`operand_stimulus`).
    library:
        Standard-cell library used by the simulation.
    jobs:
        Worker processes; ``1`` executes in-process.  Results are
        bit-identical for every value.
    store:
        Optional result store; ``None`` disables persistence.  Completed
        shards flush to it the moment they finish (and the in-process path
        flushes per operating-point group), so a run killed mid-flight
        resumes warm.
    keep_latched:
        Whether payloads must carry the latched output words (required to
        reconstruct raw measurements).  Cached entries without them are
        recomputed when requested.
    testbench:
        Optional pre-built testbench to reuse for in-process execution.
    policy:
        :class:`~repro.core.resilience.ExecutionPolicy` governing retries,
        per-shard timeouts and the failure action of the sharded path.
    chaos:
        Optional deterministic fault-injection plan (tests / chaos CI only).
    report:
        Optional :class:`~repro.core.resilience.ExecutionReport` to
        accumulate recovery accounting into.

    Returns
    -------
    list of payload dicts in grid order.
    """
    kind = _CharacterizationKind(library, keep_latched)
    return run_unit_sweep(
        kind.name,
        circuit,
        in1,
        in2,
        characterization_key_components(circuit, library, stimulus),
        [(kind, triad) for triad in grid],
        jobs=jobs,
        store=store,
        policy=policy,
        chaos=chaos,
        report=report,
        simulator=testbench,
    )


def run_fault_sweep(
    circuit: Any,
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    faults: Sequence[StuckAtFault] | None = None,
    jobs: int = 1,
    store: SweepResultStore | None = None,
    policy: ExecutionPolicy | None = None,
    chaos: ChaosPlan | None = None,
    report: ExecutionReport | None = None,
) -> list[FaultSimulationResult]:
    """Run a stuck-at fault campaign, sharded over fault sites and cached.

    The fault list (default: the full single-stuck-at universe of the
    circuit) is dealt round-robin across ``jobs`` workers; each worker
    evaluates its chunk on the compiled packed engine.  Per-fault results
    are stored content-addressed, keyed on (circuit, stimulus, fault, engine
    version) -- the cell library does not enter the key because stuck-at
    simulation is purely functional.

    ``policy`` / ``chaos`` / ``report`` configure and account the
    fault-tolerant shard engine exactly as in
    :func:`run_characterization_sweep`; completed shards (and, in-process,
    fixed-size fault blocks) flush to the store immediately.
    """
    if faults is None:
        faults = enumerate_stuck_at_faults(circuit.netlist)
    base_components = {
        "scenario": "stuck_at",
        "engine_version": ENGINE_VERSION,
        "circuit": netlist_fingerprint(circuit.netlist),
        "circuit_name": circuit.name,
        "stimulus": dict(stimulus),
    }
    kind = _FaultKind()
    payloads = run_unit_sweep(
        kind.name,
        circuit,
        in1,
        in2,
        base_components,
        [(kind, fault) for fault in faults],
        jobs=jobs,
        store=store,
        policy=policy,
        chaos=chaos,
        report=report,
    )
    return [_payload_to_fault_result(payload) for payload in payloads]
