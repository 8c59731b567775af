"""Sharded, cache-backed sweep orchestration.

The paper's core experiment (the Fig. 4 flow feeding Fig. 5/8 and Tables
III-IV) is a grid sweep of operating triads per operator.  This repository
sweeps two more grids of independent units: stuck-at fault sites and
``(sample range, triad)`` Monte Carlo entries.  All three run through one
planner, :func:`run_sweep_plan`: each caller -- a characterization flow, a
Monte Carlo run, the job plan of :class:`~repro.api.session.Session` --
passes :class:`SweepRequest` values, the planner keys every unit once,
dedups units across requests by store key and runs each group of them
through one sweep:

* **Result store.**  Each unit's payload is a pure function of its store
  key (circuit, stimulus, unit, library, engine version ...); the planner
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
from typing import Any, Hashable, Iterator, Mapping, Protocol, Sequence

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
from repro.core.triad import OperatingTriad
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

#: Fault sites simulated between store flushes on the in-process path of a
#: fault campaign -- small enough that an interrupted campaign
#: loses little work, large enough that flushing stays off the profile.
SERIAL_FAULT_FLUSH_BLOCK = 64


# ---------------------------------------------------------------------------
# Simulation-count instrumentation
# ---------------------------------------------------------------------------

#: Work units of this process's sweep plans, in the process-global metrics
#: registry (:data:`repro.obs.metrics.REGISTRY`): the requests' units with
#: multiplicity (``planned_units``), those sharing a store key with another
#: unit of their plan (``deduped_units``), the distinct units the store
#: already held (``cache_hits``) and those actually simulated
#: (``simulated_units``).  A unit is a triad of a characterization sweep, a
#: fault site of a fault campaign or a (sample range x triad) entry of a
#: Monte Carlo run.  Every count is recorded parent-side (simulated units
#: before their shards are dispatched), so it is accurate whether the units
#: execute in-process or in worker processes, and each completed plan adds
#: ``planned - deduped - cache_hits == simulated``.
_UNIT_COUNTERS = {
    name: metrics.REGISTRY.counter(f"sweep.{name}")
    for name in ("planned_units", "deduped_units", "cache_hits", "simulated_units")
}
_SIMULATED_UNITS = _UNIT_COUNTERS["simulated_units"]


def unit_counts() -> dict[str, int]:
    """The planner's four unit counters by name (monotonic).

    The difference of two snapshots is the work of the plans run in
    between: the :class:`~repro.api.session.BatchReport` of a batch.
    """
    return {name: counter.value for name, counter in _UNIT_COUNTERS.items()}


def simulated_unit_count() -> int:
    """Total work units simulated so far (monotonic; cache hits excluded).

    Snapshot before and after an operation to measure how much real
    simulation it performed -- each job's
    :class:`~repro.obs.report.RunReport` and the zero-duplicate-simulation
    tests are built on this.
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
    """What the planner asks of one kind of sweep unit.

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

    @property
    def family(self) -> Hashable:
        """Kinds of one family run on one :meth:`simulator`, so the planner
        may hand their units to one sweep."""

    def entry_key(self, base_components: Mapping[str, Any], unit: Any) -> str:
        """Store key of one unit within the sweep ``base_components`` name."""

    def merge(self, other: "SweepKind") -> "SweepKind":
        """The kind that serves a unit two requests declare, as ``self`` and
        as ``other``, under one store key."""

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


def key_base(
    scenario: str, circuit: Any, stimulus: Mapping[str, Any], **components: Any
) -> dict[str, Any]:
    """The key base of a sweep of ``circuit`` on ``stimulus``
    (:func:`pattern_stimulus` or :func:`operand_stimulus`): its scenario,
    the engine version, the circuit and its name, the stimulus and the
    kind's own ``components``."""
    return {
        "scenario": scenario,
        "engine_version": ENGINE_VERSION,
        "circuit": netlist_fingerprint(circuit.netlist),
        "circuit_name": circuit.name,
        "stimulus": dict(stimulus),
        **components,
    }


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """One caller's sweep, as :func:`run_sweep_plan` takes it (built by
    :func:`characterization_request`, :func:`fault_request` or
    :func:`repro.variation.montecarlo.montecarlo_request`).

    ``units`` are ``(kind, unit)`` pairs in the order the caller wants their
    payloads back, keyed by each kind's :meth:`~SweepKind.entry_key` on the
    :func:`key_base` ``base``, and simulated on ``in1``/``in2``.  ``jobs``
    (worker processes; ``1`` runs in-process, and results are bit-identical
    for every value) and the pool ``policy`` configure the sweep;
    ``simulator`` optionally serves the in-process path.
    """

    circuit: Any
    in1: np.ndarray
    in2: np.ndarray
    base: Mapping[str, Any]
    units: Sequence[tuple[SweepKind, Any]]
    jobs: int = 1
    policy: ExecutionPolicy | None = None
    simulator: Any = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


@dataclasses.dataclass(frozen=True)
class CharacterizationKind:
    """Units are :class:`OperatingTriad` values; in-process, each
    ``(vdd, vbb)`` group is one flush block."""

    library: StandardCellLibrary
    keep_latched: bool

    name = "characterization"
    payload_version = PAYLOAD_VERSION

    @property
    def family(self) -> Hashable:
        return (self.name, library_fingerprint(self.library))

    def entry_key(
        self, base_components: Mapping[str, Any], unit: OperatingTriad
    ) -> str:
        return SweepResultStore.entry_key(
            {
                **base_components,
                "triad": {"tclk": unit.tclk, "vdd": unit.vdd, "vbb": unit.vbb},
            }
        )

    def merge(self, other: SweepKind) -> SweepKind:
        # The latched words are kept if either request needs them.
        return self if self.keep_latched else other

    def usable(self, payload: Mapping[str, Any], n_vectors: int) -> bool:
        return (
            payload.get("payload_version") == PAYLOAD_VERSION
            and payload.get("n_vectors") == n_vectors
            and (not self.keep_latched or "latched_words" in payload)
        )

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


def characterization_request(
    circuit: Any,
    triads: Sequence[OperatingTriad],
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
    keep_latched: bool = True,
    jobs: int = 1,
    policy: ExecutionPolicy | None = None,
    simulator: Any = None,
) -> SweepRequest:
    """The request characterizing ``circuit`` at ``triads``, in their order.

    Its :func:`key_base` adds the library to what identifies a triad's
    summary in the store.  ``keep_latched`` asks for payloads carrying the
    latched output words (needed to rebuild raw measurements); cached
    entries without them are then recomputed.  ``simulator`` is an optional
    :class:`OperatorTestbench` of ``circuit`` for the in-process path.
    """
    kind = CharacterizationKind(library, keep_latched)
    base = key_base(
        "characterization", circuit, stimulus, library=library_fingerprint(library)
    )
    units = [(kind, triad) for triad in triads]
    return SweepRequest(circuit, in1, in2, base, units, jobs, policy, simulator)


@dataclasses.dataclass(frozen=True)
class _FaultKind:
    """Units are :class:`StuckAtFault` sites; in-process, every
    :data:`SERIAL_FAULT_FLUSH_BLOCK` sites are one flush block.

    Stuck-at simulation is purely functional, so no cell library enters
    the simulation or the key.
    """

    name = "faults"
    payload_version = PAYLOAD_VERSION
    family = name

    def entry_key(
        self, base_components: Mapping[str, Any], unit: StuckAtFault
    ) -> str:
        return SweepResultStore.entry_key(
            {
                **base_components,
                "fault": {"net": unit.net, "value": bool(unit.stuck_value)},
            }
        )

    def merge(self, other: SweepKind) -> SweepKind:
        return self

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


def payload_to_fault_result(payload: Mapping[str, Any]) -> FaultSimulationResult:
    """Rebuild one fault site's result from its payload."""
    fault = payload["fault"]
    return FaultSimulationResult(
        fault=StuckAtFault(net=int(fault["net"]), stuck_value=bool(fault["value"])),
        detected=bool(payload["detected"]),
        faulty_vector_fraction=float(payload["faulty_vector_fraction"]),
        ber=float(payload["ber"]),
    )


def fault_request(
    circuit: Any,
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    faults: Sequence[StuckAtFault] | None = None,
    jobs: int = 1,
    policy: ExecutionPolicy | None = None,
) -> SweepRequest:
    """The request of a stuck-at campaign over ``faults`` (default: the
    circuit's full single-stuck-at universe), in their order.

    Its :func:`key_base` adds nothing: the cell library stays out because
    stuck-at simulation is purely functional.
    """
    if faults is None:
        faults = enumerate_stuck_at_faults(circuit.netlist)
    kind = _FaultKind()
    units = [(kind, fault) for fault in faults]
    return SweepRequest(
        circuit, in1, in2, key_base("stuck_at", circuit, stimulus), units, jobs, policy
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
# The planner
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Group:
    """The distinct units, by store key, of one (circuit, operands, kind
    family) of a plan: one sweep under the largest worker count and the
    first policy and simulator among its requests."""

    first: SweepRequest
    jobs: int = 1
    policy: ExecutionPolicy | None = None
    simulator: Any = None
    units: dict[str, tuple[SweepKind, Any]] = dataclasses.field(default_factory=dict)


def _run_unit_sweep(
    group: _Group,
    *,
    store: SweepResultStore | None,
    chaos: ChaosPlan | None,
    report: ExecutionReport | None,
) -> dict[str, dict[str, Any]]:
    """The planner's per-group step: payloads of ``group``'s units by key,
    in unit order, looked up or simulated.

    Every unit the store holds a usable payload for is answered from it;
    the rest are recorded as simulated and split into pieces by their kind.
    With ``jobs > 1`` each kind is split so there are at least ``jobs``
    pieces (a lone Monte Carlo range still fills every worker), and the
    pieces run as :class:`_Shard` tasks, each carrying the circuit itself,
    on the fault-tolerant pool.  Otherwise, or when the units form a single
    piece, they run in-process on one simulator (the group's, or one the
    first kind builds: a group's kinds share a family) in the kinds' flush
    blocks.  Every completed piece flushes to the store at once, so a run
    killed mid-flight resumes warm.
    """
    units, circuit = group.units, group.first.circuit
    with span(
        "sweep", kind=next(iter(units.values()))[0].name, jobs=group.jobs
    ) as sweep_span:
        in1 = np.asarray(group.first.in1, dtype=np.int64)
        in2 = np.asarray(group.first.in2, dtype=np.int64)
        n_vectors = int(in1.size)
        payloads: dict[str, dict[str, Any]] = {}
        if store is not None:
            # One batch read for the whole grid: segments are visited in offset
            # order instead of seeking per key, which is what keeps warm sweeps
            # fast on multi-thousand-entry stores.
            with span("store.lookup", requested=len(units)) as lookup_span:
                cached_batch = store.get_many(list(units))
                for key, (kind, _) in units.items():
                    cached = cached_batch.get(key)
                    if cached is not None and kind.usable(cached, n_vectors):
                        payloads[key] = cached
                lookup_span.set(hits=len(payloads), misses=len(units) - len(payloads))

        missing: dict[SweepKind, list[Any]] = {}
        keys: dict[tuple[SweepKind, Any], str] = {}
        for key, (kind, unit) in units.items():
            if key not in payloads:
                missing.setdefault(kind, []).append(unit)
                keys[(kind, unit)] = key
        sweep_span.set(units=len(units), cached=len(payloads), simulated=len(keys))
        _UNIT_COUNTERS["cache_hits"].add(len(payloads))
        if not missing:
            return payloads
        record_simulated_units(len(keys))

        def accept(kind: SweepKind, piece: Sequence[Any], result: list) -> None:
            piece_keys = [keys[(kind, unit)] for unit in piece]
            payloads.update(zip(piece_keys, result))
            if store is not None:
                with span("store.flush", entries=len(result)):
                    for key, payload in zip(piece_keys, result):
                        store.put(key, payload)

        pieces: list[tuple[SweepKind, list[Any]]] = []
        if group.jobs > 1:
            per_kind = -(-group.jobs // len(missing))
            pieces = [
                (kind, piece)
                for kind, kind_units in missing.items()
                for piece in kind.plan(kind_units, per_kind)
            ]
        if len(pieces) > 1:
            trace_context = current_context()
            tasks = [
                _Shard(kind, circuit, in1, in2, tuple(piece), trace_context)
                for kind, piece in pieces
            ]
            # ``run_shards`` hands every accepted (sub)task to ``on_result``
            # exactly once, so merging there covers every unit.
            run_shards(
                tasks,
                _run_shard,
                policy=group.policy,
                max_workers=min(group.jobs, len(tasks)),
                units=lambda task: len(task.units),
                split=_split_shard,
                validate=_validate_shard,
                on_result=lambda task, result: accept(task.kind, task.units, result),
                chaos=chaos,
                report=report,
            )
        else:
            simulator = group.simulator
            if simulator is None:
                simulator = next(iter(missing)).simulator(circuit)
            for kind, kind_units in missing.items():
                blocks = kind.plan(kind_units, None)
                results = kind.run(simulator, circuit, in1, in2, blocks)
                for block, result in zip(blocks, results):
                    accept(kind, block, result)
        return {key: payloads[key] for key in units}


def run_sweep_plan(
    requests: Sequence[SweepRequest],
    *,
    store: SweepResultStore | None = None,
    chaos: ChaosPlan | None = None,
    report: ExecutionReport | None = None,
) -> list[list[dict[str, Any]]]:
    """The one sweep planner: every request's payloads, each unit looked up
    or simulated once.

    Returns one payload list per request, in its units' order, and adds
    the plan's counts to the unit counters (:func:`unit_counts`).

    Each unit is keyed once and deduplicated by store key across all
    requests; a key declared twice keeps the kind :meth:`SweepKind.merge`
    picks (a characterization triad keeps its latched words if any request
    needs them).  The distinct units are grouped by circuit, operands and
    kind :attr:`~SweepKind.family` -- requests share a group when they pass
    the same circuit and operand objects -- and each group runs through one
    sweep.  ``store`` serves and persists the payloads (``None`` disables
    persistence), ``chaos`` is an optional deterministic fault-injection
    plan (tests and chaos CI only) and ``report`` accumulates the sweeps'
    fault-recovery accounting.
    """
    groups: dict[tuple[Hashable, int, int, int], _Group] = {}
    owners: dict[str, _Group] = {}
    keyed: list[list[str]] = []
    for request in requests:
        keys = [kind.entry_key(request.base, unit) for kind, unit in request.units]
        where = (id(request.circuit), id(request.in1), id(request.in2))
        for key, (kind, unit) in zip(keys, request.units):
            group = owners.get(key)
            if group is None:
                identity = (kind.family, *where)
                if identity not in groups:
                    groups[identity] = _Group(request)
                group = owners[key] = groups[identity]
                group.units[key] = (kind, unit)
            else:
                group.units[key] = (group.units[key][0].merge(kind), unit)
            group.jobs = max(group.jobs, request.jobs)
            group.policy = group.policy or request.policy
            group.simulator = group.simulator or request.simulator
        keyed.append(keys)
    planned = sum(map(len, keyed))
    _UNIT_COUNTERS["planned_units"].add(planned)
    _UNIT_COUNTERS["deduped_units"].add(planned - len(owners))

    payloads: dict[str, dict[str, Any]] = {}
    for group in groups.values():
        payloads |= _run_unit_sweep(group, store=store, chaos=chaos, report=report)
    return [[payloads[key] for key in keys] for keys in keyed]
