"""Sharded, cache-backed sweep orchestration.

The paper's core experiment (the Fig. 4 flow feeding Fig. 5/8 and Tables
III-IV) is a grid sweep of operating triads per operator.  PR 1 made one
triad cheap; this module makes the *grid* scale:

* **Sharding.**  A triad grid is split into shards along ``(vdd, vbb)``
  groups -- the axis the simulator's sweep-level reuse is keyed on -- so
  each worker pays the per-operating-point arrival computation exactly once
  for its shard.  Shard assignment is deterministic (greedy balance over
  sorted groups) and the merge is by grid order, so results are bit-identical
  to a serial sweep regardless of worker count or completion order.
* **Worker processes.**  Shards execute on a ``ProcessPoolExecutor``
  (``jobs`` workers).  Workers rebuild the circuit from its generator name;
  the parent verifies the rebuilt netlist fingerprint matches before
  dispatching, and falls back to in-process execution for circuits the
  registry cannot reproduce.  Shard tasks pickle the operand arrays.
* **Result store.**  Each triad's summary is a pure function of (circuit,
  stimulus, triad, library, engine version); completed entries are persisted
  in a content-addressed :class:`~repro.core.store.SweepResultStore`, so
  repeated sweeps -- across CLI runs, benchmark sessions and CI jobs -- skip
  the timing simulation entirely.

Everything travels as JSON-serialisable *payload* dicts (exact float / int64
round-trips), whether a result comes from this process, a worker, or the
on-disk store; the conversion back to :class:`TriadCharacterization` /
:class:`TriadMeasurement` is therefore identical on every path.

The same machinery shards the structural fault campaigns of
:mod:`repro.simulation.fault_injection` (fault sites instead of triads, see
:func:`run_fault_sweep`), and multiplier grids run through the identical
entry points because :class:`MultiplierTestbench` shares the testbench
interface.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Mapping, Sequence

import numpy as np

from repro.circuits.adders import (
    AdderCircuit,
    SpeculativeAdderCircuit,
    build_adder,
    parse_adder_name,
    speculative_adder,
)
from repro.circuits.multipliers import MultiplierCircuit, array_multiplier
from repro.circuits.operators import check_result_width
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
from repro.simulation.multiplier_testbench import MultiplierTestbench
from repro.simulation.patterns import PatternConfig
from repro.simulation.testbench import AdderTestbench, TriadMeasurement
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
# Circuit specs (what a worker process needs to rebuild the circuit)
# ---------------------------------------------------------------------------

_MULTIPLIER_NAME = re.compile(r"^mul(\d+)x(\d+)$")


@dataclasses.dataclass(frozen=True)
class CircuitSpec:
    """Generator coordinates of a circuit, picklable for worker processes.

    Attributes
    ----------
    kind:
        ``"adder"`` or ``"multiplier"``.
    architecture:
        Adder architecture name (``"rca"`` ...); ``"array"`` for multipliers.
    width:
        Operand width (``width_a`` for multipliers).
    width_b:
        Second operand width of a multiplier; ``None`` for adders.
    window:
        Carry look-back window of a speculative adder; ``None`` otherwise.
    """

    kind: str
    architecture: str
    width: int
    width_b: int | None = None
    window: int | None = None

    @classmethod
    def from_circuit(cls, circuit: Any) -> "CircuitSpec | None":
        """Derive the spec of a generator-built circuit, or ``None``.

        Returns ``None`` when the circuit's name does not map back onto a
        registry generator -- such circuits still sweep (in-process) and
        still cache (keyed by netlist fingerprint), they just cannot be
        shipped to worker processes by name.

        Raises
        ------
        ValueError
            For a ``mul<N>x<M>`` multiplier whose product does not fit the
            output word (see :func:`~repro.circuits.operators.check_result_width`).
        """
        if isinstance(circuit, MultiplierCircuit):
            match = _MULTIPLIER_NAME.match(circuit.name)
            if match is None:
                return None
            width_a, width_b = int(match.group(1)), int(match.group(2))
            check_result_width(circuit.name, width_a + width_b)
            return cls(
                kind="multiplier",
                architecture="array",
                width=width_a,
                width_b=width_b,
            )
        if isinstance(circuit, SpeculativeAdderCircuit):
            return cls(
                kind="adder",
                architecture=circuit.architecture,
                width=circuit.width,
                window=circuit.window,
            )
        if isinstance(circuit, AdderCircuit):
            try:
                architecture, width = parse_adder_name(circuit.name)
            except ValueError:
                return None
            return cls(kind="adder", architecture=architecture, width=width)
        return None

    def build(self) -> Any:
        """Rebuild the circuit from its generator."""
        if self.kind == "adder":
            if self.window is not None:
                return speculative_adder(self.width, self.window)
            return build_adder(self.architecture, self.width)
        if self.kind == "multiplier":
            return array_multiplier(self.width, self.width_b)
        raise ValueError(f"unknown circuit kind {self.kind!r}")


def _make_testbench(circuit: Any, library: StandardCellLibrary) -> Any:
    if isinstance(circuit, MultiplierCircuit):
        return MultiplierTestbench(circuit, library=library)
    return AdderTestbench(circuit, library=library)


def exact_words(circuit: Any, in1: np.ndarray, in2: np.ndarray) -> np.ndarray:
    """Golden (error-free) output words of an adder or multiplier."""
    if isinstance(circuit, MultiplierCircuit):
        return circuit.exact_product(in1, in2)
    return circuit.exact_sum(in1, in2)


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
    ``bitwise_error`` counts come from unpacking the nonzero words only,
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
    faulty = err[err != 0].astype("<i8", copy=False)
    bit_counts = np.count_nonzero(
        np.unpackbits(
            faulty.view(np.uint8).reshape(-1, 8),
            axis=1,
            count=output_width,
            bitorder="little",
        ),
        axis=0,
    )
    payload: dict[str, Any] = {
        "payload_version": PAYLOAD_VERSION,
        "triad": {
            "tclk": measurement.tclk,
            "vdd": measurement.vdd,
            "vbb": measurement.vbb,
        },
        "n_vectors": measurement.n_vectors,
        "ber": int(bit_counts.sum()) / (n_rows * output_width),
        "mse": mean_squared_error(measurement.exact_words, measurement.latched_words),
        "bitwise_error": [int(count) / n_rows for count in bit_counts],
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
    if exact is None:
        exact = exact_words(circuit, in1_arr, in2_arr)
    triad = payload["triad"]
    return TriadMeasurement(
        adder_name=circuit.name,
        tclk=float(triad["tclk"]),
        vdd=float(triad["vdd"]),
        vbb=float(triad["vbb"]),
        in1=in1_arr,
        in2=in2_arr,
        latched_words=latched,
        exact_words=exact,
        output_width=circuit.output_width,
        energy_per_operation=float(payload["energy_per_operation"]),
        dynamic_energy_per_operation=float(payload["dynamic_energy_per_operation"]),
        static_energy_per_operation=float(payload["static_energy_per_operation"]),
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
    groups: dict[tuple[float, float], list[OperatingTriad]] = {}
    for triad in triads:
        groups.setdefault((triad.vdd, triad.vbb), []).append(triad)
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
# Worker entry points (module level: picklable)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _CharacterizationShard:
    spec: CircuitSpec
    library: StandardCellLibrary
    in1: np.ndarray
    in2: np.ndarray
    triads: tuple[tuple[float, float, float], ...]
    keep_latched: bool
    trace: TraceContext | None = None


def _run_characterization_shard(task: _CharacterizationShard) -> list[dict[str, Any]]:
    with worker_scope(
        task.trace, "sweep.shard", kind="characterization", units=len(task.triads)
    ):
        circuit = task.spec.build()
        testbench = _make_testbench(circuit, task.library)
        triads = [OperatingTriad(tclk=t, vdd=v, vbb=b) for t, v, b in task.triads]
        measurements = testbench.run_sweep(task.in1, task.in2, triads)
        return [
            measurement_to_payload(m, circuit.output_width, task.keep_latched)
            for m in measurements
        ]


@dataclasses.dataclass(frozen=True)
class _FaultShard:
    spec: CircuitSpec
    in1: np.ndarray
    in2: np.ndarray
    faults: tuple[tuple[int, bool], ...]
    trace: TraceContext | None = None


def _run_fault_shard(task: _FaultShard) -> list[dict[str, Any]]:
    with worker_scope(
        task.trace, "sweep.shard", kind="faults", units=len(task.faults)
    ):
        circuit = task.spec.build()
        simulator = StuckAtFaultSimulator(
            circuit.netlist, output_ports=circuit.output_ports()
        )
        assignment = circuit.input_assignment(task.in1, task.in2)
        faults = [
            StuckAtFault(net=net, stuck_value=value) for net, value in task.faults
        ]
        results = simulator.run(assignment, faults)
        return [_fault_result_to_payload(result) for result in results]


def _fault_result_to_payload(result: FaultSimulationResult) -> dict[str, Any]:
    return {
        "payload_version": PAYLOAD_VERSION,
        "fault": {"net": result.fault.net, "value": bool(result.fault.stuck_value)},
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
# Resilience hooks (split / validate callbacks of the shard engine)
# ---------------------------------------------------------------------------


def split_triad_shard(task: Any) -> tuple[Any, Any]:
    """Halve a shard's ``triads`` for the ``split-and-retry`` action.

    Serves every shard dataclass that carries a ``triads`` tuple: the
    characterization shards here and the Monte Carlo shards of
    :mod:`repro.variation.montecarlo`.  Each triad's payload is a function
    of that triad alone, so the halves reproduce the shard's payloads.
    """
    half = len(task.triads) // 2
    return (
        dataclasses.replace(task, triads=task.triads[:half]),
        dataclasses.replace(task, triads=task.triads[half:]),
    )


def _split_fault_shard(task: _FaultShard) -> tuple[_FaultShard, _FaultShard]:
    """Halve a fault-campaign shard for the ``split-and-retry`` action."""
    half = len(task.faults) // 2
    return (
        dataclasses.replace(task, faults=task.faults[:half]),
        dataclasses.replace(task, faults=task.faults[half:]),
    )


def _valid_payload_list(result: Any, expected: int) -> bool:
    """Parent-side shard-result check: one well-versioned payload per unit.

    This is what catches a worker that completed but returned garbage (the
    chaos harness's ``corrupt`` action, a partially pickled result ...): the
    engine treats a failing result like any other shard failure.
    """
    if not isinstance(result, list) or len(result) != expected:
        return False
    return all(
        isinstance(payload, Mapping)
        and payload.get("payload_version") == PAYLOAD_VERSION
        for payload in result
    )


def _validate_characterization_shard(
    task: _CharacterizationShard, result: Any
) -> bool:
    return _valid_payload_list(result, len(task.triads))


def _validate_fault_shard(task: _FaultShard, result: Any) -> bool:
    return _valid_payload_list(result, len(task.faults))


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def verified_spec(circuit: Any, fingerprint: str) -> CircuitSpec | None:
    """Spec whose rebuilt netlist is proven identical to ``circuit``'s.

    Shared by every orchestrator that ships circuits to worker processes by
    generator name (characterization, fault campaigns, and the Monte Carlo
    variation sweeps of :mod:`repro.variation.montecarlo`).
    """
    spec = CircuitSpec.from_circuit(circuit)
    if spec is None:
        return None
    if netlist_fingerprint(spec.build().netlist) != fingerprint:
        return None
    return spec


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
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    with span("sweep", kind="characterization", jobs=jobs) as sweep_span:
        return _characterization_sweep_body(
            circuit,
            grid,
            in1,
            in2,
            stimulus,
            library=library,
            jobs=jobs,
            store=store,
            keep_latched=keep_latched,
            testbench=testbench,
            policy=policy,
            chaos=chaos,
            report=report,
            sweep_span=sweep_span,
        )


def _characterization_sweep_body(
    circuit: Any,
    grid: TriadGrid,
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    library: StandardCellLibrary,
    jobs: int,
    store: SweepResultStore | None,
    keep_latched: bool,
    testbench: Any,
    policy: ExecutionPolicy | None,
    chaos: ChaosPlan | None,
    report: ExecutionReport | None,
    sweep_span: Any,
) -> list[dict[str, Any]]:
    """Body of :func:`run_characterization_sweep` under its ``sweep`` span."""
    in1_arr = np.asarray(in1, dtype=np.int64)
    in2_arr = np.asarray(in2, dtype=np.int64)
    base_components = characterization_key_components(circuit, library, stimulus)
    fingerprint = base_components["circuit"]
    n_vectors = int(in1_arr.size)

    keys: dict[OperatingTriad, str] = {}
    payloads: dict[OperatingTriad, dict[str, Any]] = {}
    for triad in grid:
        keys[triad] = characterization_entry_key(base_components, triad)
    if store is not None:
        # One batch read for the whole grid: segments are visited in offset
        # order instead of seeking per key, which is what keeps warm sweeps
        # fast on multi-thousand-entry stores.
        with span("store.lookup", requested=len(keys)) as lookup_span:
            cached_batch = store.get_many([keys[triad] for triad in grid])
            for triad in grid:
                cached = cached_batch.get(keys[triad])
                if payload_usable(cached, n_vectors, keep_latched):
                    payloads[triad] = cached  # type: ignore[assignment]
            lookup_span.set(hits=len(payloads), misses=len(keys) - len(payloads))

    missing = [triad for triad in grid if triad not in payloads]
    sweep_span.set(
        units=len(keys), cached=len(payloads), simulated=len(missing)
    )
    if missing:
        record_simulated_units(len(missing))
        spec = verified_spec(circuit, fingerprint) if jobs > 1 else None
        shards = shard_triads(missing, jobs if spec is not None else 1)
        if spec is not None and len(shards) > 1:
            trace_context = current_context()
            tasks = [
                _CharacterizationShard(
                    spec=spec,
                    library=library,
                    in1=in1_arr,
                    in2=in2_arr,
                    triads=tuple((t.tclk, t.vdd, t.vbb) for t in shard),
                    keep_latched=keep_latched,
                    trace=trace_context,
                )
                for shard in shards
            ]
            key_by_coords = {
                (triad.tclk, triad.vdd, triad.vbb): keys[triad]
                for triad in missing
            }

            def flush(task: _CharacterizationShard, result: list) -> None:
                if store is None:
                    return
                with span("store.flush", entries=len(result)):
                    for coords, payload in zip(task.triads, result):
                        store.put(key_by_coords[coords], payload)

            shard_payloads = run_shards(
                tasks,
                _run_characterization_shard,
                policy=policy,
                max_workers=len(tasks),
                units=lambda task: len(task.triads),
                split=split_triad_shard,
                validate=_validate_characterization_shard,
                on_result=flush,
                chaos=chaos,
                report=report,
            )
            for shard, shard_result in zip(shards, shard_payloads):
                for triad, payload in zip(shard, shard_result):
                    payloads[triad] = payload
        else:
            bench = testbench or _make_testbench(circuit, library)
            # One in-process chunk per (vdd, vbb) group: the per-point
            # reuse lives inside a group, so chunking changes no numbers,
            # and the per-group store flush makes serial runs exactly as
            # crash-consistent as sharded ones.  The groups are consumed
            # from one lazy sweep, so the stimulus is resolved (and its
            # arrival pass run) once; ``zip``
            # draws from ``group`` first and so never takes a measurement
            # of the next group.
            groups: dict[tuple[float, float], list[OperatingTriad]] = {}
            for triad in missing:
                groups.setdefault((triad.vdd, triad.vbb), []).append(triad)
            measurements = bench.iter_sweep(
                in1_arr,
                in2_arr,
                [triad for group in groups.values() for triad in group],
            )
            for group in groups.values():
                group_payloads = []
                for triad, measurement in zip(group, measurements):
                    payload = measurement_to_payload(
                        measurement, circuit.output_width, keep_latched
                    )
                    payloads[triad] = payload
                    group_payloads.append((keys[triad], payload))
                if store is not None:
                    with span("store.flush", entries=len(group_payloads)):
                        for key, payload in group_payloads:
                            store.put(key, payload)

    return [payloads[triad] for triad in grid]


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
    circuit) is split into contiguous chunks across ``jobs`` workers; each
    worker evaluates its chunk on the compiled packed engine.  Per-fault
    results are stored content-addressed, keyed on (circuit, stimulus,
    fault, engine version) -- the cell library does not enter the key because
    stuck-at simulation is purely functional.

    ``policy`` / ``chaos`` / ``report`` configure and account the
    fault-tolerant shard engine exactly as in
    :func:`run_characterization_sweep`; completed shards (and, in-process,
    fixed-size fault blocks) flush to the store immediately.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    with span("sweep", kind="faults", jobs=jobs) as sweep_span:
        return _fault_sweep_body(
            circuit,
            in1,
            in2,
            stimulus,
            faults=faults,
            jobs=jobs,
            store=store,
            policy=policy,
            chaos=chaos,
            report=report,
            sweep_span=sweep_span,
        )


def _fault_sweep_body(
    circuit: Any,
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    faults: Sequence[StuckAtFault] | None,
    jobs: int,
    store: SweepResultStore | None,
    policy: ExecutionPolicy | None,
    chaos: ChaosPlan | None,
    report: ExecutionReport | None,
    sweep_span: Any,
) -> list[FaultSimulationResult]:
    """Body of :func:`run_fault_sweep` under its ``sweep`` span."""
    in1_arr = np.asarray(in1, dtype=np.int64)
    in2_arr = np.asarray(in2, dtype=np.int64)
    fault_list = list(
        enumerate_stuck_at_faults(circuit.netlist) if faults is None else faults
    )
    fingerprint = netlist_fingerprint(circuit.netlist)
    base_components: dict[str, Any] = {
        "scenario": "stuck_at",
        "engine_version": ENGINE_VERSION,
        "circuit": fingerprint,
        "circuit_name": circuit.name,
        "stimulus": dict(stimulus),
    }
    n_vectors = int(in1_arr.size)

    keys: list[str] = []
    results: dict[int, FaultSimulationResult] = {}
    missing_indices: list[int] = []
    for fault in fault_list:
        keys.append(
            SweepResultStore.entry_key(
                {
                    **base_components,
                    "fault": {
                        "net": fault.net,
                        "value": bool(fault.stuck_value),
                    },
                }
            )
        )
    with span("store.lookup", requested=len(keys)) as lookup_span:
        cached_batch = store.get_many(keys) if store is not None else {}
        for index in range(len(fault_list)):
            cached = cached_batch.get(keys[index])
            if (
                cached is not None
                and cached.get("payload_version") == PAYLOAD_VERSION
                and cached.get("n_vectors", n_vectors) == n_vectors
            ):
                results[index] = _payload_to_fault_result(cached)
            else:
                missing_indices.append(index)
        lookup_span.set(hits=len(results), misses=len(missing_indices))

    sweep_span.set(
        units=len(fault_list),
        cached=len(results),
        simulated=len(missing_indices),
    )
    if missing_indices:
        record_simulated_units(len(missing_indices))
        spec = verified_spec(circuit, fingerprint) if jobs > 1 else None
        n_shards = min(jobs, len(missing_indices)) if spec is not None else 1
        chunks = [
            missing_indices[start::n_shards] for start in range(n_shards)
        ]
        key_by_fault = {
            (fault_list[i].net, bool(fault_list[i].stuck_value)): keys[i]
            for i in missing_indices
        }
        if spec is not None and len(chunks) > 1:
            trace_context = current_context()
            tasks = [
                _FaultShard(
                    spec=spec,
                    in1=in1_arr,
                    in2=in2_arr,
                    faults=tuple(
                        (fault_list[i].net, bool(fault_list[i].stuck_value))
                        for i in chunk
                    ),
                    trace=trace_context,
                )
                for chunk in chunks
            ]

            def flush(task: _FaultShard, result: list) -> None:
                if store is None:
                    return
                with span("store.flush", entries=len(result)):
                    for site, payload in zip(task.faults, result):
                        store.put(
                            key_by_fault[site], {**payload, "n_vectors": n_vectors}
                        )

            chunk_payloads = run_shards(
                tasks,
                _run_fault_shard,
                policy=policy,
                max_workers=len(tasks),
                units=lambda task: len(task.faults),
                split=_split_fault_shard,
                validate=_validate_fault_shard,
                on_result=flush,
                chaos=chaos,
                report=report,
            )
            for chunk, chunk_result in zip(chunks, chunk_payloads):
                for index, payload in zip(chunk, chunk_result):
                    results[index] = _payload_to_fault_result(payload)
        else:
            simulator = StuckAtFaultSimulator(
                circuit.netlist, output_ports=circuit.output_ports()
            )
            assignment = circuit.input_assignment(in1_arr, in2_arr)
            # Fixed-size in-process blocks, flushed to the store as they
            # complete, so an interrupted serial campaign also resumes warm.
            for block_start in range(
                0, len(missing_indices), SERIAL_FAULT_FLUSH_BLOCK
            ):
                block = missing_indices[
                    block_start : block_start + SERIAL_FAULT_FLUSH_BLOCK
                ]
                block_results = simulator.run(
                    assignment, [fault_list[i] for i in block]
                )
                block_payloads = []
                for index, result in zip(block, block_results):
                    payload = {
                        **_fault_result_to_payload(result),
                        "n_vectors": n_vectors,
                    }
                    results[index] = _payload_to_fault_result(payload)
                    block_payloads.append((keys[index], payload))
                if store is not None:
                    with span("store.flush", entries=len(block_payloads)):
                        for key, payload in block_payloads:
                            store.put(key, payload)

    return [results[index] for index in range(len(fault_list))]
