"""Monte Carlo variation characterization at scale.

The paper reports BER/energy at nominal process conditions; this module asks
the manufacturing question instead: *across sampled process variation, what
fraction of dies meets a BER margin at each operating triad?*  One Monte
Carlo run draws ``n_samples`` per-gate mismatch instances
(:class:`~repro.variation.sampler.VariationSampler`), lowers each contiguous
*sample-index range* as a vectorized batch dimension through the packed
timing engine (one batched arrival pass evaluates the whole range per
``(vdd, vbb)`` group -- no Python loop over instances), and condenses the
per-instance BER/energy into distribution statistics and yield
(:mod:`repro.variation.stats`).

Scale comes from the PR-2 orchestration layer, reused wholesale:

* **Sharding.**  Sample ranges are fixed-size chunks (independent of the
  worker count).  A shard is one sample range times a set of whole
  ``(vdd, vbb)`` groups: ranges are split into groups
  (:func:`repro.core.sweep.shard_triads`) until there are at least ``jobs``
  pieces, so even a single range keeps every worker busy.  Shards run on a
  ``ProcessPoolExecutor``; workers rebuild the circuit from its verified
  generator spec (:func:`repro.core.sweep.verified_spec`), and every
  per-instance number depends only on ``(seed, absolute sample index)`` --
  so serial and sharded runs are byte-identical, entry for entry.
* **Result store.**  Each ``(triad, sample range)`` summary persists in the
  content-addressed :class:`~repro.core.store.SweepResultStore`, keyed by
  (netlist fingerprint, corner-shifted library fingerprint, stimulus,
  corner, variation model + seed, sample-index range, triad, engine
  version).  A warm rerun -- or a resumed run extending ``n_samples``, or
  one interrupted part-way through a range -- simulates only the
  ``(range, triad)`` entries the store lacks.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence

import numpy as np

from repro.circuits.signals import int_to_bits
from repro.core.resilience import ExecutionPolicy, ExecutionReport, run_shards
from repro.core.store import (
    SweepResultStore,
    decode_float64_array,
    library_fingerprint,
    netlist_fingerprint,
    pack_float64_array,
)
from repro.core.sweep import (
    CircuitSpec,
    exact_words,
    record_simulated_units,
    shard_triads,
    split_triad_shard,
    verified_spec,
)
from repro.core.triad import OperatingTriad, TriadGrid
from repro.obs.trace import TraceContext, current_context, span, worker_scope
from repro.simulation.engine import ENGINE_VERSION
from repro.simulation.timing_sim import VosTimingSimulator
from repro.technology.corners import (
    GateVariationModel,
    ProcessCorner,
    corner_library,
)
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.testing.chaos import ChaosPlan
from repro.variation.sampler import VariationSampler
from repro.variation.stats import TriadVariationResult

#: Version of the Monte Carlo payload dict layout (part of stored entries).
MC_PAYLOAD_VERSION = 1

#: Samples per store entry.  Fixed (not derived from the worker count) so the
#: sample-range decomposition -- and therefore every store entry -- is
#: identical for any ``jobs`` value, and bounded so one range's batched
#: arrival matrix stays comfortably in memory.  Parallelism does not hinge on
#: it: a shard is a range times whole ``(vdd, vbb)`` groups, so a lone range
#: still fills ``jobs`` workers.
DEFAULT_SAMPLE_CHUNK = 32


@dataclasses.dataclass(frozen=True)
class MonteCarloConfig:
    """Parameters of one Monte Carlo characterization run.

    Attributes
    ----------
    corner:
        Process corner the nominal die is shifted to before sampling local
        mismatch around it.
    model:
        The per-gate mismatch model.
    n_samples:
        Number of sampled netlist instances.
    seed:
        Variation seed; instance ``i`` depends only on ``(seed, i)``.
    chunk:
        Samples per shard / store entry (see :data:`DEFAULT_SAMPLE_CHUNK`).
    """

    corner: ProcessCorner = ProcessCorner.TYPICAL
    model: GateVariationModel = dataclasses.field(
        default_factory=GateVariationModel
    )
    n_samples: int = 64
    seed: int = 2017
    chunk: int = DEFAULT_SAMPLE_CHUNK

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.chunk <= 0:
            raise ValueError("chunk must be positive")

    def sample_ranges(self) -> tuple[tuple[int, int], ...]:
        """Half-open sample-index ranges the run decomposes into."""
        return tuple(
            (start, min(start + self.chunk, self.n_samples))
            for start in range(0, self.n_samples, self.chunk)
        )

    def key_components(self) -> dict[str, Any]:
        """JSON-serialisable identity of the run (result-store key part)."""
        return {**self.model.key_components(), "seed": self.seed}


def supply_scaling_grid(
    flow: Any, supply_voltages: Sequence[float]
) -> TriadGrid:
    """Fig. 5 style grid: the matched nominal clock across a supply sweep.

    Holds the flow's nominal clock
    (:meth:`~repro.core.characterization.CharacterizationFlow.nominal_clock_period`,
    the same rule :func:`repro.analysis.figures.fig5_ber_per_bit` sweeps at)
    with no body bias -- the axis a yield-vs-Vdd analysis scales.
    """
    nominal = flow.nominal_clock_period()
    return TriadGrid(
        [
            OperatingTriad(tclk=nominal, vdd=vdd, vbb=0.0)
            for vdd in supply_voltages
        ]
    )


# ---------------------------------------------------------------------------
# Range simulation (the worker body)
# ---------------------------------------------------------------------------


def _simulate_range(
    circuit: Any,
    library: StandardCellLibrary,
    triads: Sequence[OperatingTriad],
    in1: np.ndarray,
    in2: np.ndarray,
    model: GateVariationModel,
    seed: int,
    start: int,
    stop: int,
    simulator: VosTimingSimulator | None = None,
) -> list[dict[str, Any]]:
    """Simulate one sample range over ``triads``; payloads in triad order.

    Triads are grouped by operating point so the batched arrival pass -- the
    expensive part -- runs once per ``(vdd, vbb)`` for the whole range, and
    clock periods within a group cost one latch comparison each, reduced
    straight to per-instance error counts
    (:meth:`~repro.simulation.timing_sim.VosTimingSimulator.run_variation_counts`).
    """
    if simulator is None:
        simulator = VosTimingSimulator(
            circuit.netlist,
            output_ports=circuit.output_ports(),
            library=library,
        )
    tech = library.technology
    sampler = VariationSampler(model, seed)
    batch = sampler.sample_range(circuit.netlist.gate_count, start, stop)
    leakage_multipliers = batch.leakage_multipliers(tech)
    assignment = circuit.input_assignment(in1, in2)
    exact = exact_words(circuit, in1, in2)
    exact_bits = int_to_bits(exact, circuit.output_width)
    n_vectors = int(np.asarray(in1).size)

    groups: dict[tuple[float, float], list[tuple[int, float]]] = {}
    for index, triad in enumerate(triads):
        groups.setdefault((triad.vdd, triad.vbb), []).append(
            (index, triad.tclk)
        )

    payloads: dict[int, dict[str, Any]] = {}
    for (vdd, vbb), entries in groups.items():
        delay_multipliers = batch.delay_multipliers(vdd, vbb, tech)
        counts = simulator.run_variation_counts(
            assignment,
            [tclk for _, tclk in entries],
            vdd,
            vbb,
            exact_bits,
            delay_multipliers=delay_multipliers,
            leakage_multipliers=leakage_multipliers,
        )
        for (index, tclk), result in zip(entries, counts):
            dynamic = float(result.dynamic_energy.mean())
            static = result.static_energy_per_operation
            triad = triads[index]
            payloads[index] = {
                "payload_version": MC_PAYLOAD_VERSION,
                "triad": {"tclk": triad.tclk, "vdd": triad.vdd, "vbb": triad.vbb},
                "n_vectors": n_vectors,
                "samples": {"start": start, "stop": stop},
                "ber_samples": pack_float64_array(result.ber),
                "faulty_fraction_samples": pack_float64_array(
                    result.faulty_fraction
                ),
                "energy_samples": pack_float64_array(dynamic + static),
                "static_energy_samples": pack_float64_array(static),
                "dynamic_energy_per_operation": dynamic,
            }
    return [payloads[index] for index in range(len(triads))]


@dataclasses.dataclass(frozen=True)
class _MonteCarloShard:
    spec: CircuitSpec
    library: StandardCellLibrary
    in1: np.ndarray
    in2: np.ndarray
    triads: tuple[tuple[float, float, float], ...]
    model: GateVariationModel
    seed: int
    start: int
    stop: int
    trace: TraceContext | None = None


def _run_montecarlo_shard(task: _MonteCarloShard) -> list[dict[str, Any]]:
    with worker_scope(
        task.trace,
        "sweep.shard",
        kind="montecarlo",
        units=len(task.triads),
        samples=task.stop - task.start,
    ):
        circuit = task.spec.build()
        triads = [
            OperatingTriad(tclk=t, vdd=v, vbb=b) for t, v, b in task.triads
        ]
        return _simulate_range(
            circuit,
            task.library,
            triads,
            task.in1,
            task.in2,
            task.model,
            task.seed,
            task.start,
            task.stop,
        )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _payload_usable(
    payload: Mapping[str, Any] | None, n_vectors: int, start: int, stop: int
) -> bool:
    if payload is None:
        return False
    if payload.get("payload_version") != MC_PAYLOAD_VERSION:
        return False
    if payload.get("n_vectors") != n_vectors:
        return False
    samples = payload.get("samples") or {}
    return samples.get("start") == start and samples.get("stop") == stop


def _validate_montecarlo_shard(task: _MonteCarloShard, result: Any) -> bool:
    """Parent-side shard-result check: one versioned payload per triad."""
    if not isinstance(result, list) or len(result) != len(task.triads):
        return False
    return all(
        isinstance(payload, Mapping)
        and payload.get("payload_version") == MC_PAYLOAD_VERSION
        for payload in result
    )


def run_montecarlo_sweep(
    circuit: Any,
    grid: TriadGrid | Sequence[OperatingTriad],
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    config: MonteCarloConfig,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
    jobs: int = 1,
    store: SweepResultStore | None = None,
    policy: ExecutionPolicy | None = None,
    chaos: ChaosPlan | None = None,
    report: ExecutionReport | None = None,
) -> list[TriadVariationResult]:
    """Monte Carlo characterize a circuit over a triad grid, sharded + cached.

    Parameters
    ----------
    circuit:
        :class:`AdderCircuit` or :class:`MultiplierCircuit` under test.
    grid:
        Operating triads to characterize at.
    in1, in2:
        Operand streams (already resolved from the pattern config).
    stimulus:
        Cache-key components of the stimulus
        (:func:`repro.core.sweep.pattern_stimulus` or
        :func:`repro.core.sweep.operand_stimulus`).
    config:
        Corner, mismatch model, sample count, variation seed and chunking.
    library:
        *Base* standard-cell library; the run shifts it to ``config.corner``
        before sampling local mismatch around the corner nominal.
    jobs:
        Worker processes.  A shard is one sample range times whole
        ``(vdd, vbb)`` groups; ranges are split by group until there are at
        least ``jobs`` shards.  ``1`` executes in-process, one range at a
        time.  Results are byte-identical for every value.
    store:
        Optional result store; completed ``(triad, range)`` entries are
        fetched from / persisted to it, and only the absent ones are
        simulated (warm reruns simulate nothing).  Every completed shard or
        range flushes immediately, so an interrupted run resumes warm.
    policy / chaos / report:
        Fault-tolerance knobs of the shard engine, as in
        :func:`repro.core.sweep.run_characterization_sweep`, including
        ``split-and-retry``: store keys are per ``(range, triad)``, so a
        halved shard stores the same entries.

    Returns
    -------
    One :class:`~repro.variation.stats.TriadVariationResult` per triad, in
    grid order, each carrying the full per-sample arrays in absolute
    sample-index order.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    with span("sweep", kind="montecarlo", jobs=jobs) as sweep_span:
        return _montecarlo_sweep_body(
            circuit,
            grid,
            in1,
            in2,
            stimulus,
            config=config,
            library=library,
            jobs=jobs,
            store=store,
            policy=policy,
            chaos=chaos,
            report=report,
            sweep_span=sweep_span,
        )


def _montecarlo_sweep_body(
    circuit: Any,
    grid: TriadGrid | Sequence[OperatingTriad],
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    config: MonteCarloConfig,
    library: StandardCellLibrary,
    jobs: int,
    store: SweepResultStore | None,
    policy: ExecutionPolicy | None,
    chaos: ChaosPlan | None,
    report: ExecutionReport | None,
    sweep_span: Any,
) -> list[TriadVariationResult]:
    """Body of :func:`run_montecarlo_sweep` under its ``sweep`` span."""
    in1_arr = np.asarray(in1, dtype=np.int64)
    in2_arr = np.asarray(in2, dtype=np.int64)
    triads = list(grid)
    if not triads:
        raise ValueError("the triad grid must not be empty")
    shifted = corner_library(config.corner, library)
    fingerprint = netlist_fingerprint(circuit.netlist)
    base_components: dict[str, Any] = {
        "scenario": "montecarlo",
        "engine_version": ENGINE_VERSION,
        "circuit": fingerprint,
        "circuit_name": circuit.name,
        "library": library_fingerprint(shifted),
        "stimulus": dict(stimulus),
        "corner": config.corner.value,
        "variation": config.key_components(),
    }
    n_vectors = int(in1_arr.size)
    ranges = config.sample_ranges()

    # One store entry (and one payload) per (sample range, triad) unit.
    keys: dict[tuple[int, OperatingTriad], str] = {}
    payloads: dict[tuple[int, OperatingTriad], dict[str, Any]] = {}
    for range_index, (start, stop) in enumerate(ranges):
        for triad in triads:
            keys[(range_index, triad)] = SweepResultStore.entry_key(
                {
                    **base_components,
                    "triad": {
                        "tclk": triad.tclk,
                        "vdd": triad.vdd,
                        "vbb": triad.vbb,
                    },
                    "samples": {"start": start, "stop": stop},
                }
            )
    if store is not None:
        with span("store.lookup", requested=len(keys)) as lookup_span:
            cached_batch = store.get_many(list(keys.values()))
            for unit, key in keys.items():
                start, stop = ranges[unit[0]]
                cached = cached_batch.get(key)
                if _payload_usable(cached, n_vectors, start, stop):
                    payloads[unit] = cached  # type: ignore[assignment]
            lookup_span.set(
                hits=len(payloads), misses=len(keys) - len(payloads)
            )

    missing: dict[int, list[OperatingTriad]] = {}
    for range_index, triad in keys:
        if (range_index, triad) not in payloads:
            missing.setdefault(range_index, []).append(triad)
    n_missing = len(keys) - len(payloads)
    sweep_span.set(units=len(keys), cached=len(payloads), simulated=n_missing)
    if missing:
        record_simulated_units(n_missing)
        spec = verified_spec(circuit, fingerprint) if jobs > 1 else None
        # Split each range into (vdd, vbb) groups until there are at least
        # ``jobs`` pieces: a lone range still fills every worker.
        per_range = -(-jobs // len(missing)) if spec is not None else 1
        pieces = [
            (range_index, piece)
            for range_index, range_triads in missing.items()
            for piece in shard_triads(range_triads, per_range)
        ]
        if spec is not None and len(pieces) > 1:
            trace_context = current_context()
            tasks = [
                _MonteCarloShard(
                    spec=spec,
                    library=shifted,
                    in1=in1_arr,
                    in2=in2_arr,
                    triads=tuple((t.tclk, t.vdd, t.vbb) for t in piece),
                    model=config.model,
                    seed=config.seed,
                    start=ranges[range_index][0],
                    stop=ranges[range_index][1],
                    trace=trace_context,
                )
                for range_index, piece in pieces
            ]
            range_index_by_start = {start: i for i, (start, _) in enumerate(ranges)}
            triad_by_coords = {(t.tclk, t.vdd, t.vbb): t for t in triads}

            def units_of(task: _MonteCarloShard) -> list[tuple[int, OperatingTriad]]:
                range_index = range_index_by_start[task.start]
                return [
                    (range_index, triad_by_coords[coords]) for coords in task.triads
                ]

            def flush(task: _MonteCarloShard, result: list) -> None:
                if store is None:
                    return
                with span("store.flush", entries=len(result)):
                    for unit, payload in zip(units_of(task), result):
                        store.put(keys[unit], payload)

            shard_payloads = run_shards(
                tasks,
                _run_montecarlo_shard,
                policy=policy,
                max_workers=min(jobs, len(tasks)),
                units=lambda task: len(task.triads),
                split=split_triad_shard,
                validate=_validate_montecarlo_shard,
                on_result=flush,
                chaos=chaos,
                report=report,
            )
            for task, result in zip(tasks, shard_payloads):
                payloads.update(zip(units_of(task), result))
        else:
            simulator = VosTimingSimulator(
                circuit.netlist,
                output_ports=circuit.output_ports(),
                library=shifted,
            )
            for range_index, range_triads in missing.items():
                payload_list = _simulate_range(
                    circuit,
                    shifted,
                    range_triads,
                    in1_arr,
                    in2_arr,
                    config.model,
                    config.seed,
                    ranges[range_index][0],
                    ranges[range_index][1],
                    simulator=simulator,
                )
                units = [(range_index, triad) for triad in range_triads]
                payloads.update(zip(units, payload_list))
                if store is not None:
                    with span("store.flush", entries=len(payload_list)):
                        for unit, payload in zip(units, payload_list):
                            store.put(keys[unit], payload)

    results: list[TriadVariationResult] = []
    for triad in triads:
        parts = [payloads[(range_index, triad)] for range_index in range(len(ranges))]
        results.append(
            TriadVariationResult(
                triad=triad,
                n_vectors=n_vectors,
                ber_samples=np.concatenate(
                    [decode_float64_array(p["ber_samples"]) for p in parts]
                ),
                faulty_fraction_samples=np.concatenate(
                    [
                        decode_float64_array(p["faulty_fraction_samples"])
                        for p in parts
                    ]
                ),
                energy_samples=np.concatenate(
                    [decode_float64_array(p["energy_samples"]) for p in parts]
                ),
                static_energy_samples=np.concatenate(
                    [
                        decode_float64_array(p["static_energy_samples"])
                        for p in parts
                    ]
                ),
                dynamic_energy_per_operation=float(
                    parts[0]["dynamic_energy_per_operation"]
                ),
            )
        )
    return results
