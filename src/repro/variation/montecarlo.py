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

Scale comes from the one sweep planner of :mod:`repro.core.sweep`
(:func:`~repro.core.sweep.run_sweep_plan`), which characterization and
fault campaigns share; this module supplies only the Monte Carlo kind of
unit (``_MonteCarloKind``) -- its store key, payload check and simulation
-- its request (:func:`montecarlo_request`) and the results built from its
payloads (:func:`variation_results_from_payloads`).  Its callers plan the
request with their other sweeps: the ``montecarlo`` job of
:class:`~repro.api.session.Session` (``Session().run(MonteCarloJob(...))``)
and the robust scoring of :class:`~repro.explore.evaluator.CandidateEvaluator`.

* **Sharding.**  Sample ranges are fixed-size chunks (independent of the
  worker count).  A shard is one sample range times a set of whole
  ``(vdd, vbb)`` groups: ranges are split into groups
  (:func:`repro.core.sweep.shard_triads`) until there are at least ``jobs``
  pieces, so even a single range keeps every worker busy.  Workers receive
  the built circuit with the shard, and every per-instance number depends
  only on ``(seed, absolute sample index)`` -- so serial and sharded runs
  are byte-identical, entry for entry.  In-process, each range runs (and
  flushes to the store) as one block.
* **Result store.**  Each ``(triad, sample range)`` payload -- its own
  layout, versioned by :data:`MC_PAYLOAD_VERSION` -- persists in the
  content-addressed :class:`~repro.core.store.SweepResultStore`, keyed by
  (netlist fingerprint, corner-shifted library fingerprint, stimulus,
  corner, variation model + seed, sample-index range, triad, engine
  version).  A warm rerun -- or a resumed run extending ``n_samples``, or
  one interrupted part-way through a range -- simulates only the
  ``(range, triad)`` entries the store lacks.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Iterator, Mapping, Sequence

import numpy as np

from repro.circuits.signals import int_to_bits
from repro.core.resilience import ExecutionPolicy
from repro.core.store import (
    SweepResultStore,
    decode_float64_array,
    library_fingerprint,
    pack_float64_array,
)
from repro.core.sweep import (
    SweepKind,
    SweepRequest,
    key_base,
    shard_triads,
)
from repro.core.triad import OperatingTriad, TriadGrid
from repro.simulation.timing_sim import VosTimingSimulator
from repro.technology.corners import (
    GateVariationModel,
    ProcessCorner,
    corner_library,
)
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
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

    The triads of
    :meth:`~repro.core.characterization.CharacterizationFlow.supply_scaling_triads`
    as a grid -- the axis a yield-vs-Vdd analysis scales.
    """
    return TriadGrid(flow.supply_scaling_triads(supply_voltages))


# ---------------------------------------------------------------------------
# The Monte Carlo sweep kind (see repro.core.sweep.SweepKind)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _MonteCarloKind:
    """Units are the :class:`OperatingTriad` values of one sample range.

    ``library`` is the corner-shifted library.  Every per-instance number
    depends only on ``(seed, absolute sample index)``, so a unit's payload
    is the same whichever piece simulates it.  In-process, each sample
    range is one flush block.
    """

    library: StandardCellLibrary
    model: GateVariationModel
    seed: int
    start: int
    stop: int

    name = "montecarlo"
    payload_version = MC_PAYLOAD_VERSION

    @property
    def family(self) -> Hashable:
        return (self.name, library_fingerprint(self.library))

    def merge(self, other: SweepKind) -> SweepKind:
        return self

    def entry_key(
        self, base_components: Mapping[str, Any], unit: OperatingTriad
    ) -> str:
        return SweepResultStore.entry_key(
            {
                **base_components,
                "triad": {"tclk": unit.tclk, "vdd": unit.vdd, "vbb": unit.vbb},
                "samples": {"start": self.start, "stop": self.stop},
            }
        )

    def usable(self, payload: Mapping[str, Any], n_vectors: int) -> bool:
        if payload.get("payload_version") != MC_PAYLOAD_VERSION:
            return False
        if payload.get("n_vectors") != n_vectors:
            return False
        samples = payload.get("samples") or {}
        return samples.get("start") == self.start and samples.get("stop") == self.stop

    def plan(
        self, units: list[OperatingTriad], n_shards: int | None
    ) -> list[list[OperatingTriad]]:
        if n_shards is None:
            return [units]
        return shard_triads(units, n_shards)

    def simulator(self, circuit: Any) -> VosTimingSimulator:
        return VosTimingSimulator(
            circuit.netlist,
            output_ports=circuit.output_ports(),
            library=self.library,
        )

    def run(
        self,
        simulator: VosTimingSimulator,
        circuit: Any,
        in1: np.ndarray,
        in2: np.ndarray,
        pieces: Sequence[Sequence[OperatingTriad]],
    ) -> Iterator[list[dict[str, Any]]]:
        """Simulate the sample range over each piece's triads.

        Triads are grouped by operating point so the batched arrival pass --
        the expensive part -- runs once per ``(vdd, vbb)`` for the whole
        range, and clock periods within a group cost one latch comparison
        each, reduced straight to per-instance error counts
        (:meth:`~repro.simulation.timing_sim.VosTimingSimulator.run_variation_counts`).
        """
        tech = self.library.technology
        batch = VariationSampler(self.model, self.seed).sample_range(
            circuit.netlist.gate_count, self.start, self.stop
        )
        leakage_multipliers = batch.leakage_multipliers(tech)
        assignment = circuit.input_assignment(in1, in2)
        exact_bits = int_to_bits(circuit.exact_words(in1, in2), circuit.output_width)
        n_vectors = int(in1.size)
        for piece in pieces:
            groups: dict[tuple[float, float], list[OperatingTriad]] = {}
            for triad in piece:
                groups.setdefault((triad.vdd, triad.vbb), []).append(triad)
            payloads: dict[OperatingTriad, dict[str, Any]] = {}
            for (vdd, vbb), group in groups.items():
                counts = simulator.run_variation_counts(
                    assignment,
                    [triad.tclk for triad in group],
                    vdd,
                    vbb,
                    exact_bits,
                    delay_multipliers=batch.delay_multipliers(vdd, vbb, tech),
                    leakage_multipliers=leakage_multipliers,
                )
                for triad, result in zip(group, counts):
                    dynamic = float(result.dynamic_energy.mean())
                    static = result.static_energy_per_operation
                    payloads[triad] = {
                        "payload_version": MC_PAYLOAD_VERSION,
                        "triad": {
                            "tclk": triad.tclk,
                            "vdd": triad.vdd,
                            "vbb": triad.vbb,
                        },
                        "n_vectors": n_vectors,
                        "samples": {"start": self.start, "stop": self.stop},
                        "ber_samples": pack_float64_array(result.ber),
                        "faulty_fraction_samples": pack_float64_array(
                            result.faulty_fraction
                        ),
                        "energy_samples": pack_float64_array(dynamic + static),
                        "static_energy_samples": pack_float64_array(static),
                        "dynamic_energy_per_operation": dynamic,
                    }
            yield [payloads[triad] for triad in piece]

    def shard_attributes(self) -> dict[str, Any]:
        return {"samples": self.stop - self.start}


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def montecarlo_request(
    circuit: Any,
    triads: Sequence[OperatingTriad],
    in1: np.ndarray,
    in2: np.ndarray,
    stimulus: Mapping[str, Any],
    *,
    config: MonteCarloConfig,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
    jobs: int = 1,
    policy: ExecutionPolicy | None = None,
) -> SweepRequest:
    """The request of a Monte Carlo run of ``circuit`` at ``triads``.

    One unit -- one store entry, one payload -- per ``(triad, sample
    range)``, triad-major.  ``config`` holds corner, mismatch model, sample
    count, variation seed and chunking; the run shifts the *base*
    ``library`` to ``config.corner`` before sampling local mismatch around
    the corner nominal.  The :func:`~repro.core.sweep.key_base` adds the
    shifted library, the corner and the variation model and seed.  With
    ``jobs > 1`` a shard is one sample range times whole ``(vdd, vbb)``
    groups, and ranges are split by group until there are at least ``jobs``
    shards; results are byte-identical for every value, and
    ``split-and-retry`` stores the same entries.  ``triads`` must not be
    empty.
    """
    if not triads:
        raise ValueError("the triad grid must not be empty")
    shifted = corner_library(config.corner, library)
    base = key_base(
        "montecarlo",
        circuit,
        stimulus,
        library=library_fingerprint(shifted),
        corner=config.corner.value,
        variation=config.key_components(),
    )
    kinds = [
        _MonteCarloKind(shifted, config.model, config.seed, start, stop)
        for start, stop in config.sample_ranges()
    ]
    units = [(kind, triad) for triad in triads for kind in kinds]
    return SweepRequest(circuit, in1, in2, base, units, jobs, policy)


def variation_results_from_payloads(
    triads: Sequence[OperatingTriad], payloads: Sequence[Mapping[str, Any]]
) -> list[TriadVariationResult]:
    """One :class:`~repro.variation.stats.TriadVariationResult` per triad
    from the payloads of a :func:`montecarlo_request`, in its unit order;
    each carries the full per-sample arrays in absolute sample-index order.
    """
    n_ranges = len(payloads) // len(triads)
    results: list[TriadVariationResult] = []
    for index, triad in enumerate(triads):
        parts = payloads[index * n_ranges : (index + 1) * n_ranges]

        def samples(name: str) -> np.ndarray:
            return np.concatenate([decode_float64_array(p[name]) for p in parts])

        results.append(
            TriadVariationResult(
                triad=triad,
                n_vectors=int(parts[0]["n_vectors"]),
                ber_samples=samples("ber_samples"),
                faulty_fraction_samples=samples("faulty_fraction_samples"),
                energy_samples=samples("energy_samples"),
                static_energy_samples=samples("static_energy_samples"),
                dynamic_energy_per_operation=float(
                    parts[0]["dynamic_energy_per_operation"]
                ),
            )
        )
    return results
