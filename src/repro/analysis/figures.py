"""Generators for the paper's figures (5, 7, 8).

Every generator returns structured data (label + numpy series) so the
benchmarks can assert the qualitative shape and render the same series the
paper plots.  No plotting library is required; the benches print the series
as text.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.core.calibration import calibrate_probability_table
from repro.core.characterization import AdderCharacterization, CharacterizationFlow
from repro.core.metrics import normalized_hamming_distance, signal_to_noise_ratio_db
from repro.core.modified_adder import ApproximateAdderModel
from repro.core.resilience import ExecutionPolicy, ExecutionReport
from repro.core.store import SweepResultStore
from repro.simulation.patterns import PatternConfig
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary


# -- Fig. 5: per-bit BER of the 8-bit RCA under supply scaling -----------------


@dataclasses.dataclass(frozen=True)
class Fig5Series:
    """Per-output-bit BER profile at one supply voltage.

    Attributes
    ----------
    vdd:
        Supply voltage of the series.
    ber_per_bit:
        BER (fraction) per output bit position, LSB first.
    """

    vdd: float
    ber_per_bit: np.ndarray

    @property
    def mean_ber(self) -> float:
        """Average BER across output bits."""
        return float(self.ber_per_bit.mean())


def fig5_ber_per_bit(
    architecture: str = "rca",
    width: int = 8,
    supply_voltages: Sequence[float] = (0.8, 0.7, 0.6, 0.5),
    n_vectors: int = 4000,
    seed: int = 2017,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
    sta_margin: float = 1.5,
    jobs: int = 1,
    store: SweepResultStore | None = None,
    flow: CharacterizationFlow | None = None,
    policy: ExecutionPolicy | None = None,
    report: ExecutionReport | None = None,
) -> list[Fig5Series]:
    """Reproduce Fig. 5: BER distribution over output bits under Vdd scaling.

    The clock is held at the benchmark's nominal (matched Table III) period
    with no body bias while the supply is scaled, exactly as in the paper
    (:meth:`~repro.core.characterization.CharacterizationFlow.supply_scaling_triads`).
    The supply points run as one sweep, so they shard over ``jobs`` worker
    processes and persist to the optional result ``store`` -- keyed by the
    pattern configuration, so the nominal-clock points share warm store
    entries with ``characterize`` sweeps of the same adder and stimulus.
    ``flow`` reuses a pre-built characterization flow instead of rebuilding
    the adder.
    """
    if flow is None:
        flow = CharacterizationFlow.for_benchmark(
            architecture, width, library=library, sta_margin=sta_margin
        )
    triads = flow.supply_scaling_triads(supply_voltages)
    characterization = flow.run(
        triads=triads,
        pattern=PatternConfig(
            n_vectors=n_vectors, width=flow.adder.width, seed=seed, kind="uniform"
        ),
        keep_measurements=False,
        jobs=jobs,
        store=store,
        policy=policy,
        report=report,
    )
    return [
        Fig5Series(
            vdd=triad.vdd,
            ber_per_bit=np.asarray(characterization.find(triad).bitwise_error),
        )
        for triad in triads
    ]


def render_fig5(series: Sequence[Fig5Series], width: int) -> str:
    """Render a Fig. 5 profile as a text table (one row per supply voltage).

    ``width`` is the *operand* width; one column is emitted per output bit
    (``width + 1`` columns, LSB first), BER values in percent.
    """
    output_width = width + 1
    lines = ["Vdd " + "".join(f"  bit{i:>2}" for i in range(output_width))]
    for entry in series:
        lines.append(
            f"{entry.vdd:0.1f} "
            + "".join(f"{value * 100:7.1f}" for value in entry.ber_per_bit)
        )
    return "\n".join(lines)


# -- Fig. 7: accuracy of the statistical model ---------------------------------


@dataclasses.dataclass(frozen=True)
class Fig7Point:
    """Model-accuracy summary for one adder and one calibration metric.

    Attributes
    ----------
    adder_name:
        Benchmark name (``"rca8"``, ``"bka16"``, ...).
    metric:
        Calibration distance metric (``"mse"``, ``"hamming"``,
        ``"weighted_hamming"``).
    mean_snr_db:
        SNR of the model output versus the characterized hardware output,
        averaged over the evaluated triads (Fig. 7a).
    mean_normalized_hamming:
        Normalised Hamming distance averaged over the evaluated triads
        (Fig. 7b).
    """

    adder_name: str
    metric: str
    mean_snr_db: float
    mean_normalized_hamming: float


def fig7_model_accuracy(
    benchmarks: Sequence[tuple[str, int]] = (("bka", 8), ("rca", 8), ("bka", 16), ("rca", 16)),
    metrics: Sequence[str] = ("mse", "hamming", "weighted_hamming"),
    n_vectors: int = 3000,
    seed: int = 2017,
    max_triads: int | None = 12,
    library: StandardCellLibrary = DEFAULT_LIBRARY,
) -> list[Fig7Point]:
    """Reproduce Fig. 7: estimation error of the statistical model.

    For every benchmark the adder is characterized with carry-balanced
    training patterns; for every triad that produces errors, Algorithm 1 is
    run under each distance metric, and the resulting model is compared with
    the hardware outputs (SNR and normalised Hamming distance).  The returned
    points aggregate over triads, matching the per-adder bars of Fig. 7.

    ``max_triads`` bounds the number of faulty triads evaluated per adder to
    keep the run time of the benchmark harness reasonable; ``None`` evaluates
    every faulty triad as the paper does.
    """
    points: list[Fig7Point] = []
    for architecture, width in benchmarks:
        flow = CharacterizationFlow.for_benchmark(architecture, width, library=library)
        config = PatternConfig(
            n_vectors=n_vectors, width=width, seed=seed, kind="carry_balanced"
        )
        characterization = flow.run(pattern=config)
        faulty = [entry for entry in characterization.results if entry.ber > 0.0]
        if max_triads is not None:
            faulty = faulty[:max_triads]
        for metric in metrics:
            snrs: list[float] = []
            hammings: list[float] = []
            for entry in faulty:
                measurement = characterization.measurement_for(entry.triad)
                calibration = calibrate_probability_table(
                    measurement.in1,
                    measurement.in2,
                    measurement.latched_words,
                    width,
                    metric=metric,
                )
                model = ApproximateAdderModel(width, calibration.table, seed=seed)
                model_output = model.add(measurement.in1, measurement.in2)
                snr = signal_to_noise_ratio_db(measurement.latched_words, model_output)
                if np.isfinite(snr):
                    snrs.append(snr)
                hammings.append(
                    normalized_hamming_distance(
                        measurement.latched_words, model_output, width + 1
                    )
                )
            points.append(
                Fig7Point(
                    adder_name=f"{architecture}{width}",
                    metric=metric,
                    mean_snr_db=float(np.mean(snrs)) if snrs else float("inf"),
                    mean_normalized_hamming=float(np.mean(hammings)) if hammings else 0.0,
                )
            )
    return points


# -- Fig. 8: BER and energy/operation across the triad grid ---------------------


@dataclasses.dataclass(frozen=True)
class Fig8Series:
    """The two series of one Fig. 8 sub-plot for one adder.

    Attributes
    ----------
    adder_name:
        Benchmark name.
    labels:
        Triad labels ordered by decreasing energy per operation (the paper's
        x-axis ordering).
    ber_percent:
        BER (%) per triad in the same order.
    energy_per_operation_pj:
        Energy per operation (pJ) per triad in the same order.
    """

    adder_name: str
    labels: tuple[str, ...]
    ber_percent: np.ndarray
    energy_per_operation_pj: np.ndarray


def fig8_ber_energy_series(characterization: AdderCharacterization) -> Fig8Series:
    """Reproduce one Fig. 8 sub-plot from a characterization."""
    ordered = characterization.sorted_by_energy()
    return Fig8Series(
        adder_name=characterization.adder_name,
        labels=tuple(entry.label() for entry in ordered),
        ber_percent=np.array([entry.ber_percent for entry in ordered]),
        energy_per_operation_pj=np.array(
            [entry.energy_per_operation_pj for entry in ordered]
        ),
    )


def render_fig8(series: Fig8Series) -> str:
    """Render a Fig. 8 series as a text table (label, BER %, energy pJ)."""
    lines = [f"{series.adder_name}: BER vs Energy/Operation"]
    lines.append(f"{'triad (Tclk ns, Vdd V, Vbb V)':<32}{'BER %':>10}{'E/op pJ':>12}")
    for label, ber, energy in zip(
        series.labels, series.ber_percent, series.energy_per_operation_pj
    ):
        lines.append(f"{label:<32}{ber:>10.2f}{energy:>12.4f}")
    return "\n".join(lines)


# -- Exploration: the BER-vs-energy Pareto frontier ----------------------------


@dataclasses.dataclass(frozen=True)
class FrontierSeries:
    """The Pareto-frontier curve of one design-space exploration.

    Attributes
    ----------
    labels:
        ``operator @ triad`` label per frontier point, ordered by
        increasing BER.
    ber_percent:
        BER (%) per point in the same order.
    energy_per_operation_pj:
        Energy per operation (pJ) per point in the same order.
    """

    labels: tuple[str, ...]
    ber_percent: np.ndarray
    energy_per_operation_pj: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


def frontier_series(frontier) -> FrontierSeries:
    """Series of a :class:`repro.explore.frontier.ParetoFrontier`.

    Structured like the Fig. 8 series: plot energy against BER to see the
    achievable trade-off curve of the whole design space instead of one
    adder's triad grid.
    """
    points = frontier.points
    return FrontierSeries(
        labels=tuple(
            f"{point.operator_name} @ {point.triad.label()}" for point in points
        ),
        ber_percent=np.array([point.ber * 100.0 for point in points]),
        energy_per_operation_pj=np.array(
            [point.energy_per_operation * 1e12 for point in points]
        ),
    )


def render_frontier(series: FrontierSeries) -> str:
    """Render a frontier series as a text table (label, BER %, energy pJ)."""
    lines = ["Pareto frontier: BER vs Energy/Operation"]
    lines.append(f"{'operator @ triad':<40}{'BER %':>10}{'E/op pJ':>12}")
    for label, ber, energy in zip(
        series.labels, series.ber_percent, series.energy_per_operation_pj
    ):
        lines.append(f"{label:<40}{ber:>10.2f}{energy:>12.4f}")
    return "\n".join(lines)
