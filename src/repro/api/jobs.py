"""Declarative, JSON-round-trippable job objects.

A *job* is the typed request form of one workflow: everything the
:class:`~repro.api.session.Session` needs to run it, nothing about how the
result is rendered.  Jobs validate at construction (malformed operator
names, impossible windows, bad sample counts ... fail before any simulation
starts) and round-trip exactly through JSON (:func:`job_to_json` /
:func:`job_from_json`), which is the ``repro batch`` file format.

The shared vocabulary lives in :mod:`repro.api.options`
(:class:`PatternOptions`, :class:`SweepOptions`) and
:mod:`repro.api.spec` (:func:`parse_circuit_spec`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Sequence, Union

from repro.api.options import DEFAULT_SEED, DEFAULT_VECTORS, PatternOptions, SweepOptions
from repro.api.spec import OperatorSpec, parse_circuit_spec, parse_windows
from repro.core.triad import PAPER_SUPPLY_VOLTAGES, OperatingTriad
from repro.explore.search import SEARCH_STRATEGIES
from repro.explore.space import DesignSpace, TriadSpec
from repro.technology.corners import GateVariationModel, ProcessCorner
from repro.variation.montecarlo import MonteCarloConfig

#: Calibration distance metrics accepted by :class:`CalibrateJob`.
CALIBRATION_METRICS = ("mse", "hamming", "weighted_hamming")


def _validate_operator(name: str, pattern: PatternOptions | None = None) -> OperatorSpec:
    spec = parse_circuit_spec(name)
    if pattern is not None:
        pattern.config(spec.width)  # validates vectors/kind with the usual messages
    return spec


@dataclasses.dataclass(frozen=True)
class SynthesizeJob:
    """Table II style synthesis report over a set of operators."""

    operators: tuple[str, ...] = ("rca8", "bka8", "rca16", "bka16")

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("operators must not be empty")
        for name in self.operators:
            parse_circuit_spec(name)

    @property
    def specs(self) -> tuple[OperatorSpec, ...]:
        """The parsed operator specs, in declaration order."""
        return tuple(parse_circuit_spec(name) for name in self.operators)


@dataclasses.dataclass(frozen=True)
class CharacterizeJob:
    """Characterize one operator over its triad grid (Fig. 8 data)."""

    operator: str = "rca8"
    pattern: PatternOptions = dataclasses.field(default_factory=PatternOptions)
    sweep: SweepOptions | None = None
    output: str | None = None
    keep_measurements: bool = False

    def __post_init__(self) -> None:
        _validate_operator(self.operator, self.pattern)

    @property
    def spec(self) -> OperatorSpec:
        """The parsed operator spec."""
        return parse_circuit_spec(self.operator)


@dataclasses.dataclass(frozen=True)
class Table4Job:
    """Table IV aggregation from datasets and/or on-the-fly operator names.

    ``datasets`` entries are characterization JSON files or operator names
    (``"rca8"``); names are characterized with ``vectors`` uniform vectors
    at ``seed``, exactly like ``repro table4``.
    """

    datasets: tuple[str, ...]
    vectors: int = DEFAULT_VECTORS
    seed: int = DEFAULT_SEED
    sweep: SweepOptions | None = None

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ValueError("datasets must not be empty")
        if self.vectors <= 0:
            raise ValueError("n_vectors must be positive")


@dataclasses.dataclass(frozen=True)
class Fig5Job:
    """Per-bit BER profile of one operator under supply scaling."""

    operator: str = "rca8"
    supply_voltages: tuple[float, ...] = (0.8, 0.7, 0.6, 0.5)
    vectors: int = DEFAULT_VECTORS
    seed: int = DEFAULT_SEED
    sweep: SweepOptions | None = None

    def __post_init__(self) -> None:
        spec = _validate_operator(self.operator)
        PatternOptions(vectors=self.vectors, seed=self.seed).config(spec.width)
        if not self.supply_voltages:
            raise ValueError("supply_voltages must not be empty")
        if any(vdd <= 0 for vdd in self.supply_voltages):
            raise ValueError("vdd must be positive")

    @property
    def spec(self) -> OperatorSpec:
        """The parsed operator spec."""
        return parse_circuit_spec(self.operator)


@dataclasses.dataclass(frozen=True)
class CalibrateJob:
    """Algorithm 1 calibration of the carry probability table at one triad."""

    operator: str
    tclk_ns: float
    vdd: float
    vbb: float = 0.0
    metric: str = "mse"
    pattern: PatternOptions = dataclasses.field(default_factory=PatternOptions)
    sweep: SweepOptions | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        _validate_operator(self.operator, self.pattern)
        self.triad()
        if self.metric not in CALIBRATION_METRICS:
            raise ValueError(
                f"unknown calibration metric {self.metric!r}; "
                f"available: {', '.join(CALIBRATION_METRICS)}"
            )

    @property
    def spec(self) -> OperatorSpec:
        """The parsed operator spec."""
        return parse_circuit_spec(self.operator)

    def triad(self) -> OperatingTriad:
        """The operating triad the calibration measures at."""
        return OperatingTriad(tclk=self.tclk_ns * 1e-9, vdd=self.vdd, vbb=self.vbb)


@dataclasses.dataclass(frozen=True)
class SpeculateJob:
    """Accurate/approximate operating modes for an error margin.

    ``dataset`` is a characterization JSON file (``repro characterize
    --output`` / :func:`repro.core.dataset.save_characterization`).
    """

    dataset: str
    margin: float = 0.10

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ValueError("dataset must not be empty")
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError("margin must lie within [0, 1] (a BER fraction)")


@dataclasses.dataclass(frozen=True)
class ExploreJob:
    """Design-space search for the BER/energy Pareto frontier."""

    architectures: tuple[str, ...] = ("rca", "bka")
    widths: tuple[int, ...] = (8, 16)
    windows: tuple[int | None, ...] = (None,)
    clock_scales: tuple[float, ...] | None = None
    supply_voltages: tuple[float, ...] | None = None
    body_bias_voltages: tuple[float, ...] | None = None
    strategy: str = "successive-halving"
    budget: int | None = None
    seed: int = DEFAULT_SEED
    vectors: int = DEFAULT_VECTORS
    screen_vectors: int | None = None
    max_ber: float | None = None
    top: int = 10
    frontier: str | None = None
    robust_quantile: float | None = None
    robust_samples: int | None = None
    sweep: SweepOptions | None = None

    def __post_init__(self) -> None:
        if self.strategy not in SEARCH_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"available: {', '.join(sorted(SEARCH_STRATEGIES))}"
            )
        if self.budget is not None and self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.vectors <= 0:
            raise ValueError("full_vectors must be positive")
        if self.screen_vectors is not None and self.screen_vectors <= 0:
            raise ValueError("screen_vectors must be positive")
        if self.robust_samples is not None and self.robust_quantile is None:
            raise ValueError("--robust-samples requires --robust-quantile")
        if self.robust_quantile is not None:
            if not 0.0 < self.robust_quantile < 1.0:
                raise ValueError(
                    "--robust-quantile must lie strictly within (0, 1)"
                )
            self.variation_config()
        space = self.space()
        if not space.candidates():
            skipped = "; ".join(
                f"window {window} does not fit width {width} "
                f"(needs window < width)"
                for width, window in space.skipped_windows()
            )
            raise ValueError(
                "the declared axes produce no candidates "
                "(every window was skipped and no 'none' entry is present)"
                + (f": {skipped}" if skipped else "")
            )

    def triad_spec(self) -> TriadSpec:
        """The triad axes of the declared space."""
        if self.clock_scales is not None:
            return TriadSpec(
                clock_scales=tuple(self.clock_scales),
                supply_voltages=(
                    tuple(self.supply_voltages)
                    if self.supply_voltages
                    else TriadSpec().supply_voltages
                ),
                body_bias_voltages=(
                    tuple(self.body_bias_voltages)
                    if self.body_bias_voltages
                    else TriadSpec().body_bias_voltages
                ),
            )
        if self.supply_voltages or self.body_bias_voltages:
            raise ValueError("--vdd/--vbb require --clock-scales (a dense triad grid)")
        return TriadSpec()

    def space(self) -> DesignSpace:
        """The declared design space (windows already parsed)."""
        return DesignSpace.from_axes(
            architectures=self.architectures,
            widths=self.widths,
            speculation_windows=parse_windows(self.windows),
            triads=self.triad_spec(),
        )

    def variation_config(self) -> MonteCarloConfig | None:
        """Monte Carlo configuration of a robust run, or ``None`` (nominal)."""
        if self.robust_quantile is None:
            return None
        return MonteCarloConfig(
            n_samples=32 if self.robust_samples is None else self.robust_samples,
            seed=self.seed,
        )


@dataclasses.dataclass(frozen=True)
class MonteCarloJob:
    """Monte Carlo variation characterization: BER distributions and yield
    vs supply voltage at a process corner."""

    operator: str = "rca8"
    pattern: PatternOptions = dataclasses.field(default_factory=PatternOptions)
    corner: str = ProcessCorner.TYPICAL.value
    samples: int = 64
    sigma_vt: float = GateVariationModel().sigma_vt
    sigma_current: float = GateVariationModel().sigma_current_factor
    margin: float = 0.02
    supply_voltages: tuple[float, ...] = PAPER_SUPPLY_VOLTAGES
    sweep: SweepOptions | None = None

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("--samples must be positive")
        if not 0.0 <= self.margin <= 1.0:
            raise ValueError("--margin must lie within [0, 1] (a BER fraction)")
        _validate_operator(self.operator, self.pattern)
        self.config()
        if any(vdd <= 0 for vdd in self.supply_voltages):
            raise ValueError("vdd must be positive")

    @property
    def spec(self) -> OperatorSpec:
        """The parsed operator spec."""
        return parse_circuit_spec(self.operator)

    def config(self) -> MonteCarloConfig:
        """The run's Monte Carlo configuration (corner, model, samples)."""
        return MonteCarloConfig(
            corner=ProcessCorner(self.corner),
            model=GateVariationModel(
                sigma_current_factor=self.sigma_current, sigma_vt=self.sigma_vt
            ),
            n_samples=self.samples,
            seed=self.pattern.seed,
        )


@dataclasses.dataclass(frozen=True)
class FaultSweepJob:
    """Single-stuck-at fault campaign over the full fault universe."""

    operator: str = "rca8"
    pattern: PatternOptions = dataclasses.field(default_factory=PatternOptions)
    sweep: SweepOptions | None = None

    def __post_init__(self) -> None:
        _validate_operator(self.operator, self.pattern)

    @property
    def spec(self) -> OperatorSpec:
        """The parsed operator spec."""
        return parse_circuit_spec(self.operator)


@dataclasses.dataclass(frozen=True)
class StoreStatsJob:
    """Entry count and on-disk footprint of the session's result store."""


@dataclasses.dataclass(frozen=True)
class StoreVerifyJob:
    """Fsck pass over the session's result store: validate every entry and
    quarantine the corrupt ones (moved aside, never silently deleted)."""


@dataclasses.dataclass(frozen=True)
class StorePruneJob:
    """Delete oldest store entries until the store fits the limits."""

    max_entries: int | None = None
    max_bytes: int | None = None
    prune_all: bool = False

    def __post_init__(self) -> None:
        if self.prune_all and (
            self.max_entries is not None or self.max_bytes is not None
        ):
            raise ValueError(
                "--all conflicts with --max-entries/--max-bytes (it already "
                "deletes everything)"
            )
        if not self.prune_all and self.max_entries is None and self.max_bytes is None:
            raise ValueError("prune needs --max-entries, --max-bytes or --all")


#: Every job type the session can run.
Job = Union[
    SynthesizeJob,
    CharacterizeJob,
    Table4Job,
    Fig5Job,
    CalibrateJob,
    SpeculateJob,
    ExploreJob,
    MonteCarloJob,
    FaultSweepJob,
    StoreStatsJob,
    StoreVerifyJob,
    StorePruneJob,
]

#: Registry mapping the JSON ``type`` tag to the job class.
JOB_TYPES: dict[str, type] = {
    "synthesize": SynthesizeJob,
    "characterize": CharacterizeJob,
    "table4": Table4Job,
    "fig5": Fig5Job,
    "calibrate": CalibrateJob,
    "speculate": SpeculateJob,
    "explore": ExploreJob,
    "montecarlo": MonteCarloJob,
    "faults": FaultSweepJob,
    "store-stats": StoreStatsJob,
    "store-verify": StoreVerifyJob,
    "store-prune": StorePruneJob,
}

_TYPE_BY_CLASS = {cls: name for name, cls in JOB_TYPES.items()}


def job_type_name(job: Job) -> str:
    """The JSON ``type`` tag of a job instance."""
    try:
        return _TYPE_BY_CLASS[type(job)]
    except KeyError:
        raise ValueError(f"unknown job type {type(job).__name__!r}") from None


def job_to_json(job: Job) -> dict[str, Any]:
    """Serialise a job to a plain JSON document (with a ``type`` tag)."""
    document: dict[str, Any] = {"type": job_type_name(job)}
    document.update(dataclasses.asdict(job))
    return document


def job_from_json(data: Mapping[str, Any]) -> Job:
    """Rebuild a job from :func:`job_to_json` data (the batch-file format).

    Lists coerce back to the tuples the dataclasses declare, and nested
    ``pattern``/``sweep`` documents lower to their option dataclasses, so
    ``job_from_json(job_to_json(job)) == job`` for every job type.
    """
    if "type" not in data:
        raise ValueError("job document needs a 'type' tag")
    kind = str(data["type"])
    try:
        cls = JOB_TYPES[kind]
    except KeyError:
        raise ValueError(
            f"unknown job type {kind!r}; available: {', '.join(sorted(JOB_TYPES))}"
        ) from None
    names = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names - {"type"})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    for name in names & set(data):
        value = data[name]
        if name == "pattern" and isinstance(value, Mapping):
            value = PatternOptions.from_json(value)
        elif name == "sweep" and isinstance(value, Mapping):
            value = SweepOptions.from_json(value)
        elif isinstance(value, (list, tuple)):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def jobs_from_document(data: Any) -> list[Job]:
    """Read a batch document: either a bare list or ``{"jobs": [...]}``."""
    if isinstance(data, Mapping):
        entries: Sequence[Any] = data.get("jobs", ())
    else:
        entries = data
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ValueError("a batch document is a list of jobs or {'jobs': [...]}")
    jobs = [job_from_json(entry) for entry in entries]
    if not jobs:
        raise ValueError("the batch document contains no jobs")
    return jobs
