"""The Session: one programmatic facade for every workflow.

A :class:`Session` owns the execution substrate every workflow shares -- the
standard-cell library, the (optional) persistent
:class:`~repro.core.store.SweepResultStore` behind a session-lifetime
:class:`~repro.core.store.MemoryOverlayStore`, the default worker-process
policy, and a bounded cache of built circuits/characterization flows -- and
exposes exactly two entry points:

* :meth:`Session.run` lowers one declarative job (:mod:`repro.api.jobs`)
  onto the existing orchestrators and returns a typed result
  (:mod:`repro.api.results`).  The CLI is a thin adapter over this: parse
  args, build the job, ``session.run``, print ``result.render()``.
* :meth:`Session.run_batch` plans a set of jobs together: the underlying
  sweep work units -- ``(circuit fingerprint, stimulus, triad)`` store keys,
  exactly the orchestrator's content addresses -- are fingerprinted across
  jobs, shared units are deduplicated, and the union of cold units lowers
  into one sharded executor pass per (circuit, stimulus) group before the
  jobs replay from the warm overlay.  Overlapping jobs (``characterize`` +
  ``fig5`` + ``explore`` over the same adders) therefore perform **zero**
  repeated timing simulations, which the :class:`BatchReport`'s
  planned/deduped/cache-hit/simulated counters make observable (and the
  test suite asserts via
  :func:`repro.core.sweep.simulated_unit_count`).
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading
from typing import Any, Mapping, Sequence

from repro.analysis.faults import summarize_fault_results
from repro.analysis.figures import fig5_ber_per_bit
from repro.analysis.tables import ranked_configurations
from repro.api.jobs import (
    CalibrateJob,
    CharacterizeJob,
    ExploreJob,
    FaultSweepJob,
    Fig5Job,
    Job,
    MonteCarloJob,
    SpeculateJob,
    StorePruneJob,
    StoreStatsJob,
    StoreVerifyJob,
    SynthesizeJob,
    Table4Job,
)
from repro.api.options import StoreOptions
from repro.api.results import (
    CalibrateResult,
    CharacterizeResult,
    ExploreResult,
    FaultSweepResult,
    Fig5Result,
    MonteCarloResult,
    SpeculateResult,
    StorePruneResult,
    StoreStatsResult,
    StoreVerifyResult,
    SynthesizeResult,
    Table4Result,
)
from repro.api.spec import OperatorSpec, parse_circuit_spec
from repro.core import sweep as sweep_module
from repro.core.calibration import calibrate_probability_table
from repro.core.characterization import CharacterizationFlow, FlowCache
from repro.core.dataset import (
    load_characterization,
    save_characterization,
    save_probability_table,
)
from repro.core.energy import summarize_by_ber_range
from repro.core.resilience import (
    ExecutionPolicy,
    ExecutionReport,
    ShardExecutionError,
    pool_scope,
)
from repro.core.speculation import DynamicSpeculationController
from repro.core.store import MemoryOverlayStore, SweepResultStore
from repro.core.triad import OperatingTriad, TriadGrid
from repro.explore.evaluator import CandidateEvaluator, robust_tag
from repro.explore.frontier import ParetoFrontier
from repro.explore.search import run_search
from repro.obs import metrics
from repro.obs.report import RunReport
from repro.obs.trace import Tracer, activated, active_tracer, span
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.synthesis.synthesize import synthesize
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.variation.montecarlo import run_montecarlo_sweep, supply_scaling_grid

#: Sentinel selecting the default on-disk store location
#: (``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``).
DEFAULT_STORE = "default"


class SessionError(ValueError):
    """A user-facing job-execution failure (bad inputs, missing files ...).

    Raised by :meth:`Session.run` for conditions the *caller* can fix --
    distinct from plain exceptions, which indicate library defects.  The
    CLI converts exactly this type into a clean one-line exit; everything
    else keeps its traceback.
    """


@dataclasses.dataclass(frozen=True)
class BatchReport:
    """Work accounting of one :meth:`Session.run_batch` call.

    Attributes
    ----------
    jobs:
        Number of jobs executed.
    planned_units:
        Plannable sweep work units across all jobs, *with* multiplicity --
        one unit is one ``(circuit, stimulus, triad)`` timing simulation a
        job would perform on its own.
    deduped_units:
        Units shared between jobs (``planned_units`` minus distinct store
        keys): work the batch planner eliminated outright.
    cache_hits:
        Distinct units already warm in the session store before the batch
        ran.
    simulated_units:
        Work units actually simulated by the whole batch (including
        non-plannable workloads such as Monte Carlo ranges or screening
        sweeps, which dedup through the shared session overlay instead of
        the planner).  Measured from the process-wide counter of
        :func:`repro.core.sweep.simulated_unit_count`: accurate for the
        one-batch-at-a-time usage a session supports (sessions are not
        thread-safe; see :class:`Session`), but concurrent sweeps run by
        *other* sessions in other threads of the same process would be
        attributed to this batch.
    """

    jobs: int
    planned_units: int
    deduped_units: int
    cache_hits: int
    simulated_units: int
    execution: ExecutionReport | None = None

    def render(self) -> str:
        """One-line summary (printed by ``repro batch``).

        A second line reports the merged fault-recovery accounting of the
        whole batch -- only when any sweep actually recovered from faults,
        so fault-free output stays byte-stable.
        """
        line = (
            f"batch: {self.jobs} jobs, {self.planned_units} planned sweep "
            f"units, {self.deduped_units} deduped, {self.cache_hits} warm "
            f"from store, {self.simulated_units} simulated"
        )
        if self.execution is not None and self.execution.faulted:
            return line + "\n" + self.execution.render()
        return line


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Per-job typed results plus the batch work report."""

    results: tuple[Any, ...]
    report: BatchReport


@dataclasses.dataclass(frozen=True)
class _SweepRequest:
    """One job's plannable characterization sweep (spec x stimulus x triads)."""

    spec: OperatorSpec
    pattern: PatternConfig
    triads: tuple[OperatingTriad, ...]
    keep_latched: bool
    jobs: int
    policy: ExecutionPolicy | None = None


class _MergedSweep:
    """Union of all requests sharing one (circuit, stimulus) identity.

    ``keep_latched`` is tracked per triad (per store key), not per group:
    one calibration triad needing latched words must not force a whole
    already-warm characterize grid -- whose cached payloads carry no
    latched words -- to re-simulate.
    """

    def __init__(self, spec: OperatorSpec, pattern: PatternConfig) -> None:
        self.spec = spec
        self.pattern = pattern
        self.triads: dict[str, tuple[OperatingTriad, bool]] = {}  # key -> (triad, keep)
        self.jobs = 1
        self.policy: ExecutionPolicy | None = None


class Session:
    """Shared execution context for the typed job API.

    A session is single-threaded state (flow cache, store overlay, batch
    accounting): run one job or batch at a time.  :meth:`run` and
    :meth:`run_batch` serialize through a reentrant lock, so a
    multi-threaded front-end (the characterization service of
    :mod:`repro.serve` funnels every batch window through one session) may
    share a session -- calls from other threads simply queue; the lock is
    reentrant because :meth:`run_batch` executes its jobs through
    :meth:`run` on the same thread.  For *parallel* execution give each
    thread its own session -- they can safely share one on-disk store,
    whose entries are content-addressed and written atomically.

    Parameters
    ----------
    library:
        Standard-cell library every simulation uses.
    store:
        The persistent result store: :data:`DEFAULT_STORE` (the default)
        opens the default location, ``None`` disables persistence (the
        session still dedups in memory), a path string / ``Path`` opens a
        store there, and a ready :class:`SweepResultStore` is used as-is.
    jobs:
        Default worker-process count for jobs that do not carry their own
        :class:`~repro.api.options.SweepOptions`.
    sta_margin:
        Clock-path pessimism factor of every characterization flow (see
        :class:`~repro.core.characterization.CharacterizationFlow`).
    policy:
        Default fault-tolerance :class:`~repro.core.resilience.ExecutionPolicy`
        for sweep-running jobs that do not override it through their
        :class:`~repro.api.options.SweepOptions`; ``None`` keeps the engine
        default (retry twice, no shard timeout).
    trace:
        Path of a JSONL trace file (see :mod:`repro.obs.trace`): every
        :meth:`run`/:meth:`run_batch` call records a hierarchical span tree
        (session -> job -> sweep -> shard -> engine pass -> store flush)
        into it, including spans from worker processes.  ``None`` (the
        default) disables tracing entirely; results, rendered output and
        store contents are byte-identical either way.
    """

    def __init__(
        self,
        *,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
        store: SweepResultStore | str | pathlib.Path | None = DEFAULT_STORE,
        jobs: int = 1,
        sta_margin: float = 1.5,
        policy: ExecutionPolicy | None = None,
        trace: str | pathlib.Path | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._library = library
        self._default_jobs = jobs
        self._sta_margin = sta_margin
        self._policy = policy
        self._tracer = Tracer(str(trace)) if trace is not None else None
        if store == DEFAULT_STORE:
            backing: SweepResultStore | None = SweepResultStore.default()
        elif store is None or isinstance(store, SweepResultStore):
            backing = store
        else:
            backing = SweepResultStore(store)
        self._view = MemoryOverlayStore(backing)
        self._lock = threading.RLock()
        self._flows = FlowCache(library, sta_margin)

    @classmethod
    def from_options(
        cls,
        store: StoreOptions | None = None,
        *,
        jobs: int = 1,
        library: StandardCellLibrary = DEFAULT_LIBRARY,
        sta_margin: float = 1.5,
        policy: ExecutionPolicy | None = None,
        trace: str | pathlib.Path | None = None,
    ) -> "Session":
        """Build a session from the shared :class:`StoreOptions` vocabulary."""
        options = store or StoreOptions()
        return cls(
            library=library,
            store=options.resolve(),
            jobs=jobs,
            sta_margin=sta_margin,
            policy=policy,
            trace=trace,
        )

    # -- substrate -------------------------------------------------------------

    @property
    def library(self) -> StandardCellLibrary:
        """The session's standard-cell library."""
        return self._library

    @property
    def store(self) -> SweepResultStore | None:
        """The persistent result store (``None`` when caching is disabled)."""
        return self._view.backing

    @property
    def overlay(self) -> MemoryOverlayStore:
        """The session's in-memory hot tier over the persistent store.

        Monitoring surfaces read its :meth:`~MemoryOverlayStore.snapshot`;
        treat it as read-only.
        """
        return self._view

    @property
    def default_jobs(self) -> int:
        """Worker-process count jobs without their own SweepOptions inherit."""
        return self._default_jobs

    def flow_for(self, spec: OperatorSpec | str) -> CharacterizationFlow:
        """The (cached) characterization flow of one operator spec."""
        if isinstance(spec, str):
            spec = parse_circuit_spec(spec)
        return self._flows.get(spec)

    def _jobs_for(self, job: Any) -> int:
        sweep = getattr(job, "sweep", None)
        return sweep.jobs if sweep is not None else self._default_jobs

    def _policy_for(self, job: Any) -> ExecutionPolicy | None:
        """The job's execution policy: its SweepOptions override, else the
        session default (``None`` lets the engine default apply)."""
        sweep = getattr(job, "sweep", None)
        override = sweep.policy() if sweep is not None else None
        return override if override is not None else self._policy

    def _require_store(self) -> SweepResultStore:
        store = self._view.backing
        if store is None:
            raise SessionError(
                "the session has no result store (constructed with store=None)"
            )
        return store

    # -- single-job execution --------------------------------------------------

    def run(self, job: Job) -> Any:
        """Run one job and return its typed result.

        A sweep that exhausts its fault-recovery options
        (:class:`~repro.core.resilience.ShardExecutionError`) surfaces as a
        :class:`SessionError`: the caller chose the policy (e.g.
        ``on_worker_failure="fail"``), so the failure is theirs to handle.

        Every result carries a :class:`~repro.obs.report.RunReport` in its
        ``run`` field -- counter-only work accounting that is identical
        whether or not the session traces.

        The job's sweeps share one worker pool
        (:func:`~repro.core.resilience.pool_scope`), forked by the first
        dispatch and reaped before this call returns.
        """
        try:
            handler = _HANDLERS[type(job)]
        except KeyError:
            raise TypeError(f"unknown job type {type(job).__name__!r}") from None
        with self._lock, pool_scope():
            if active_tracer() is not None:
                # Called from run_batch (or another traced scope): the
                # session span is already open; contribute only the job span.
                return self._run_job(handler, job)
            with activated(self._tracer):
                with span("session", jobs=1):
                    return self._run_job(handler, job)

    def _run_job(self, handler: Any, job: Job) -> Any:
        """Execute one job under a ``job`` span and attach its RunReport."""
        units_before = sweep_module.simulated_unit_count()
        store = self._view.backing
        store_before = store.stats._values() if store is not None else None
        with span("job", type=type(job).__name__):
            try:
                result = handler(self, job)
            except ShardExecutionError as error:
                raise SessionError(f"sweep execution failed: {error}") from None
        store_delta = None
        if store is not None and store_before is not None:
            after = store.stats._values()
            store_delta = {
                name: after[name] - before
                for name, before in store_before.items()
            }
        report = RunReport(
            simulated_units=sweep_module.simulated_unit_count() - units_before,
            execution=getattr(result, "execution", None),
            store=store_delta,
        )
        return dataclasses.replace(result, run=report)

    def _run_synthesize(self, job: SynthesizeJob) -> SynthesizeResult:
        # Synthesis only needs the netlists: build them directly instead of
        # through flow_for, which would compile a timing-simulation plan per
        # operator (and churn the flow cache) for a report that runs none.
        reports = tuple(
            synthesize(spec.build().netlist, library=self._library)
            for spec in job.specs
        )
        return SynthesizeResult(reports=reports)

    def _run_characterize(self, job: CharacterizeJob) -> CharacterizeResult:
        spec = job.spec
        flow = self.flow_for(spec)
        report = ExecutionReport()
        characterization = flow.run(
            pattern=job.pattern.config(spec.width),
            keep_measurements=job.keep_measurements,
            jobs=self._jobs_for(job),
            store=self._view,
            policy=self._policy_for(job),
            report=report,
        )
        if job.output:
            save_characterization(characterization, job.output)
        return CharacterizeResult(
            characterization=characterization, output=job.output, execution=report
        )

    @staticmethod
    def _classify_dataset(entry: str) -> str:
        """Classify a Table IV dataset entry.

        ``"file"`` -- an existing characterization JSON file;
        ``"missing-file"`` -- clearly meant as a file path (operator names
        are bare alnum tokens) but absent; ``"operator"`` -- an operator
        name to characterize on the fly.  The one predicate shared by the
        run path and the batch planner, so both always classify alike.
        """
        if pathlib.Path(entry).is_file():
            return "file"
        if "." in entry or "/" in entry:
            return "missing-file"
        return "operator"

    @staticmethod
    def _dataset_operator(entry: str) -> OperatorSpec:
        """Parse a Table IV operator-name entry into its spec (user-facing)."""
        try:
            return parse_circuit_spec(entry)
        except ValueError as error:
            raise SessionError(str(error)) from None

    def _run_table4(self, job: Table4Job) -> Table4Result:
        characterizations = {}
        report = ExecutionReport()
        for entry in job.datasets:
            kind = self._classify_dataset(entry)
            if kind == "file":
                characterization = load_characterization(entry)
            elif kind == "missing-file":
                raise SessionError(f"dataset file not found: {entry}")
            else:
                # Not a file: characterize the named operator on the fly
                # through the cached sweep orchestrator.
                spec = self._dataset_operator(entry)
                flow = self.flow_for(spec)
                config = PatternConfig(
                    n_vectors=job.vectors,
                    width=spec.width,
                    seed=job.seed,
                    kind="uniform",
                )
                characterization = flow.run(
                    pattern=config,
                    keep_measurements=False,
                    jobs=self._jobs_for(job),
                    store=self._view,
                    policy=self._policy_for(job),
                    report=report,
                )
            characterizations[characterization.adder_name] = characterization
        summaries = {
            name: summarize_by_ber_range(characterization)
            for name, characterization in characterizations.items()
        }
        return Table4Result(
            characterizations=characterizations,
            summaries=summaries,
            execution=report,
        )

    def _run_fig5(self, job: Fig5Job) -> Fig5Result:
        spec = job.spec
        report = ExecutionReport()
        series = fig5_ber_per_bit(
            supply_voltages=tuple(job.supply_voltages),
            n_vectors=job.vectors,
            seed=job.seed,
            library=self._library,
            jobs=self._jobs_for(job),
            store=self._view,
            flow=self.flow_for(spec),
            policy=self._policy_for(job),
            report=report,
        )
        return Fig5Result(
            operator=spec.name,
            width=spec.width,
            series=tuple(series),
            execution=report,
        )

    def _run_calibrate(self, job: CalibrateJob) -> CalibrateResult:
        spec = job.spec
        flow = self.flow_for(spec)
        triad = job.triad()
        report = ExecutionReport()
        characterization = flow.run(
            triads=[triad],
            pattern=job.pattern.config(spec.width),
            jobs=self._jobs_for(job),
            store=self._view,
            policy=self._policy_for(job),
            report=report,
        )
        entry = characterization.results[0]
        measurement = characterization.measurement_for(triad)
        calibration = calibrate_probability_table(
            measurement.in1,
            measurement.in2,
            measurement.latched_words,
            spec.width,
            metric=job.metric,
        )
        if job.output:
            save_probability_table(calibration.table, job.output)
        return CalibrateResult(
            entry=entry,
            table=calibration.table,
            mean_best_distance=calibration.mean_best_distance,
            output=job.output,
            execution=report,
        )

    def _run_speculate(self, job: SpeculateJob) -> SpeculateResult:
        characterization = load_characterization(job.dataset)
        controller = DynamicSpeculationController(
            characterization, error_margin=job.margin
        )
        return SpeculateResult(
            characterization=characterization,
            margin=job.margin,
            accurate=controller.accurate_mode(),
            approximate=controller.approximate_mode(),
        )

    def _run_explore(self, job: ExploreJob) -> ExploreResult:
        space = job.space()
        notes = [
            f"note: window {window} does not fit width {width} "
            f"(needs window < width); spa{width}w{window} is not in the space"
            for width, window in space.skipped_windows()
        ]
        variation = job.variation_config()
        expected_robust = (
            None
            if variation is None
            else robust_tag(variation, job.robust_quantile)
        )
        resume, drop_note = self._load_resume_frontier(
            job.frontier, job.vectors, job.seed, expected_robust
        )
        if drop_note:
            notes.append(drop_note)
        report = ExecutionReport()
        evaluator = CandidateEvaluator(
            space,
            library=self._library,
            jobs=self._jobs_for(job),
            store=self._view,
            seed=job.seed,
            sta_margin=self._sta_margin,
            variation=variation,
            robust_quantile=(
                job.robust_quantile if job.robust_quantile is not None else 0.95
            ),
            policy=self._policy_for(job),
            report=report,
        )
        result = run_search(
            space,
            job.strategy,
            evaluator,
            seed=job.seed,
            budget=job.budget,
            full_vectors=job.vectors,
            screen_vectors=job.screen_vectors,
            resume=resume,
        )
        ranked = ranked_configurations(
            result.frontier, max_ber=job.max_ber, top_n=job.top
        )
        if job.frontier:
            result.frontier.save(job.frontier)
        return ExploreResult(
            search=result,
            ranked=tuple(ranked),
            notes=tuple(notes),
            frontier_path=job.frontier,
            execution=report,
        )

    @staticmethod
    def _load_resume_frontier(
        path: str | None,
        full_vectors: int,
        seed: int,
        robust: str | None,
    ) -> tuple[ParetoFrontier | None, str | None]:
        """Load a frontier file for resume, keeping one measurement per run.

        Points measured on a different stimulus (size, seed or pattern kind)
        or under a different scoring identity (nominal vs robust
        quantile-BER, or a different Monte Carlo configuration) are dropped
        with a note: a nominal BER is systematically lower than a quantile
        BER over sampled dies, so letting the two compete -- like letting a
        noisy low-vector point compete -- could evict this run's
        measurements from the frontier.
        """
        if not path:
            return None, None
        try:
            loaded = ParetoFrontier.load_or_empty(path)
        except Exception as error:  # corrupt/truncated JSON, wrong schema ...
            raise SessionError(
                f"cannot resume from frontier file {path}: {error}"
            ) from None
        matching = [
            point
            for point in loaded
            if point.n_vectors == full_vectors
            and point.seed == seed
            and point.pattern_kind == "uniform"
            and point.robust == robust
        ]
        dropped = len(loaded) - len(matching)
        note = None
        if dropped:
            note = (
                f"note: dropped {dropped} frontier point(s) measured on a "
                f"different stimulus or scoring than --vectors {full_vectors} "
                f"--seed {seed} "
                + (f"--robust-quantile (tag {robust})" if robust else "(nominal)")
            )
        return ParetoFrontier(matching), note

    def _run_montecarlo(self, job: MonteCarloJob) -> MonteCarloResult:
        spec = job.spec
        flow = self.flow_for(spec)
        config = job.config()
        pattern = job.pattern.config(spec.width)
        grid = supply_scaling_grid(flow, tuple(job.supply_voltages))
        in1, in2 = generate_patterns(pattern)
        report = ExecutionReport()
        results = run_montecarlo_sweep(
            flow.adder,
            grid,
            in1,
            in2,
            sweep_module.pattern_stimulus(pattern),
            config=config,
            library=self._library,
            jobs=self._jobs_for(job),
            store=self._view,
            policy=self._policy_for(job),
            report=report,
        )
        return MonteCarloResult(
            operator=flow.adder.name,
            config=config,
            n_vectors=pattern.n_vectors,
            margin=job.margin,
            results=tuple(results),
            execution=report,
        )

    def _run_faults(self, job: FaultSweepJob) -> FaultSweepResult:
        spec = job.spec
        circuit = self.flow_for(spec).adder
        pattern = job.pattern.config(spec.width)
        in1, in2 = generate_patterns(pattern)
        report = ExecutionReport()
        results = sweep_module.run_fault_sweep(
            circuit,
            in1,
            in2,
            sweep_module.pattern_stimulus(pattern),
            jobs=self._jobs_for(job),
            store=self._view,
            policy=self._policy_for(job),
            report=report,
        )
        return FaultSweepResult(
            operator=circuit.name,
            n_vectors=pattern.n_vectors,
            results=tuple(results),
            summary=summarize_fault_results(results),
            execution=report,
        )

    def _run_store_stats(self, job: StoreStatsJob) -> StoreStatsResult:
        store = self._require_store()
        return StoreStatsResult(
            root=str(store.root),
            stats=store.disk_stats(),
            io_errors=store.stats.io_errors,
        )

    def _run_store_verify(self, job: StoreVerifyJob) -> StoreVerifyResult:
        store = self._require_store()
        return StoreVerifyResult(root=str(store.root), report=store.verify())

    def _run_store_prune(self, job: StorePruneJob) -> StorePruneResult:
        store = self._require_store()
        max_entries = 0 if job.prune_all else job.max_entries
        removed = store.prune(max_entries=max_entries, max_bytes=job.max_bytes)
        return StorePruneResult(
            root=str(store.root), removed=removed, stats=store.disk_stats()
        )

    # -- batch planning and execution ------------------------------------------

    def run_batch(self, jobs: Sequence[Job]) -> BatchResult:
        """Run a set of jobs with cross-job sweep deduplication.

        The plannable sweep units of every job are fingerprinted with the
        orchestrator's own content addresses, deduplicated, and the cold
        union lowers into one sharded executor pass per (circuit, stimulus)
        group; the jobs then execute in order against the warm session
        overlay.  Per-job results come back in input order together with a
        :class:`BatchReport`.  Every sweep of the batch dispatches to one
        worker pool, forked on first use and reaped before this call
        returns.
        """
        job_list = list(jobs)
        if not job_list:
            raise ValueError("run_batch needs at least one job")
        with self._lock, pool_scope():
            with activated(self._tracer):
                with span("session", jobs=len(job_list)) as session_span:
                    return self._run_batch_body(job_list, session_span)

    def _run_batch_body(self, job_list: list[Job], session_span: Any) -> BatchResult:
        start = sweep_module.simulated_unit_count()
        execution = ExecutionReport()
        planned, deduped, cache_hits = self._execute_plan(job_list, execution)
        session_span.set(planned=planned, deduped=deduped, cache_hits=cache_hits)
        metrics.REGISTRY.counter("batch.planned_units").add(planned)
        metrics.REGISTRY.counter("batch.deduped_units").add(deduped)
        metrics.REGISTRY.counter("batch.cache_hits").add(cache_hits)
        results = tuple(self.run(job) for job in job_list)
        for result in results:
            sub_report = getattr(result, "execution", None)
            if sub_report is not None:
                execution.merge(sub_report)
        report = BatchReport(
            jobs=len(job_list),
            planned_units=planned,
            deduped_units=deduped,
            cache_hits=cache_hits,
            simulated_units=sweep_module.simulated_unit_count() - start,
            execution=execution,
        )
        return BatchResult(results=results, report=report)

    def _sweep_requests(self, job: Job) -> list[_SweepRequest]:
        """The plannable characterization sweeps of one job (possibly none).

        Monte Carlo ranges, fault campaigns and search-driven exploration
        sweeps are not pre-planned (their work sets are either keyed
        differently or depend on intermediate results); they deduplicate
        through the shared session overlay at execution time instead.
        """
        worker_count = self._jobs_for(job)
        job_policy = self._policy_for(job)
        if isinstance(job, CharacterizeJob):
            spec = job.spec
            flow = self.flow_for(spec)
            return [
                _SweepRequest(
                    spec=spec,
                    pattern=job.pattern.config(spec.width),
                    triads=tuple(flow.default_triad_grid()),
                    keep_latched=job.keep_measurements,
                    jobs=worker_count,
                    policy=job_policy,
                )
            ]
        if isinstance(job, Fig5Job):
            spec = job.spec
            flow = self.flow_for(spec)
            nominal = flow.nominal_clock_period()
            return [
                _SweepRequest(
                    spec=spec,
                    pattern=PatternConfig(
                        n_vectors=job.vectors,
                        width=spec.width,
                        seed=job.seed,
                        kind="uniform",
                    ),
                    triads=tuple(
                        OperatingTriad(tclk=nominal, vdd=vdd, vbb=0.0)
                        for vdd in job.supply_voltages
                    ),
                    keep_latched=False,
                    jobs=worker_count,
                    policy=job_policy,
                )
            ]
        if isinstance(job, Table4Job):
            requests = []
            for entry in job.datasets:
                if self._classify_dataset(entry) != "operator":
                    continue
                try:
                    spec = parse_circuit_spec(entry)
                except ValueError:
                    continue  # the job run reports the malformed name
                flow = self.flow_for(spec)
                requests.append(
                    _SweepRequest(
                        spec=spec,
                        pattern=PatternConfig(
                            n_vectors=job.vectors,
                            width=spec.width,
                            seed=job.seed,
                            kind="uniform",
                        ),
                        triads=tuple(flow.default_triad_grid()),
                        keep_latched=False,
                        jobs=worker_count,
                        policy=job_policy,
                    )
                )
            return requests
        if isinstance(job, CalibrateJob):
            spec = job.spec
            return [
                _SweepRequest(
                    spec=spec,
                    pattern=job.pattern.config(spec.width),
                    triads=(job.triad(),),
                    keep_latched=True,
                    jobs=worker_count,
                    policy=job_policy,
                )
            ]
        return []

    def _execute_plan(
        self, jobs: Sequence[Job], report: ExecutionReport | None = None
    ) -> tuple[int, int, int]:
        """Dedup the jobs' sweep units and pre-run the cold union.

        Each merged group runs under the policy of the first contributing
        request (requests already fold in the session default), and the
        optional ``report`` accumulates fault-recovery accounting across
        every pre-run group.  Returns ``(planned_units, deduped_units,
        cache_hits)``.
        """
        base_cache: dict[tuple[OperatorSpec, PatternConfig], Mapping[str, Any]] = {}
        merged: dict[str, _MergedSweep] = {}
        planned = 0
        seen_keys: set[str] = set()

        for job in jobs:
            for request in self._sweep_requests(job):
                identity = (request.spec, request.pattern)
                base = base_cache.get(identity)
                if base is None:
                    base = sweep_module.characterization_key_components(
                        self.flow_for(request.spec).adder,
                        self._library,
                        sweep_module.pattern_stimulus(request.pattern),
                    )
                    base_cache[identity] = base
                group_key = SweepResultStore.entry_key(dict(base))
                group = merged.get(group_key)
                if group is None:
                    group = _MergedSweep(request.spec, request.pattern)
                    merged[group_key] = group
                group.jobs = max(group.jobs, request.jobs)
                if group.policy is None:
                    group.policy = request.policy
                for triad in request.triads:
                    planned += 1
                    key = sweep_module.characterization_entry_key(base, triad)
                    seen_keys.add(key)
                    current = group.triads.get(key)
                    if current is None:
                        group.triads[key] = (triad, request.keep_latched)
                    elif request.keep_latched and not current[1]:
                        group.triads[key] = (triad, True)

        deduped = planned - len(seen_keys)
        cache_hits = 0
        for group in merged.values():
            n_vectors = group.pattern.n_vectors
            missing: dict[bool, list[OperatingTriad]] = {False: [], True: []}
            for key, (triad, keep_latched) in group.triads.items():
                payload = self._view.get(key)
                if sweep_module.payload_usable(payload, n_vectors, keep_latched):
                    cache_hits += 1
                else:
                    missing[keep_latched].append(triad)
            if not any(missing.values()):
                continue
            flow = self.flow_for(group.spec)
            in1, in2 = generate_patterns(group.pattern)
            for keep_latched, triads in missing.items():
                if not triads:
                    continue
                sweep_module.run_characterization_sweep(
                    flow.adder,
                    TriadGrid(triads),
                    in1,
                    in2,
                    sweep_module.pattern_stimulus(group.pattern),
                    library=self._library,
                    jobs=group.jobs,
                    store=self._view,
                    keep_latched=keep_latched,
                    testbench=flow.testbench,
                    policy=group.policy,
                    report=report,
                )
        return planned, deduped, cache_hits


_HANDLERS = {
    SynthesizeJob: Session._run_synthesize,
    CharacterizeJob: Session._run_characterize,
    Table4Job: Session._run_table4,
    Fig5Job: Session._run_fig5,
    CalibrateJob: Session._run_calibrate,
    SpeculateJob: Session._run_speculate,
    ExploreJob: Session._run_explore,
    MonteCarloJob: Session._run_montecarlo,
    FaultSweepJob: Session._run_faults,
    StoreStatsJob: Session._run_store_stats,
    StoreVerifyJob: Session._run_store_verify,
    StorePruneJob: Session._run_store_prune,
}
