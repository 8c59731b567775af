"""The Session: one programmatic facade for every workflow.

A :class:`Session` owns the execution substrate every workflow shares -- the
standard-cell library, the (optional) persistent
:class:`~repro.core.store.SweepResultStore` behind a session-lifetime
:class:`~repro.core.store.MemoryOverlayStore`, the default worker-process
policy, and a bounded cache of built circuits/characterization flows -- and
exposes exactly two entry points:

* :meth:`Session.run` runs one declarative job (:mod:`repro.api.jobs`) and
  returns a typed result (:mod:`repro.api.results`).  The CLI is a thin
  adapter over this: parse args, build the job, ``session.run``, print
  ``result.render()``.
* :meth:`Session.run_batch` runs a set of jobs together.

Both run one sweep plan.  Each sweep job declares its sweeps once --
characterization triads, Monte Carlo ``(triad, sample range)`` entries,
fault sites -- as requests to the planner of :mod:`repro.core.sweep`, which
keys every unit once with its store key, deduplicates units across jobs,
and runs each (circuit, stimulus, kind) group through one sweep.  Each job
then builds its result from the plan's payloads.  Overlapping jobs
(``characterize`` + ``fig5`` + ``table4`` over the same adders, or two
Monte Carlo runs of one die population) therefore perform **zero** repeated
simulations, which the :class:`BatchReport`'s
planned/deduped/cache-hit/simulated counters make observable (and the test
suite asserts via :func:`repro.core.sweep.simulated_unit_count`).
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import threading
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.analysis.faults import summarize_fault_results
from repro.analysis.figures import Fig5Series
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
from repro.api.options import PatternOptions, StoreOptions
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
from repro.core.characterization import (
    CharacterizationFlow,
    FlowCache,
    characterization_from_payloads,
)
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
from repro.core.sweep import SweepRequest
from repro.explore.evaluator import CandidateEvaluator, robust_tag
from repro.explore.frontier import ParetoFrontier
from repro.explore.search import run_search
from repro.obs.report import RunReport
from repro.obs.trace import Tracer, activated, active_tracer, span
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.synthesis.synthesize import synthesize
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary
from repro.variation.montecarlo import (
    montecarlo_request,
    supply_scaling_grid,
    variation_results_from_payloads,
)

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
        Units of the batch's sweeps, *with* multiplicity -- one unit is one
        simulation a job would perform on its own: a characterization
        triad, a Monte Carlo ``(triad, sample range)`` entry or a fault
        site.
    deduped_units:
        Units sharing a store key with another unit of their plan: work
        the sweep plan eliminated outright.
    cache_hits:
        Distinct planned units already warm in the session store: those a
        plan did not have to simulate.
    simulated_units:
        Work units actually simulated by the whole batch.

    All four count every sweep plan the batch runs -- the batch's own and
    each explore job's search steps -- so ``planned_units - deduped_units
    - cache_hits`` equals ``simulated_units`` for every batch.  Units are
    deduplicated within one plan; an explore step's units the batch plan
    already ran are cache hits from the session overlay.  The counts are
    deltas of the planner's process-wide counters
    (:func:`repro.core.sweep.unit_counts`): accurate for the
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


class _Sweep(NamedTuple):
    """One sweep a job declares (see :meth:`Session._declare`): the
    planner's request and the builder of the job's share of the result
    from the request's payloads."""

    request: SweepRequest
    build: Callable[[list[dict[str, Any]]], Any]


class _JobPlan(NamedTuple):
    """A handler's share of the plan: one built result per sweep the job
    declared, in declaration order, and the report its result carries."""

    sweeps: list[Any]
    execution: ExecutionReport


class Session:
    """Shared execution context for the typed job API.

    A session is single-threaded state (flow cache, store overlay, batch
    accounting): run one job or batch at a time.  :meth:`run` and
    :meth:`run_batch` serialize through a reentrant lock, so a
    multi-threaded front-end (the characterization service of
    :mod:`repro.serve` funnels every batch window through one session) may
    share a session -- calls from other threads simply queue.  For
    *parallel* execution give each thread its own session -- they can
    safely share one on-disk store, whose entries are content-addressed and
    written atomically.

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
        with self._lock, pool_scope():
            if active_tracer() is not None:
                # Called from another traced scope: the session span is
                # already open; contribute only the job span.
                return self._run_job(job)
            with activated(self._tracer):
                with span("session", jobs=1):
                    return self._run_job(job)

    def _run_job(self, job: Job, sweeps: list[Any] | None = None) -> Any:
        """Execute one job under a ``job`` span and attach its RunReport.

        ``sweeps`` are the job's declared sweeps as :meth:`run_batch`'s
        plan built them; ``None`` runs the job's own plan inside the
        ``job`` span.
        """
        try:
            handler = _HANDLERS[type(job)]
        except KeyError:
            raise TypeError(f"unknown job type {type(job).__name__!r}") from None
        units_before = sweep_module.simulated_unit_count()
        store = self._view.backing
        store_before = store.stats._values() if store is not None else None
        execution = ExecutionReport()
        with span("job", type=type(job).__name__):
            try:
                if sweeps is None:
                    [sweeps] = self._run_plan([job], execution)
                result = handler(self, job, _JobPlan(sweeps, execution))
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

    def _run_synthesize(self, job: SynthesizeJob, plan: _JobPlan) -> SynthesizeResult:
        # Synthesis only needs the netlists: build them directly instead of
        # through flow_for, which would compile a timing-simulation plan per
        # operator (and churn the flow cache) for a report that runs none.
        reports = tuple(
            synthesize(spec.build().netlist, library=self._library)
            for spec in job.specs
        )
        return SynthesizeResult(reports=reports)

    def _run_characterize(
        self, job: CharacterizeJob, plan: _JobPlan
    ) -> CharacterizeResult:
        [characterization] = plan.sweeps
        if job.output:
            save_characterization(characterization, job.output)
        return CharacterizeResult(
            characterization=characterization,
            output=job.output,
            execution=plan.execution,
        )

    @staticmethod
    def _classify_dataset(entry: str) -> str:
        """Classify a Table IV dataset entry.

        ``"file"`` -- an existing characterization JSON file;
        ``"missing-file"`` -- clearly meant as a file path (operator names
        are bare alnum tokens) but absent; ``"operator"`` -- an operator
        name to characterize on the fly.
        """
        if pathlib.Path(entry).is_file():
            return "file"
        if "." in entry or "/" in entry:
            return "missing-file"
        return "operator"

    def _run_table4(self, job: Table4Job, plan: _JobPlan) -> Table4Result:
        # The declaration rejected missing files and swept every operator
        # name, in entry order.
        swept = iter(plan.sweeps)
        characterizations = {}
        for entry in job.datasets:
            if self._classify_dataset(entry) == "file":
                characterization = load_characterization(entry)
            else:
                characterization = next(swept)
            characterizations[characterization.adder_name] = characterization
        summaries = {
            name: summarize_by_ber_range(characterization)
            for name, characterization in characterizations.items()
        }
        return Table4Result(
            characterizations=characterizations,
            summaries=summaries,
            execution=plan.execution,
        )

    def _run_fig5(self, job: Fig5Job, plan: _JobPlan) -> Fig5Result:
        spec = job.spec
        [characterization] = plan.sweeps
        return Fig5Result(
            operator=spec.name,
            width=spec.width,
            series=tuple(
                Fig5Series(vdd=vdd, ber_per_bit=entry.bitwise_error)
                for vdd, entry in zip(job.supply_voltages, characterization.results)
            ),
            execution=plan.execution,
        )

    def _run_calibrate(self, job: CalibrateJob, plan: _JobPlan) -> CalibrateResult:
        [characterization] = plan.sweeps
        [entry] = characterization.results
        [measurement] = characterization.measurements
        calibration = calibrate_probability_table(
            measurement.in1,
            measurement.in2,
            measurement.latched_words,
            job.spec.width,
            metric=job.metric,
        )
        if job.output:
            save_probability_table(calibration.table, job.output)
        return CalibrateResult(
            entry=entry,
            table=calibration.table,
            mean_best_distance=calibration.mean_best_distance,
            output=job.output,
            execution=plan.execution,
        )

    def _run_speculate(self, job: SpeculateJob, plan: _JobPlan) -> SpeculateResult:
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

    def _run_explore(self, job: ExploreJob, plan: _JobPlan) -> ExploreResult:
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
            report=plan.execution,
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
            execution=plan.execution,
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

    def _run_montecarlo(self, job: MonteCarloJob, plan: _JobPlan) -> MonteCarloResult:
        [results] = plan.sweeps
        return MonteCarloResult(
            operator=self.flow_for(job.spec).adder.name,
            config=job.config(),
            n_vectors=job.pattern.config(job.spec.width).n_vectors,
            margin=job.margin,
            results=tuple(results),
            execution=plan.execution,
        )

    def _run_faults(self, job: FaultSweepJob, plan: _JobPlan) -> FaultSweepResult:
        [results] = plan.sweeps
        return FaultSweepResult(
            operator=self.flow_for(job.spec).adder.name,
            n_vectors=job.pattern.config(job.spec.width).n_vectors,
            results=tuple(results),
            summary=summarize_fault_results(results),
            execution=plan.execution,
        )

    def _run_store_stats(self, job: StoreStatsJob, plan: _JobPlan) -> StoreStatsResult:
        store = self._require_store()
        return StoreStatsResult(
            root=str(store.root),
            stats=store.disk_stats(),
            io_errors=store.stats.io_errors,
        )

    def _run_store_verify(
        self, job: StoreVerifyJob, plan: _JobPlan
    ) -> StoreVerifyResult:
        store = self._require_store()
        return StoreVerifyResult(root=str(store.root), report=store.verify())

    def _run_store_prune(self, job: StorePruneJob, plan: _JobPlan) -> StorePruneResult:
        store = self._require_store()
        max_entries = 0 if job.prune_all else job.max_entries
        removed = store.prune(max_entries=max_entries, max_bytes=job.max_bytes)
        return StorePruneResult(
            root=str(store.root), removed=removed, stats=store.disk_stats()
        )

    # -- the sweep plan --------------------------------------------------------

    def _declare(
        self,
        job: Job,
        operands: dict[PatternConfig, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> list[_Sweep]:
        """The sweeps ``job`` runs (possibly none).

        The one statement of each sweep job's units: :meth:`_run_plan` hands
        their requests to the planner, and the job's handler gets each
        sweep's result, built from its payloads.  ``operands`` caches the
        generated operands by pattern, so the jobs of one plan that share a
        stimulus pass the same arrays and so share sweeps.  A Table IV entry
        naming a missing file or a malformed operator raises
        :class:`SessionError` here, before any simulation.  An explore job
        declares none: each step of its search is a plan of its own (see
        :meth:`~repro.explore.evaluator.CandidateEvaluator.evaluate_many`),
        whose units the session overlay answers when this plan ran them.
        """
        operands = {} if operands is None else operands
        jobs, policy = self._jobs_for(job), self._policy_for(job)

        def stimulus(spec: OperatorSpec, pattern: PatternConfig) -> tuple:
            if pattern not in operands:
                operands[pattern] = generate_patterns(pattern)
            in1, in2 = operands[pattern]
            return self.flow_for(spec), in1, in2, sweep_module.pattern_stimulus(pattern)

        def characterization(
            spec: OperatorSpec, pattern: PatternConfig, triads: Any, keep: bool
        ) -> _Sweep:
            flow, in1, in2, described = stimulus(spec, pattern)
            request = sweep_module.characterization_request(
                flow.adder,
                triads,
                in1,
                in2,
                described,
                library=self._library,
                keep_latched=keep,
                jobs=jobs,
                policy=policy,
                simulator=flow.testbench,
            )
            return _Sweep(
                request,
                lambda payloads: characterization_from_payloads(
                    flow.adder,
                    payloads,
                    in1,
                    in2,
                    keep_measurements=keep,
                    pattern_kind=pattern.kind,
                    seed=pattern.seed,
                ),
            )

        if isinstance(job, Table4Job):
            options = PatternOptions(vectors=job.vectors, seed=job.seed)
            sweeps = []
            for entry in job.datasets:
                kind = self._classify_dataset(entry)
                if kind == "missing-file":
                    raise SessionError(f"dataset file not found: {entry}")
                if kind == "file":
                    continue
                try:
                    spec = parse_circuit_spec(entry)
                except ValueError as error:
                    raise SessionError(str(error)) from None
                grid = self.flow_for(spec).default_triad_grid()
                sweeps.append(
                    characterization(spec, options.config(spec.width), grid, False)
                )
            return sweeps
        if not isinstance(
            job, (CharacterizeJob, Fig5Job, CalibrateJob, MonteCarloJob, FaultSweepJob)
        ):
            return []
        spec = job.spec
        if isinstance(job, Fig5Job):
            options = PatternOptions(vectors=job.vectors, seed=job.seed)
            triads = self.flow_for(spec).supply_scaling_triads(job.supply_voltages)
            return [characterization(spec, options.config(spec.width), triads, False)]
        pattern = job.pattern.config(spec.width)
        if isinstance(job, CharacterizeJob):
            grid = self.flow_for(spec).default_triad_grid()
            return [characterization(spec, pattern, grid, job.keep_measurements)]
        if isinstance(job, CalibrateJob):
            return [characterization(spec, pattern, [job.triad()], True)]
        flow, in1, in2, described = stimulus(spec, pattern)
        if isinstance(job, FaultSweepJob):
            request = sweep_module.fault_request(
                flow.adder, in1, in2, described, jobs=jobs, policy=policy
            )
            to_result = sweep_module.payload_to_fault_result
            return [_Sweep(request, lambda payloads: list(map(to_result, payloads)))]
        triads = list(supply_scaling_grid(flow, job.supply_voltages))
        request = montecarlo_request(
            flow.adder,
            triads,
            in1,
            in2,
            described,
            config=job.config(),
            library=self._library,
            jobs=jobs,
            policy=policy,
        )
        return [
            _Sweep(request, functools.partial(variation_results_from_payloads, triads))
        ]

    def _run_plan(
        self, jobs: Sequence[Job], report: ExecutionReport
    ) -> list[list[Any]]:
        """Run the declared sweeps of ``jobs`` as one plan.

        The planner (:func:`~repro.core.sweep.run_sweep_plan`) keys every
        declared unit once, dedups units across all sweeps and runs each
        group once, accumulating its fault-recovery accounting into
        ``report``.  Returns each job's built sweeps (one per declared
        sweep, in declaration order).
        """
        operands: dict[PatternConfig, tuple[np.ndarray, np.ndarray]] = {}
        declared = [self._declare(job, operands) for job in jobs]
        payloads = iter(
            sweep_module.run_sweep_plan(
                [sweep.request for sweeps in declared for sweep in sweeps],
                store=self._view,
                report=report,
            )
        )
        return [[sweep.build(next(payloads)) for sweep in job] for job in declared]

    # -- batch execution -------------------------------------------------------

    def run_batch(self, jobs: Sequence[Job]) -> BatchResult:
        """Run a set of jobs with cross-job sweep deduplication.

        The sweeps every job declares run as one plan (see
        :meth:`_run_plan`) in the ``session`` span; each job then builds its
        result from the plan's payloads in its own ``job`` span, and an
        explore job runs one plan per search step there.  Per-job results
        come back in input order together with a :class:`BatchReport` that
        counts every plan.  Every
        sweep of the batch dispatches to one worker pool, forked on first
        use and reaped before this call returns.  A sweep that exhausts its
        fault-recovery options surfaces as a :class:`SessionError`, as in
        :meth:`run`.
        """
        job_list = list(jobs)
        if not job_list:
            raise ValueError("run_batch needs at least one job")
        with self._lock, pool_scope():
            with activated(self._tracer):
                with span("session", jobs=len(job_list)) as session_span:
                    try:
                        return self._run_batch_body(job_list, session_span)
                    except ShardExecutionError as error:
                        raise SessionError(f"sweep execution failed: {error}") from None

    def _run_batch_body(self, job_list: list[Job], session_span: Any) -> BatchResult:
        start = sweep_module.unit_counts()
        execution = ExecutionReport()
        swept = self._run_plan(job_list, execution)
        results = tuple(map(self._run_job, job_list, swept))
        for result in results:
            sub_report = getattr(result, "execution", None)
            if sub_report is not None:
                execution.merge(sub_report)
        counts = {
            name: count - start[name]
            for name, count in sweep_module.unit_counts().items()
        }
        session_span.set(
            planned=counts["planned_units"],
            deduped=counts["deduped_units"],
            cache_hits=counts["cache_hits"],
        )
        report = BatchReport(jobs=len(job_list), **counts, execution=execution)
        return BatchResult(results=results, report=report)


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
