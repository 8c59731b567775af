"""Command-line interface for the reproduction library.

The CLI is a thin adapter over the typed Session/Job API
(:mod:`repro.api`): every command parses its arguments into a declarative
job object, runs it through one :class:`~repro.api.session.Session`, and
prints the typed result's rendering.  The commands:

* ``repro synthesize``      -- Table II style synthesis report,
* ``repro characterize``    -- characterize an adder over its triad grid and
  print the Fig. 8 series (optionally saving the JSON dataset),
* ``repro table4``          -- Table IV aggregation from characterization
  JSON files and/or adder names characterized on the fly,
* ``repro fig5``            -- per-bit BER profile of an adder under supply
  scaling,
* ``repro calibrate``       -- run Algorithm 1 at one triad and save the
  probability table,
* ``repro speculate``       -- report accurate/approximate operating modes
  for a given error margin,
* ``repro explore``         -- search the operator design space
  (architecture x width x speculation window x triads) for the BER/energy
  Pareto frontier (optionally robust under variation via
  ``--robust-quantile``),
* ``repro montecarlo``      -- Monte Carlo variation characterization: BER
  distributions and parametric yield vs supply voltage at a process corner,
* ``repro faults``          -- structural single-stuck-at fault campaign
  (coverage and highest-impact faults),
* ``repro batch``           -- run a JSON job-spec file through one session:
  sweep work units shared between jobs are deduplicated and simulated once,
* ``repro serve``           -- characterization-as-a-service: serve job
  submissions over HTTP through one session; a job submitted to an idle
  service runs at once, and jobs submitted while a window runs are batched
  into the next deduplicated sweep window (see :mod:`repro.serve`),
* ``repro store``           -- inspect (``stats``), verify (``verify``: fsck
  pass quarantining corrupt entries) and bound (``prune``) the on-disk
  sweep result store,
* ``repro trace``           -- inspect JSONL trace files recorded with
  ``--trace``: ``summary`` renders the per-phase time breakdown and the
  cache/dedup funnel, ``validate`` checks records against the trace schema,
* ``repro lint``            -- run the repo's AST invariant checker
  (:mod:`repro.lint`) over Python sources: determinism, resilience and
  async-discipline rules (``RPL0xx``), with inline suppressions and a
  committed baseline for grandfathered findings (exit 1 on new findings).

Sweep-running commands (``characterize``, ``fig5``, ``table4``,
``calibrate``, ``explore``, ``montecarlo``, ``faults``, ``batch``) execute
on the sharded orchestrator of :mod:`repro.core.sweep`: ``--jobs N`` fans
the triad grid out over N worker processes, and completed triads are
persisted in a content-addressed result store (``--cache-dir``, default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweeps``; disable with
``--no-cache``), so repeated invocations skip the timing simulation.
Results are bit-identical whatever the job count or cache state.

Sharded sweeps run on the fault-tolerant executor of
:mod:`repro.core.resilience`: ``--shard-timeout`` bounds each shard's
wall-clock, ``--max-retries`` bounds re-submission of crashed / timed-out /
corrupt shards, and ``--on-worker-failure`` picks the recovery action
(``retry``, ``split-and-retry``, ``serial-fallback``, ``fail``).  When a
sweep recovered from faults, a one-line execution report goes to stderr --
stdout stays byte-identical to a fault-free run.  Ctrl-C exits cleanly with
status 130; completed shards are already persisted, so the rerun resumes
warm.

Sweep-running commands also accept ``--trace PATH``: the run appends a
hierarchical span tree (session -> job -> sweep -> shard -> engine pass ->
store flush, including worker-process spans) to the JSONL file, viewable
with ``repro trace summary``.  Tracing never changes results: stdout and
store bytes are identical with and without ``--trace``.

``characterize``, ``table4``, ``fig5``, ``montecarlo`` and ``faults``
accept ``--json`` to emit the typed result object as JSON instead of the
text tables, so downstream tooling never scrapes the tables.

Run ``python -m repro.cli --help`` (or ``repro --help`` once installed) for
the full option list.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable, Sequence

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
    job_type_name,
    jobs_from_document,
)
from repro.api.options import PatternOptions, StoreOptions, SweepOptions
from repro.api.session import Session, SessionError
from repro.api.spec import parse_circuit_spec
from repro.lint import (
    DEFAULT_BASELINE_NAME,
    LintError,
    RULE_CODES,
    lint_paths,
    load_baseline,
    write_baseline,
)
from repro.obs.report import load_trace, summarize_trace, validate_trace
from repro.circuits.adders import ADDER_GENERATORS
from repro.core.resilience import FAILURE_ACTIONS
from repro.explore.search import SEARCH_STRATEGIES
from repro.simulation.patterns import PATTERN_GENERATORS
from repro.core.triad import PAPER_SUPPLY_VOLTAGES
from repro.technology.corners import GateVariationModel, ProcessCorner


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Voltage over-scaling characterization and modelling (DATE 2017 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    synth = subparsers.add_parser("synthesize", help="Table II style synthesis report")
    _add_adder_arguments(synth, multiple=True)

    characterize = subparsers.add_parser(
        "characterize", help="characterize an adder over its triad grid (Fig. 8 data)"
    )
    _add_adder_arguments(characterize)
    _add_pattern_arguments(characterize)
    _add_sweep_arguments(characterize)
    characterize.add_argument(
        "--output", help="write the characterization dataset to this JSON file"
    )
    _add_json_argument(characterize)

    table4 = subparsers.add_parser(
        "table4",
        help="Table IV aggregation from characterization JSON files or adder names",
    )
    table4.add_argument(
        "dataset",
        nargs="+",
        help="characterization JSON file(s) and/or adder names (e.g. rca8) "
        "to characterize on the fly",
    )
    table4.add_argument("--vectors", type=int, default=4000, help="stimulus vectors")
    table4.add_argument("--seed", type=int, default=2017, help="stimulus seed")
    _add_sweep_arguments(table4)
    _add_json_argument(table4)

    fig5 = subparsers.add_parser("fig5", help="per-bit BER profile under supply scaling")
    _add_adder_arguments(fig5)
    fig5.add_argument(
        "--vdd",
        type=float,
        nargs="+",
        default=[0.8, 0.7, 0.6, 0.5],
        help="supply voltages to sweep",
    )
    fig5.add_argument("--vectors", type=int, default=4000, help="stimulus vectors")
    _add_sweep_arguments(fig5)
    _add_json_argument(fig5)

    calibrate = subparsers.add_parser(
        "calibrate", help="run Algorithm 1 at one triad and save the probability table"
    )
    _add_adder_arguments(calibrate)
    _add_pattern_arguments(calibrate)
    _add_sweep_arguments(calibrate)
    calibrate.add_argument("--tclk-ns", type=float, required=True, help="clock period (ns)")
    calibrate.add_argument("--vdd", type=float, required=True, help="supply voltage (V)")
    calibrate.add_argument("--vbb", type=float, default=0.0, help="body-bias voltage (V)")
    calibrate.add_argument(
        "--metric",
        choices=("mse", "hamming", "weighted_hamming"),
        default="mse",
        help="calibration distance metric",
    )
    calibrate.add_argument("--output", required=True, help="output JSON file for the table")

    speculate = subparsers.add_parser(
        "speculate", help="accurate/approximate modes for an error margin"
    )
    speculate.add_argument("dataset", help="characterization JSON file")
    speculate.add_argument(
        "--margin", type=float, default=0.10, help="BER tolerance (fraction, default 0.10)"
    )

    explore = subparsers.add_parser(
        "explore",
        help="search the operator design space for the BER/energy Pareto frontier",
    )
    explore.add_argument(
        "--architectures",
        nargs="+",
        choices=sorted(ADDER_GENERATORS),
        default=["rca", "bka"],
        help="adder architectures spanned by the space",
    )
    explore.add_argument(
        "--widths",
        type=int,
        nargs="+",
        default=[8, 16],
        help="operand widths in bits (e.g. 8 16 32)",
    )
    explore.add_argument(
        "--windows",
        nargs="+",
        default=["none"],
        help="speculation windows; 'none' selects the plain architectures, "
        "integers add the speculative carry-window operator (e.g. none 4 8)",
    )
    explore.add_argument(
        "--clock-scales",
        type=float,
        nargs="+",
        default=None,
        help="clock periods as fractions of each candidate's guard-banded "
        "critical path (default: the matched Table III grid)",
    )
    explore.add_argument(
        "--vdd",
        type=float,
        nargs="+",
        default=None,
        help="supply voltages of the dense grid (with --clock-scales)",
    )
    explore.add_argument(
        "--vbb",
        type=float,
        nargs="+",
        default=None,
        help="body-bias voltages of the dense grid (with --clock-scales)",
    )
    explore.add_argument(
        "--strategy",
        choices=sorted(SEARCH_STRATEGIES),
        default="successive-halving",
        help="search strategy",
    )
    explore.add_argument(
        "--budget",
        type=int,
        default=None,
        help="maximum paper-fidelity candidate evaluations (default: unbounded)",
    )
    explore.add_argument("--seed", type=int, default=2017, help="sampling/stimulus seed")
    explore.add_argument(
        "--vectors", type=int, default=4000, help="paper-fidelity stimulus vectors"
    )
    explore.add_argument(
        "--screen-vectors",
        type=int,
        default=None,
        help="screening stimulus vectors (default: max(200, vectors // 8))",
    )
    explore.add_argument(
        "--max-ber",
        type=float,
        default=None,
        help="BER budget (fraction) applied to the ranked report",
    )
    explore.add_argument(
        "--top", type=int, default=10, help="rows of the ranked-configuration table"
    )
    explore.add_argument(
        "--frontier",
        help="frontier JSON file: loaded (resume) when present, always written",
    )
    explore.add_argument(
        "--robust-quantile",
        type=float,
        default=None,
        help="score candidates by this BER quantile over Monte Carlo "
        "variation samples instead of nominal BER (e.g. 0.95); on "
        "--frontier resume, points scored differently are dropped",
    )
    explore.add_argument(
        "--robust-samples",
        type=int,
        default=None,
        help="Monte Carlo samples per candidate for robust scoring "
        "(default 32; requires --robust-quantile)",
    )
    _add_sweep_arguments(explore)

    montecarlo = subparsers.add_parser(
        "montecarlo",
        help="Monte Carlo variation characterization: BER distributions and "
        "yield vs Vdd under sampled per-gate mismatch",
    )
    _add_adder_arguments(montecarlo)
    _add_pattern_arguments(montecarlo)
    _add_sweep_arguments(montecarlo)
    montecarlo.add_argument(
        "--corner",
        choices=[corner.value for corner in ProcessCorner],
        default=ProcessCorner.TYPICAL.value,
        help="process corner the mismatch is sampled around (default TT)",
    )
    montecarlo.add_argument(
        "--samples", type=int, default=64, help="Monte Carlo samples (dies)"
    )
    montecarlo.add_argument(
        "--sigma-vt",
        type=float,
        default=GateVariationModel().sigma_vt,
        help="per-gate threshold-voltage mismatch sigma in volts",
    )
    montecarlo.add_argument(
        "--sigma-current",
        type=float,
        default=GateVariationModel().sigma_current_factor,
        help="per-gate relative current-factor mismatch sigma",
    )
    montecarlo.add_argument(
        "--margin",
        type=float,
        default=0.02,
        help="BER margin (fraction) the yield is evaluated against",
    )
    montecarlo.add_argument(
        "--vdd",
        type=float,
        nargs="+",
        default=list(PAPER_SUPPLY_VOLTAGES),
        help="supply voltages of the yield sweep (matched nominal clock, "
        "no body bias)",
    )
    _add_json_argument(montecarlo)

    faults = subparsers.add_parser(
        "faults",
        help="structural single-stuck-at fault campaign (coverage report)",
    )
    _add_adder_arguments(faults)
    _add_pattern_arguments(faults)
    _add_sweep_arguments(faults)
    _add_json_argument(faults)

    batch = subparsers.add_parser(
        "batch",
        help="run a JSON job-spec file through one session with cross-job "
        "sweep deduplication",
    )
    batch.add_argument(
        "jobs_file",
        help="JSON file: a list of job documents or {'jobs': [...]} "
        "(each document carries a 'type' tag, e.g. 'characterize')",
    )
    _add_sweep_arguments(batch)

    serve = subparsers.add_parser(
        "serve",
        help="serve job submissions over HTTP: an async admission queue "
        "batching concurrent requests into deduplicated session windows",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port; 0 picks a free port (printed on the readiness line)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="most jobs dispatched per batch window; jobs queued while a "
        "window runs form the next one (default: 16)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=20.0,
        help="sustained admissions per second per client (default: 20)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=40,
        help="admission burst per client before 429s (default: 40)",
    )
    serve.add_argument(
        "--hot-entries",
        type=int,
        default=256,
        help="finished results kept in the in-memory hot tier in front of "
        "the store; 0 disables it (default: 256)",
    )
    _add_sweep_arguments(serve)

    store = subparsers.add_parser(
        "store", help="inspect and bound the on-disk sweep result store"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_stats = store_commands.add_parser(
        "stats", help="entry count and on-disk footprint of the store"
    )
    _add_store_dir_argument(store_stats)
    _add_json_argument(store_stats)
    store_verify = store_commands.add_parser(
        "verify", help="fsck pass: validate every entry, quarantine corrupt ones"
    )
    _add_store_dir_argument(store_verify)
    store_prune = store_commands.add_parser(
        "prune", help="delete oldest entries until the store fits the limits"
    )
    _add_store_dir_argument(store_prune)
    store_prune.add_argument(
        "--max-entries", type=int, default=None, help="keep at most this many entries"
    )
    store_prune.add_argument(
        "--max-bytes", type=int, default=None, help="keep at most this many bytes"
    )
    store_prune.add_argument(
        "--all", action="store_true", help="delete every entry (same as --max-entries 0)"
    )

    trace = subparsers.add_parser(
        "trace", help="inspect JSONL trace files recorded with --trace"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_commands.add_parser(
        "summary",
        help="per-phase time breakdown, cache/dedup funnel and shard timing",
    )
    trace_summary.add_argument("trace_file", help="JSONL trace file (from --trace)")
    _add_json_argument(trace_summary)
    trace_validate = trace_commands.add_parser(
        "validate",
        help="check every record against the trace schema and the span-tree "
        "structure (exit 1 on problems)",
    )
    trace_validate.add_argument("trace_file", help="JSONL trace file (from --trace)")

    lint = subparsers.add_parser(
        "lint",
        help="check Python sources against the repo's determinism, "
        "resilience and async invariants (RPL0xx rules)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["."],
        help="files or directories to lint (default: current directory)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON of grandfathered findings "
        f"(default: ./{DEFAULT_BASELINE_NAME} when present)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0 "
        "(the ratchet: shrink it, never grow it, in normal development)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (code, title, rationale) and exit",
    )
    _add_json_argument(lint)
    return parser


def _add_adder_arguments(parser: argparse.ArgumentParser, multiple: bool = False) -> None:
    architectures = sorted(ADDER_GENERATORS)
    if multiple:
        parser.add_argument(
            "--adder",
            nargs="+",
            default=["rca8", "bka8", "rca16", "bka16"],
            help="adders as <arch><width>, e.g. rca8 bka16",
        )
    else:
        parser.add_argument(
            "--architecture", choices=architectures, default="rca", help="adder architecture"
        )
        parser.add_argument("--width", type=int, default=8, help="operand width in bits")


def _add_pattern_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--pattern",
        choices=sorted(PATTERN_GENERATORS),
        default="uniform",
        help="stimulus generator",
    )
    parser.add_argument("--vectors", type=int, default=4000, help="stimulus vectors")
    parser.add_argument("--seed", type=int, default=2017, help="stimulus seed")


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep (default: 1, serial)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        help="per-shard wall-clock budget in seconds; a shard running past "
        "it is failed and retried per --on-worker-failure (default: none)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="failed attempts per shard before falling back to in-process "
        "execution (default: 2)",
    )
    parser.add_argument(
        "--on-worker-failure",
        choices=FAILURE_ACTIONS,
        default=None,
        help="recovery action for crashed / timed-out / corrupt shards "
        "(default: retry)",
    )
    _add_store_dir_argument(parser)
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the sweep result store",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="append a JSONL span trace of the run to this file (view with "
        "'repro trace summary'); results are byte-identical either way",
    )


def _add_store_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        help="sweep result store directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro/sweeps)",
    )


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the typed result object as JSON instead of text tables",
    )


# ---------------------------------------------------------------------------
# The thin adapter: args -> job -> Session.run -> render
# ---------------------------------------------------------------------------


def _checked(build: Callable[[], Any]) -> Any:
    """Run a job/session constructor, turning ValueError into a clean exit."""
    try:
        return build()
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _operator(args: argparse.Namespace) -> str:
    """The ``--architecture``/``--width`` operator name, checked as usage.

    An operator the job layer would reject (e.g. a width whose result does
    not fit the output word) is a usage error: one line on stderr and exit
    status 2, like argparse's own rejections.
    """
    name = f"{args.architecture}{args.width}"
    try:
        parse_circuit_spec(name)
    except ValueError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    return name


def _session(args: argparse.Namespace) -> Session:
    """Build the invocation's session from the shared store options.

    ``--jobs`` becomes the session default, which is what jobs without their
    own :class:`SweepOptions` (e.g. entries of a ``repro batch`` file)
    inherit.
    """
    options = _checked(
        lambda: StoreOptions(
            cache_dir=getattr(args, "cache_dir", None),
            no_cache=getattr(args, "no_cache", False),
        )
    )
    sweep = _sweep_options(args)
    return _checked(
        lambda: Session.from_options(
            options,
            jobs=getattr(args, "jobs", 1),
            policy=sweep.policy(),
            trace=getattr(args, "trace", None),
        )
    )


def _sweep_options(args: argparse.Namespace) -> SweepOptions:
    return _checked(
        lambda: SweepOptions(
            jobs=getattr(args, "jobs", 1),
            shard_timeout=getattr(args, "shard_timeout", None),
            max_retries=getattr(args, "max_retries", None),
            on_worker_failure=getattr(args, "on_worker_failure", None),
        )
    )


def _pattern_options(args: argparse.Namespace) -> PatternOptions:
    return PatternOptions(kind=args.pattern, vectors=args.vectors, seed=args.seed)


def _emit(args: argparse.Namespace, result: Any) -> int:
    """Print a typed result: rendered text, or JSON under ``--json``.

    A fault-recovery execution report, when the run has one with actual
    faults, goes to stderr -- stdout stays byte-identical to a fault-free
    run in both output modes.
    """
    execution = getattr(result, "execution", None)
    if execution is not None and execution.faulted:
        print(execution.render(), file=sys.stderr)
    if getattr(args, "json", False):
        print(json.dumps(result.to_json(), indent=2))
    else:
        print(result.render())
    return 0


def _run(session: Session, job: Job) -> Any:
    """Run a job, exiting cleanly only on user-facing session errors.

    Library defects surfacing as other exceptions keep their traceback.
    """
    try:
        return session.run(job)
    except SessionError as error:
        raise SystemExit(str(error)) from None


def _command_synthesize(args: argparse.Namespace) -> int:
    job = _checked(lambda: SynthesizeJob(operators=tuple(args.adder)))
    session = Session(store=None)
    return _emit(args, _run(session, job))


def _command_characterize(args: argparse.Namespace) -> int:
    job = _checked(
        lambda: CharacterizeJob(
            operator=_operator(args),
            pattern=_pattern_options(args),
            sweep=_sweep_options(args),
            output=args.output,
        )
    )
    return _emit(args, _run(_session(args), job))


def _command_table4(args: argparse.Namespace) -> int:
    job = _checked(
        lambda: Table4Job(
            datasets=tuple(args.dataset),
            vectors=args.vectors,
            seed=args.seed,
            sweep=_sweep_options(args),
        )
    )
    return _emit(args, _run(_session(args), job))


def _command_fig5(args: argparse.Namespace) -> int:
    job = _checked(
        lambda: Fig5Job(
            operator=_operator(args),
            supply_voltages=tuple(args.vdd),
            vectors=args.vectors,
            sweep=_sweep_options(args),
        )
    )
    return _emit(args, _run(_session(args), job))


def _command_calibrate(args: argparse.Namespace) -> int:
    job = _checked(
        lambda: CalibrateJob(
            operator=_operator(args),
            tclk_ns=args.tclk_ns,
            vdd=args.vdd,
            vbb=args.vbb,
            metric=args.metric,
            pattern=_pattern_options(args),
            sweep=_sweep_options(args),
            output=args.output,
        )
    )
    return _emit(args, _run(_session(args), job))


def _command_speculate(args: argparse.Namespace) -> int:
    job = _checked(lambda: SpeculateJob(dataset=args.dataset, margin=args.margin))
    session = Session(store=None)
    return _emit(args, _run(session, job))


def _command_explore(args: argparse.Namespace) -> int:
    job = _checked(
        lambda: ExploreJob(
            architectures=tuple(args.architectures),
            widths=tuple(args.widths),
            windows=tuple(args.windows),
            clock_scales=(
                tuple(args.clock_scales) if args.clock_scales is not None else None
            ),
            supply_voltages=tuple(args.vdd) if args.vdd else None,
            body_bias_voltages=tuple(args.vbb) if args.vbb else None,
            strategy=args.strategy,
            budget=args.budget,
            seed=args.seed,
            vectors=args.vectors,
            screen_vectors=args.screen_vectors,
            max_ber=args.max_ber,
            top=args.top,
            frontier=args.frontier,
            robust_quantile=args.robust_quantile,
            robust_samples=args.robust_samples,
            sweep=_sweep_options(args),
        )
    )
    return _emit(args, _run(_session(args), job))


def _command_montecarlo(args: argparse.Namespace) -> int:
    job = _checked(
        lambda: MonteCarloJob(
            operator=_operator(args),
            pattern=_pattern_options(args),
            corner=args.corner,
            samples=args.samples,
            sigma_vt=args.sigma_vt,
            sigma_current=args.sigma_current,
            margin=args.margin,
            supply_voltages=tuple(args.vdd),
            sweep=_sweep_options(args),
        )
    )
    return _emit(args, _run(_session(args), job))


def _command_faults(args: argparse.Namespace) -> int:
    job = _checked(
        lambda: FaultSweepJob(
            operator=_operator(args),
            pattern=_pattern_options(args),
            sweep=_sweep_options(args),
        )
    )
    return _emit(args, _run(_session(args), job))


def _command_batch(args: argparse.Namespace) -> int:
    path = pathlib.Path(args.jobs_file)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise SystemExit(f"cannot read jobs file {args.jobs_file}: {error}") from None
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"jobs file {args.jobs_file} is not valid JSON: {error}"
        ) from None
    jobs = _checked(lambda: jobs_from_document(document))
    session = _session(args)
    try:
        batch = session.run_batch(jobs)
    except SessionError as error:
        raise SystemExit(str(error)) from None
    for index, (job, result) in enumerate(zip(jobs, batch.results), start=1):
        print(f"== job {index}: {job_type_name(job)} ==")
        print(result.render())
        print()
    print(batch.report.render())
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import CharacterizationService, ServeConfig

    session = _session(args)
    config = _checked(
        lambda: ServeConfig(
            host=args.host,
            port=args.port,
            max_batch_jobs=args.max_batch,
            rate_per_s=args.rate,
            burst=args.burst,
            hot_entries=args.hot_entries,
        )
    )
    service = CharacterizationService(session, config, trace=args.trace)
    return asyncio.run(service.run())


def _command_store(args: argparse.Namespace) -> int:
    if args.store_command == "stats":
        job: Job = StoreStatsJob()
    elif args.store_command == "verify":
        job = StoreVerifyJob()
    else:  # store_command == "prune" (the subparser enforces the choice)
        job = _checked(
            lambda: StorePruneJob(
                max_entries=args.max_entries,
                max_bytes=args.max_bytes,
                prune_all=args.all,
            )
        )
    return _emit(args, _run(_session(args), job))


def _command_trace(args: argparse.Namespace) -> int:
    try:
        records = load_trace(args.trace_file)
    except OSError as error:
        raise SystemExit(
            f"cannot read trace file {args.trace_file}: {error}"
        ) from None
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if args.trace_command == "validate":
        problems = validate_trace(records)
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            return 1
        print(f"{args.trace_file}: {len(records)} span(s), schema OK")
        return 0
    summary = summarize_trace(records)
    if getattr(args, "json", False):
        print(json.dumps(summary.to_json(), indent=2))
    else:
        print(summary.render())
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        for code in sorted(RULE_CODES):
            title, rationale = RULE_CODES[code]
            print(f"{code}  {title}")
            print(f"        {rationale}")
        return 0
    baseline_path: pathlib.Path | None = None
    if args.baseline is not None and args.no_baseline:
        raise SystemExit("--baseline and --no-baseline are mutually exclusive")
    if args.baseline is not None:
        baseline_path = pathlib.Path(args.baseline)
    elif not args.no_baseline:
        default = pathlib.Path(DEFAULT_BASELINE_NAME)
        if default.is_file():
            baseline_path = default
    if args.update_baseline:
        target = baseline_path or pathlib.Path(DEFAULT_BASELINE_NAME)
        try:
            everything = lint_paths(args.paths)
        except LintError as error:
            raise SystemExit(str(error)) from None
        write_baseline(target, everything.new_findings)
        print(
            f"baseline written: {target} "
            f"({len(everything.new_findings)} finding(s))"
        )
        return 0
    try:
        baseline = load_baseline(baseline_path) if baseline_path else {}
        report = lint_paths(args.paths, baseline=baseline)
    except LintError as error:
        raise SystemExit(str(error)) from None
    if getattr(args, "json", False):
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        output = report.render()
        if output:
            print(output)
    return 0 if report.clean else 1


_COMMANDS = {
    "synthesize": _command_synthesize,
    "characterize": _command_characterize,
    "table4": _command_table4,
    "fig5": _command_fig5,
    "calibrate": _command_calibrate,
    "speculate": _command_speculate,
    "explore": _command_explore,
    "montecarlo": _command_montecarlo,
    "faults": _command_faults,
    "batch": _command_batch,
    "serve": _command_serve,
    "store": _command_store,
    "trace": _command_trace,
    "lint": _command_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Ctrl-C exits with the conventional status 130 (128 + SIGINT) and a
    one-line note instead of a traceback; shards completed before the
    interrupt are already persisted in the result store, so rerunning the
    same command resumes warm.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print(
            "interrupted; completed sweep shards are persisted -- rerun to "
            "resume warm",
            file=sys.stderr,
        )
        return 130


if __name__ == "__main__":
    sys.exit(main())
