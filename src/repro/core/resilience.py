"""Fault-tolerant shard execution for the sweep orchestrators.

The PR-2 sharding layer (:mod:`repro.core.sweep`) made triad grids scale
across worker processes, but a single worker crash (OOM kill, wedged fork)
raised ``BrokenProcessPool`` and threw the whole batch away.  This module
supplies the missing property -- graceful degradation instead of
all-or-nothing failure -- mirroring the paper's own premise of speculative
circuits that keep producing acceptable results while the hardware
misbehaves.

:func:`run_shards` executes a list of shard tasks on a
``ProcessPoolExecutor`` under an :class:`ExecutionPolicy`:

* a crashed worker (``BrokenProcessPool``) or a shard running past the
  per-shard timeout fails only the *unfinished* shards -- the pool is torn
  down, re-forked on the next round, and exactly those shards are requeued;
* the policy's failure action decides what a requeue looks like: plain
  ``retry``, ``split-and-retry`` (halve an oversized shard so a repeated
  OOM gets a smaller bite), ``serial-fallback`` (run the shard in-process
  immediately), or ``fail`` (raise :class:`ShardExecutionError`);
* a shard that exhausts its retries -- or a pool that keeps dying -- always
  falls back to trusted in-process serial execution, so a sweep completes
  unless the computation itself is impossible;
* results are merged deterministically by (shard index, unit offset), so
  the output is byte-identical to a fault-free serial run regardless of
  which faults fired, how shards were split, or what order workers finished.

Progress is crash-consistent through the ``on_result`` hook: the caller
flushes each completed shard's payloads to the
:class:`~repro.core.store.SweepResultStore` the moment the shard finishes,
parent-side, so a run killed mid-flight resumes warm.  Workers never touch
the store.

Fault injection for tests rides in through the ``chaos`` argument
(:class:`~repro.testing.chaos.ChaosPlan`): rules are applied inside the
worker wrapper only, so the in-process serial fallback -- the path of last
resort -- is never sabotaged.

Every recovery step is accounted in an :class:`ExecutionReport`, surfaced
through the API results and the CLI so silent degradation is visible.

The pool itself belongs to a :func:`pool_scope`: every dispatch inside one
scope leases the same lazily forked pool, so a caller that runs many small
sweeps in a row (a :class:`~repro.api.session.Session` call, above all an
exploration) forks its workers once.  A dispatch outside any scope opens
its own, so it forks and reaps a pool of its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import signal
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import Any, Callable, Iterator, Sequence

from repro.obs import metrics
from repro.obs.trace import span
from repro.testing import chaos as chaos_hooks

#: The supported failure actions of an :class:`ExecutionPolicy`.
FAILURE_ACTIONS = ("retry", "split-and-retry", "serial-fallback", "fail")


class ShardExecutionError(RuntimeError):
    """A sharded run could not be completed under its execution policy.

    Raised when the policy's failure action is ``fail`` and a shard fails,
    or when even the trusted in-process serial fallback produces an invalid
    result.  Carries the :class:`ExecutionReport` accumulated so far in
    :attr:`report`.
    """

    def __init__(self, message: str, report: "ExecutionReport | None" = None) -> None:
        super().__init__(message)
        self.report = report


@dataclasses.dataclass(frozen=True)
class ExecutionPolicy:
    """How a sharded run responds to worker failures.

    Attributes
    ----------
    max_retries:
        Failed attempts a shard may retry in the pool before it falls back
        to in-process serial execution.  Also bounds pool rebuilds: once the
        pool itself has died more than ``max_retries`` times, everything
        still pending goes serial.
    backoff_s:
        Base of the exponential backoff between retry rounds (seconds);
        round *k* of retries sleeps ``backoff_s * 2**(k-1)``, capped at
        ``max_backoff_s``.  ``0`` (the default) retries immediately.
    max_backoff_s:
        Ceiling of one backoff sleep (seconds).  Uncapped exponential
        growth stalls a dying pool for minutes between rounds
        (``backoff_s=1`` reaches 128 s by round 8); the cap bounds every
        round while keeping the early-round spacing.  The seconds actually
        slept are surfaced in :attr:`ExecutionReport.backoff_wait_s`.
    shard_timeout_s:
        Wall-clock budget of one shard attempt, measured from dispatch.  A
        shard running past it is failed (its worker is killed with the
        pool) and handled like any other failure.  ``None`` disables the
        timeout.
    on_failure:
        ``"retry"`` re-runs the failed shard as-is; ``"split-and-retry"``
        additionally halves a shard of more than one unit on each retry;
        ``"serial-fallback"`` runs failed shards in-process immediately;
        ``"fail"`` raises :class:`ShardExecutionError` on the first failure.
    """

    max_retries: int = 2
    backoff_s: float = 0.0
    max_backoff_s: float = 30.0
    shard_timeout_s: float | None = None
    on_failure: str = "retry"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be non-negative")
        if self.max_backoff_s <= 0:
            raise ValueError("max_backoff_s must be positive")
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive (or None)")
        if self.on_failure not in FAILURE_ACTIONS:
            raise ValueError(
                f"unknown failure action {self.on_failure!r}; "
                f"available: {', '.join(FAILURE_ACTIONS)}"
            )


#: The policy used when none is given: quiet retries with serial completion.
DEFAULT_POLICY = ExecutionPolicy()


@metrics.bind_registry_fields
class ExecutionReport(metrics.RegistryView):
    """Accounting of one (or several merged) fault-tolerant runs.

    All counters are cumulative; :meth:`merge` folds another report in, so a
    batch can aggregate the reports of its constituent sweeps.  The fields
    are views over a :class:`~repro.obs.metrics.MetricsRegistry` (namespace
    ``execution``), so the same numbers feed :class:`RunReport`, traces,
    and ``to_json`` -- the keyword-construction and ``report.retries += 1``
    surface of the former dataclass is unchanged.

    Attributes
    ----------
    shards:
        Shard tasks submitted (before any splitting).
    failures:
        Failed shard attempts, of any kind (crash, timeout, corrupt result,
        worker exception).
    timeouts / crashes / corrupt_results:
        Failed attempts by cause, except ``crashes``: it counts worker
        processes that died on their own (a chaos exit, an OOM kill), once
        per worker.  One dying worker breaks the pool and fails every
        in-flight shard; those attempts count under ``failures`` only.
    retries / requeues / splits:
        Recovery actions: failures that were retried in the pool, items
        put back on the queue (a split enqueues two), and shards halved.
    serial_fallbacks:
        Shards completed by trusted in-process execution (policy choice or
        retries exhausted).
    pool_rebuilds:
        Times a broken or timed-out worker pool was torn down; the next
        round forks a fresh one.
    recovered_shards:
        Shards that failed at least once but eventually completed.
    wall_time_lost_s:
        Wall-clock seconds spent in dispatch rounds that ended in failures.
    backoff_wait_s:
        Wall-clock seconds slept between retry rounds, after the
        per-round :attr:`ExecutionPolicy.max_backoff_s` cap was applied.
    """

    _NAMESPACE = "execution"
    _FIELDS = {
        "shards": 0,
        "failures": 0,
        "timeouts": 0,
        "crashes": 0,
        "corrupt_results": 0,
        "retries": 0,
        "requeues": 0,
        "splits": 0,
        "serial_fallbacks": 0,
        "pool_rebuilds": 0,
        "recovered_shards": 0,
        "wall_time_lost_s": 0.0,
        "backoff_wait_s": 0.0,
    }

    @property
    def faulted(self) -> bool:
        """Whether any fault was observed (and recovery work done)."""
        return bool(
            self.failures
            or self.timeouts
            or self.crashes
            or self.corrupt_results
            or self.retries
            or self.serial_fallbacks
            or self.pool_rebuilds
        )

    def merge(self, other: "ExecutionReport") -> None:
        """Fold another report's counters into this one."""
        for field in self._FIELDS:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def render(self) -> str:
        """One-line human-readable summary."""
        if not self.faulted:
            return f"execution: {self.shards} shard(s), no faults"
        return (
            f"execution: {self.shards} shard(s), "
            f"{self.failures} failed attempt(s) "
            f"({self.crashes} crashed, {self.timeouts} timed out, "
            f"{self.corrupt_results} corrupt), "
            f"{self.retries} retried, {self.splits} split, "
            f"{self.serial_fallbacks} serial fallback(s), "
            f"{self.pool_rebuilds} pool rebuild(s), "
            f"{self.recovered_shards} recovered, "
            f"{self.wall_time_lost_s:.1f}s lost, "
            f"{self.backoff_wait_s:.1f}s backoff"
        )

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable representation (plain field dict)."""
        data: dict[str, Any] = self._values()
        data["faulted"] = self.faulted
        return data


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Item:
    """One unit of queued work: a (possibly split) shard task.

    ``index`` is the original task's position; ``offset`` the unit offset of
    this piece within that task, so split pieces reassemble by simple
    offset-ordered concatenation.  ``attempt`` is the number of failed
    attempts already spent on this piece.
    """

    index: int
    offset: int
    task: Any
    attempt: int = 0


def _invoke(worker: Callable[[Any], Any], task: Any, rule: Any) -> Any:
    """Pool-side wrapper around the shard body.

    This function is only ever executed inside worker processes -- the
    serial fallback calls ``worker`` directly -- which is what confines
    chaos injection to workers: a scripted crash can break the pool, never
    the orchestrating process.
    """
    if rule is not None:
        chaos_hooks.trigger(rule)
    result = worker(task)
    if rule is not None and rule.action == "corrupt":
        return chaos_hooks.corrupt_result(result)
    return result


def _init_worker() -> None:
    """Worker-side pool initialiser: leave Ctrl-C to the orchestrator.

    A terminal interrupt is delivered to the whole foreground process
    group, so every pool worker would raise ``KeyboardInterrupt`` wherever
    it happens to be -- an idle worker dies inside the queue machinery and
    spews a traceback that races the parent's own clean teardown.  Workers
    ignore the signal instead; the parent turns the interrupt into
    :func:`_destroy_pool` (which terminates them) and a clean exit.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


#: Longest wait for a destroyed pool's manager thread to finish.  With the
#: workers terminated it exits in milliseconds; the bound only matters if
#: its queue feeder is stuck writing to a dead worker.
_MANAGER_JOIN_TIMEOUT_S = 5.0


def _destroy_pool(pool: ProcessPoolExecutor) -> int:
    """Tear a broken or hung pool down without waiting on its workers.

    ``shutdown`` alone never kills a wedged worker -- a shard sleeping past
    its timeout would keep its process alive indefinitely -- so the workers
    are terminated explicitly.  Reaching into ``_processes`` is unavoidable:
    the executor API offers no kill switch.

    The executor's manager thread is then joined, with a bound: on its way
    out it closes the pool's wakeup pipe, and left running that close races
    the interpreter-exit hook of :mod:`concurrent.futures`, which writes to
    the same pipe -- an ``OSError: [Errno 9]`` traceback at exit.  Once the
    thread is joined, the pipe is closed and marked closed, so the hook
    skips it.  ``shutdown(wait=False)`` drops the reference to the thread,
    so it is taken first.

    Returns how many workers died on their own: every exit code other than
    a clean ``0`` or the ``-SIGTERM`` of this teardown (or of the
    executor's own, which terminates the survivors of a broken pool).  A
    chaos crash exits with :data:`~repro.testing.chaos.CRASH_EXIT_CODE`,
    an OOM kill with ``-SIGKILL``.
    """
    processes = dict(getattr(pool, "_processes", None) or {})
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes.values():
        try:
            process.terminate()
        except Exception:
            # Already-dead processes are the common cause; count the rest so
            # a pattern of unkillable workers shows up in the metrics dump.
            metrics.REGISTRY.counter("resilience.cleanup_errors").add()
    if manager is not None:
        manager.join(timeout=_MANAGER_JOIN_TIMEOUT_S)
    return sum(
        process.exitcode not in (None, 0, -signal.SIGTERM)
        for process in processes.values()
    )


@dataclasses.dataclass
class _PoolSlot:
    """The worker pool of one :func:`pool_scope`, forked on first use."""

    pool: ProcessPoolExecutor | None = None
    workers: int = 0

    def acquire(self, max_workers: int) -> ProcessPoolExecutor:
        """The scope's pool of exactly ``max_workers`` workers.

        A pool of another size is shut down and replaced, so a dispatch
        never runs more than its own ``max_workers`` shards at once.
        """
        if self.pool is not None and self.workers != max_workers:
            self.close()
        if self.pool is None:
            self.pool = ProcessPoolExecutor(
                max_workers=max_workers, initializer=_init_worker
            )
            self.workers = max_workers
        return self.pool

    def close(self, *, kill: bool = False) -> int:
        """Shut the pool down (if any) and empty the slot.

        ``kill`` tears it down with :func:`_destroy_pool` and returns its
        count of workers that died on their own; otherwise the shutdown
        waits for the workers to exit, so they are reaped (and their peak
        RSS lands in ``RUSAGE_CHILDREN``) before the caller goes on.
        """
        pool, self.pool = self.pool, None
        if pool is None:
            return 0
        if kill:
            return _destroy_pool(pool)
        pool.shutdown(wait=True, cancel_futures=True)
        return 0


_SCOPE: "contextvars.ContextVar[_PoolSlot | None]" = contextvars.ContextVar(
    "repro_pool_scope", default=None
)


@contextlib.contextmanager
def pool_scope() -> Iterator[_PoolSlot]:
    """Share one worker pool among every :func:`run_shards` in the block.

    The pool is forked by the first dispatch that needs one and reused by
    the later ones; a dispatch whose pool broke or timed out clears the
    slot, and the next round forks afresh.  Nested scopes join the
    outermost one, which shuts the pool down and reaps its workers at its
    end.  A block that raises may leave shards running, so its pool is
    never handed on: an interrupt (also one that lands between dispatches)
    terminates the workers, any other error shuts the pool down once the
    running shards finish.

    A pooled worker outlives the dispatch that forked it, so a shard must
    read nothing from parent state set after the fork: everything it needs
    travels pickled with the task or with its chaos rule.
    """
    outer = _SCOPE.get()
    slot = outer if outer is not None else _PoolSlot()
    token = None if outer is not None else _SCOPE.set(slot)
    try:
        yield slot
    except BaseException as error:
        slot.close(kill=isinstance(error, KeyboardInterrupt))
        raise
    finally:
        if token is not None:
            _SCOPE.reset(token)
            slot.close()


def run_shards(
    tasks: Sequence[Any],
    worker: Callable[[Any], list[Any]],
    *,
    policy: ExecutionPolicy | None = None,
    max_workers: int | None = None,
    units: Callable[[Any], int] | None = None,
    split: Callable[[Any], tuple[Any, Any]] | None = None,
    validate: Callable[[Any, Any], bool] | None = None,
    on_result: Callable[[Any, list[Any]], None] | None = None,
    chaos: "chaos_hooks.ChaosPlan | None" = None,
    report: ExecutionReport | None = None,
) -> list[list[Any]]:
    """Execute shard tasks fault-tolerantly; return per-task unit lists.

    Parameters
    ----------
    tasks:
        Picklable shard tasks.  ``worker(task)`` must return a list of unit
        results whose concatenation across split pieces reproduces the
        original task's result (the sweep shards satisfy this: one payload
        per triad / fault site / sample range, in task order).
    worker:
        Module-level (picklable) shard body.
    policy:
        The :class:`ExecutionPolicy`; defaults to :data:`DEFAULT_POLICY`.
    max_workers:
        Pool size; defaults to ``len(tasks)``.  The pool is leased from the
        open :func:`pool_scope` (reused when its size matches, replaced
        otherwise), or from a scope of this call's own.
    units:
        Number of units in a task.  Required (together with ``split``) for
        ``split-and-retry`` to actually split; also enables the final
        completeness check.
    split:
        Halve a task of more than one unit into two subtasks covering the
        same units in order.
    validate:
        Parent-side result check ``validate(task, result) -> bool``; a
        failing result is treated like any other shard failure (this is
        what catches corrupted payloads).
    on_result:
        Called as ``on_result(task, result)`` the moment a (sub)task
        completes -- the crash-consistency hook where callers flush
        payloads to the result store.  Runs parent-side only.
    chaos:
        Optional deterministic fault-injection plan, applied inside worker
        processes only (keyed on original shard index and attempt).  When
        ``None``, the plan is read from the ``REPRO_CHAOS`` environment
        variable (:meth:`~repro.testing.chaos.ChaosPlan.from_env`), so the
        chaos CI jobs can sabotage any CLI sweep without plumbing.
    report:
        Optional report to accumulate into (a fresh one is used otherwise);
        counters are added, so one report can span several runs.

    Returns
    -------
    One list of unit results per input task, in input order -- byte-identical
    to a fault-free serial run.

    Raises
    ------
    ShardExecutionError
        Under the ``fail`` action, on a serial-fallback validation failure,
        or if the merged results do not cover every unit.
    KeyboardInterrupt
        Re-raised after cancelling pending work and tearing the pool down;
        shards completed before the interrupt have already been delivered
        through ``on_result``.
    """
    with span(
        "dispatch",
        shards=len(tasks),
        workers=max_workers if max_workers is not None else len(tasks),
    ):
        return _run_shards(
            tasks,
            worker,
            policy=policy,
            max_workers=max_workers,
            units=units,
            split=split,
            validate=validate,
            on_result=on_result,
            chaos=chaos,
            report=report,
        )


def _run_shards(
    tasks: Sequence[Any],
    worker: Callable[[Any], list[Any]],
    *,
    policy: ExecutionPolicy | None,
    max_workers: int | None,
    units: Callable[[Any], int] | None,
    split: Callable[[Any], tuple[Any, Any]] | None,
    validate: Callable[[Any, Any], bool] | None,
    on_result: Callable[[Any, list[Any]], None] | None,
    chaos: "chaos_hooks.ChaosPlan | None",
    report: ExecutionReport | None,
) -> list[list[Any]]:
    """Engine body of :func:`run_shards` under its ``dispatch`` span."""
    tasks = list(tasks)
    if policy is None:
        policy = DEFAULT_POLICY
    if report is None:
        report = ExecutionReport()
    if chaos is None:
        chaos = chaos_hooks.ChaosPlan.from_env() or None
    if not tasks:
        return []
    if max_workers is None:
        max_workers = len(tasks)
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1")
    report.shards += len(tasks)

    parts: dict[int, dict[int, list[Any]]] = {i: {} for i in range(len(tasks))}
    failed_once: set[tuple[int, int]] = set()

    def accept(item: _Item, result: Any) -> None:
        result = list(result)
        parts[item.index][item.offset] = result
        if on_result is not None:
            on_result(item.task, result)
        if (item.index, item.offset) in failed_once:
            report.recovered_shards += 1

    pending: "deque[_Item]" = deque(
        _Item(index=i, offset=0, task=task) for i, task in enumerate(tasks)
    )
    serial: list[_Item] = []

    def handle_failure(item: _Item) -> None:
        failed_once.add((item.index, item.offset))
        attempts_used = item.attempt + 1
        if policy.on_failure == "fail":
            raise ShardExecutionError(
                f"shard {item.index} failed (attempt {attempts_used}) "
                "and the policy is 'fail'",
                report,
            )
        if policy.on_failure == "serial-fallback" or attempts_used > policy.max_retries:
            report.serial_fallbacks += 1
            serial.append(item)
            return
        report.retries += 1
        if (
            policy.on_failure == "split-and-retry"
            and split is not None
            and units is not None
            and units(item.task) > 1
        ):
            first, second = split(item.task)
            report.splits += 1
            report.requeues += 2
            pending.append(
                _Item(item.index, item.offset, first, item.attempt + 1)
            )
            pending.append(
                _Item(
                    item.index,
                    item.offset + units(first),
                    second,
                    item.attempt + 1,
                )
            )
        else:
            report.requeues += 1
            pending.append(
                _Item(item.index, item.offset, item.task, item.attempt + 1)
            )

    pool_failures = 0
    with pool_scope() as slot:
        while pending:
            if pool_failures > policy.max_retries:
                # The pool itself keeps dying: trust only this process.
                while pending:
                    report.serial_fallbacks += 1
                    serial.append(pending.popleft())
                break
            batch = list(pending)
            pending.clear()
            max_attempt = max(item.attempt for item in batch)
            if policy.backoff_s > 0 and max_attempt > 0:
                delay = min(
                    policy.backoff_s * (2 ** (max_attempt - 1)),
                    policy.max_backoff_s,
                )
                report.backoff_wait_s += delay
                time.sleep(delay)
            pool = slot.acquire(max_workers)
            round_start = time.monotonic()
            broken = False
            failed_items: list[_Item] = []
            in_flight: dict[Future, _Item] = {}
            for item in batch:
                rule = (
                    chaos.rule_for(item.index, item.attempt)
                    if chaos is not None
                    else None
                )
                try:
                    future = pool.submit(_invoke, worker, item.task, rule)
                except BrokenExecutor:
                    broken = True
                    report.failures += 1
                    failed_items.append(item)
                    continue
                in_flight[future] = item
            deadline = (
                None
                if policy.shard_timeout_s is None
                else round_start + policy.shard_timeout_s
            )
            while in_flight:
                timeout = (
                    None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
                done, not_done = wait(
                    set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Per-shard timeout expired: every unfinished shard has
                    # failed, and its (possibly wedged) worker must die with
                    # the pool.
                    broken = True
                    for future in not_done:
                        item = in_flight.pop(future)
                        future.cancel()
                        report.failures += 1
                        report.timeouts += 1
                        failed_items.append(item)
                    break
                for future in done:
                    item = in_flight.pop(future)
                    try:
                        result = future.result()
                    except (BrokenExecutor, CancelledError):
                        # One dying worker breaks the pool and fails every
                        # in-flight future; each shard counts one attempt,
                        # the worker one crash (counted at teardown).
                        broken = True
                        report.failures += 1
                        failed_items.append(item)
                    except Exception:
                        report.failures += 1
                        failed_items.append(item)
                    else:
                        if validate is not None and not validate(
                            item.task, result
                        ):
                            report.failures += 1
                            report.corrupt_results += 1
                            failed_items.append(item)
                        else:
                            accept(item, result)
            if failed_items:
                report.wall_time_lost_s += time.monotonic() - round_start
            if broken:
                report.pool_rebuilds += 1
                pool_failures += 1
                report.crashes += slot.close(kill=True)
            for item in failed_items:
                handle_failure(item)

    # Trusted in-process completion of everything the pool could not finish.
    # Chaos never applies here (see _invoke), so a scripted fault can delay
    # a sweep but not fail it.
    for item in serial:
        result = worker(item.task)
        if validate is not None and not validate(item.task, result):
            raise ShardExecutionError(
                f"shard {item.index} produced an invalid result even in "
                "serial execution",
                report,
            )
        accept(item, result)

    merged: list[list[Any]] = []
    for index, task in enumerate(tasks):
        combined: list[Any] = []
        for offset in sorted(parts[index]):
            combined.extend(parts[index][offset])
        if units is not None and len(combined) != units(task):
            raise ShardExecutionError(
                f"shard {index} merged {len(combined)} unit(s), "
                f"expected {units(task)}",
                report,
            )
        merged.append(combined)
    return merged
