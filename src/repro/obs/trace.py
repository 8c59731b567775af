"""Hierarchical spans with a JSONL writer and cross-process propagation.

One finished span is one JSON object on one line of the trace file:

.. code-block:: json

    {"trace_id": "5f0c...", "span_id": "9a41...", "parent_id": "..." ,
     "name": "sweep.shard", "pid": 4242, "t0_s": 1700000000.123,
     "wall_s": 0.52, "cpu_s": 0.49, "attrs": {"triads": 12}}

``t0_s`` is the wall-clock start (epoch seconds, comparable across
processes); ``wall_s``/``cpu_s`` are monotonic ``perf_counter`` /
``process_time`` durations.  Records are appended as spans *finish*, so
children precede their parents in the file -- consumers must join on
``parent_id``, not on line order (see :mod:`repro.obs.report`).

Tracing is process-global and disabled by default: :func:`span` consults a
module-level active tracer and returns the shared :data:`NULL_SPAN` when
none is set, so instrumented hot paths cost one attribute load and a
``None`` check (and allocate nothing that outlives the call).

Cross-worker propagation rides the existing shard-task payloads: the
parent snapshots :func:`current_context` into each task, and the worker
body wraps itself in :func:`worker_scope`, which re-parents the worker's
spans under the parent's span and records the queue wait (task creation to
worker start) alongside the compute time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import secrets
import sys
import time
from typing import Any, Iterator, Mapping

from repro.obs import clock

__all__ = [
    "NULL_SPAN",
    "Span",
    "TraceContext",
    "Tracer",
    "activated",
    "active_tracer",
    "current_context",
    "span",
    "worker_scope",
]

_ACTIVE: "Tracer | None" = None


def _peak_rss_mb() -> float | None:
    """Peak resident set size of this process in MB, or ``None``."""
    try:
        import resource
    except ImportError:  # pragma: no cover - not on POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in kilobytes on Linux, in bytes on macOS.
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _thread_count() -> int | None:
    """Live threads of this process (``/proc/self/status``), or ``None``."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _new_id() -> str:
    """Random 64-bit hex id, collision-safe across processes."""
    return secrets.token_hex(8)


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


#: The shared no-op span: what :func:`span` returns while tracing is off,
#: and the stand-in of any caller holding an optional span.
NULL_SPAN = _NullSpan()


class Span:
    """One timed, attributed node of the trace tree.

    Use as a context manager; the record is written when the span exits.
    ``parent_id`` is resolved from the tracer's open-span stack on entry,
    so spans nest by lexical scope.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "_tracer",
        "_t0",
        "_wall0",
        "_cpu0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = _new_id()
        self.parent_id: str | None = None
        self.attrs = attrs

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (chains; later keys win)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack
        self.parent_id = stack[-1].span_id if stack else self._tracer.root_parent_id
        stack.append(self)
        self._t0 = clock.wall_time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._emit(self, self._t0, wall, cpu)
        return False


class Tracer:
    """Appends finished spans of one process to a JSONL trace file.

    Parameters
    ----------
    path:
        Trace file, opened lazily in append mode -- several processes (and
        several tracers) may share one file.
    trace_id:
        Identity of the run; workers inherit the parent's id through
        :class:`TraceContext` so the file holds one coherent trace.
    parent_id:
        Span id adopted as the parent of this tracer's top-level spans
        (``None`` = top-level spans are roots).
    buffered:
        Collect records in memory and write them as a single append on
        :meth:`close` -- one syscall per worker shard instead of one per
        span, and no line interleaving between concurrent writers.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        trace_id: str | None = None,
        parent_id: str | None = None,
        buffered: bool = False,
    ) -> None:
        self.path = os.fspath(path)
        self.trace_id = trace_id if trace_id is not None else _new_id()
        self.root_parent_id = parent_id
        self._buffered = buffered
        self._buffer: list[bytes] = []
        self._stack: list[Span] = []
        self._fd: int | None = None

    def span(self, name: str, attrs: Mapping[str, Any] | None = None) -> Span:
        """Create a span (enter it with ``with`` to start the clock)."""
        return Span(self, name, dict(attrs) if attrs else {})

    def _emit(self, span: Span, t0: float, wall: float, cpu: float) -> None:
        record = {
            "trace_id": self.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "pid": os.getpid(),
            "t0_s": t0,
            "wall_s": wall,
            "cpu_s": cpu,
            "attrs": span.attrs,
        }
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        if self._buffered:
            self._buffer.append(line)
        else:
            os.write(self._open_fd(), line)

    def _open_fd(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        return self._fd

    def flush(self) -> None:
        """Write any buffered records as one append."""
        if self._buffer:
            payload = b"".join(self._buffer)
            self._buffer.clear()
            os.write(self._open_fd(), payload)

    def close(self) -> None:
        """Flush and release the file descriptor (tracer stays usable)."""
        self.flush()
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def active_tracer() -> Tracer | None:
    """The tracer :func:`span` currently writes to (``None`` = disabled)."""
    return _ACTIVE


def span(name: str, **attrs: Any) -> Any:
    """Open a span on the active tracer, or a shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, attrs)


@contextlib.contextmanager
def activated(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Make ``tracer`` the process-global span sink for the block.

    ``None`` is accepted and leaves tracing as-is, so call sites can write
    ``with activated(self._tracer):`` without guarding.
    """
    global _ACTIVE
    if tracer is None:
        yield None
        return
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """Picklable snapshot that re-parents worker spans under the caller.

    Carried by the shard-task dataclasses (``trace`` field, default
    ``None``); ``created_at`` is the wall-clock task-creation time, so the
    worker can report how long the task sat on the queue.
    """

    path: str
    trace_id: str
    parent_id: str | None
    created_at: float


def current_context() -> TraceContext | None:
    """Snapshot the active tracer + innermost span for a worker task."""
    tracer = _ACTIVE
    if tracer is None:
        return None
    stack = tracer._stack
    parent = stack[-1].span_id if stack else tracer.root_parent_id
    return TraceContext(
        path=tracer.path,
        trace_id=tracer.trace_id,
        parent_id=parent,
        created_at=clock.wall_time(),
    )


@contextlib.contextmanager
def worker_scope(
    context: TraceContext | None, name: str, **attrs: Any
) -> Iterator[None]:
    """Trace one worker-side task under the parent's span.

    When ``context`` is ``None`` (untraced task) the block runs with
    tracing disabled, whatever tracer a forked worker inherited from its
    parent: a pooled worker outlives the dispatch that forked it, so the
    task alone says whether to trace.  Otherwise a buffered tracer is
    activated for the block, a ``name`` span with a ``queue_wait_s``
    attribute wraps it, and every record is appended to the shared trace
    file in one write at exit.  At task end the span also records
    ``peak_rss_mb``, the process's peak resident set size so far
    (``ru_maxrss``; ``None`` where the platform has no ``resource``
    module) -- in a pooled worker, the high-water mark of its whole
    lifetime, earlier shards of the same session call included -- and
    ``threads``, its live thread count (omitted where there is no
    ``/proc``): more than one means something besides the shard, such as
    a BLAS thread pool, competes for the worker's core.  Also safe
    in-process (the serial fallback path): the previous active tracer is
    restored.
    """
    global _ACTIVE
    previous = _ACTIVE
    if context is None:
        _ACTIVE = None
        try:
            yield
        finally:
            _ACTIVE = previous
        return
    tracer = Tracer(
        context.path,
        trace_id=context.trace_id,
        parent_id=context.parent_id,
        buffered=True,
    )
    queue_wait = max(0.0, clock.wall_time() - context.created_at)
    _ACTIVE = tracer
    try:
        with tracer.span(name, {**attrs, "queue_wait_s": queue_wait}) as task:
            try:
                yield
            finally:
                task.set(peak_rss_mb=_peak_rss_mb())
                threads = _thread_count()
                if threads is not None:
                    task.set(threads=threads)
    finally:
        _ACTIVE = previous
        tracer.close()
