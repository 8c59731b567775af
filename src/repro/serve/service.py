"""Characterization-as-a-service: an async HTTP job queue over the session API.

The ROADMAP's serving milestone, stdlib-only: :class:`CharacterizationService`
wraps one :class:`repro.api.Session` behind a small HTTP surface

========================  ====================================================
``POST /v1/jobs``         submit any job document ``repro batch`` accepts
                          (validated at admission via the typed job
                          constructors); returns ``202`` with the job id
``GET /v1/jobs/<id>``     status, batch/dedup accounting, the
                          :class:`~repro.obs.report.RunReport`, and the typed
                          result document once done
``GET /v1/jobs/<id>/events``  streamed progress lines (replays history, then
                          follows live until the job is terminal)
``GET /v1/healthz``       liveness + drain state + queue depths
``GET /v1/stats``         metrics registry snapshot, store/overlay/hot-tier
                          counters, rate-limiter and queue state
========================  ====================================================

Execution model.  The event loop only ever *admits* work: requests are
rate-limited per client (token bucket), validated, deduplicated against a
hot-result LRU, and parked in a fair round-robin admission queue.  A single
batch loop hands queued jobs to ``session.run_batch`` on a dedicated
one-thread executor, so the session's reentrant lock is only ever taken
from that one thread.  Batching is work-conserving ("busy-period"): when
the session is idle a queued job is dispatched at once, in a window of its
own; jobs admitted while a window runs queue up and form the next window
(at most ``max_batch_jobs``), so N clients submitting overlapping jobs
under load collapse into *one* sharded executor pass (the session's sweep
plan dedups identical work units).  An identical job admitted after its
twin's window has finished is answered from the store or the hot tier, so
no unit is simulated twice either way.

Shutdown.  SIGTERM/SIGINT request a *graceful drain*: new submissions get
``503``, queued and in-flight windows run to completion, event streams
finish their replay, then the server closes and ``run`` returns 0.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import dataclasses
import itertools
import json
import signal
import time
from collections import OrderedDict
from typing import Any

from repro.api.jobs import (
    CalibrateJob,
    CharacterizeJob,
    Fig5Job,
    FaultSweepJob,
    Job,
    MonteCarloJob,
    SynthesizeJob,
    job_from_json,
    job_to_json,
)
from repro.api.session import Session, SessionError
from repro.obs import metrics
from repro.obs.trace import NULL_SPAN, Tracer, _new_id
from repro.serve.http import (
    HttpError,
    Request,
    json_response,
    read_request,
    stream_header,
)
from repro.serve.queue import AdmissionQueue, JobRecord, JobState, new_job_id
from repro.serve.ratelimit import ClientRateLimiter

__all__ = ["CharacterizationService", "HotResultCache", "ServeConfig"]

#: Job types whose result documents depend only on the job itself (given a
#: deterministic engine), and are therefore safe to serve from the hot
#: result tier.  Store-administration jobs and jobs that read user files
#: observe mutable external state and are recomputed every time.
_HOT_CACHEABLE = (
    CharacterizeJob,
    Fig5Job,
    CalibrateJob,
    SynthesizeJob,
    MonteCarloJob,
    FaultSweepJob,
)


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Tunables of one service instance (all validated at construction)."""

    host: str = "127.0.0.1"
    port: int = 8765
    max_batch_jobs: int = 16
    rate_per_s: float = 20.0
    burst: int = 40
    hot_entries: int = 256
    max_records: int = 4096
    max_clients: int = 1024

    def __post_init__(self) -> None:
        if self.max_batch_jobs < 1:
            raise ValueError("max_batch_jobs must be at least 1")
        if self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.burst < 1:
            raise ValueError("burst must be at least 1")
        if self.hot_entries < 0:
            raise ValueError("hot_entries must be non-negative")
        if self.max_records < 1:
            raise ValueError("max_records must be at least 1")


class HotResultCache:
    """LRU of finished result documents, keyed by canonical job JSON.

    Sits in *front* of the packfile store: a hot hit serves the fully
    rendered result without touching the session, the batch loop, or the
    store at all.  ``max_entries=0`` disables the tier.
    """

    def __init__(self, max_entries: int) -> None:
        self._max_entries = max_entries
        self._entries: OrderedDict[str, tuple[str, dict[str, Any] | None]] = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> tuple[str, dict[str, Any] | None] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, result_json: str, run: dict[str, Any] | None) -> None:
        if self._max_entries == 0:
            return
        self._entries[key] = (result_json, run)
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def snapshot(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "max_entries": self._max_entries,
            "hits": self.hits,
            "misses": self.misses,
        }


class _RequestScope:
    """One request's tracing handle: the request span plus its tracer.

    Each request gets a private *buffered* tracer sharing the service's
    trace id -- per-request because a tracer's span stack is not safe
    against interleaved async requests, buffered so the whole request tree
    lands in the trace file as one atomic append.  When tracing is off the
    scope degrades to no-ops.
    """

    def __init__(self, span: Any, tracer: Tracer | None) -> None:
        self._span = span
        self._tracer = tracer

    def set(self, **attrs: Any) -> "_RequestScope":
        self._span.set(**attrs)
        return self

    def child(self, name: str, **attrs: Any) -> Any:
        """A child span of the request span (no-op without tracing)."""
        if self._tracer is None:
            return NULL_SPAN
        return self._tracer.span(name, attrs)


_NULL_SCOPE = _RequestScope(NULL_SPAN, None)


class CharacterizationService:
    """One session served over HTTP; see the module docstring.

    The service owns nothing about how jobs *execute* -- that is entirely
    the session's business.  It owns admission (validation, rate limits,
    fairness, batch windows), result distribution, and telemetry.
    """

    def __init__(
        self,
        session: Session,
        config: ServeConfig | None = None,
        *,
        trace: str | None = None,
    ) -> None:
        self._session = session
        self._config = config if config is not None else ServeConfig()
        self._trace_path = trace
        self._trace_id = _new_id()
        self._queue = AdmissionQueue()
        self._records: OrderedDict[str, JobRecord] = OrderedDict()
        self._hot = HotResultCache(self._config.hot_entries)
        self._limiter = ClientRateLimiter(
            self._config.rate_per_s,
            self._config.burst,
            self._config.max_clients,
        )
        self._seq = itertools.count()
        self._draining = False
        self._drain_requested: asyncio.Event | None = None
        self._new_work: asyncio.Event | None = None
        self._progress: asyncio.Condition | None = None
        self._server: asyncio.base_events.Server | None = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._connections: set[asyncio.Task[None]] = set()
        self._batches = 0
        self.port: int | None = None

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Bind the listening socket (port 0 picks a free port)."""
        self._drain_requested = asyncio.Event()
        self._new_work = asyncio.Event()
        self._progress = asyncio.Condition()
        self._server = await asyncio.start_server(
            self._on_connection, self._config.host, self._config.port
        )
        sockets = self._server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else self._config.port

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; signal-handler safe)."""
        self._draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def run(self, *, install_signal_handlers: bool = True) -> int:
        """Serve until drained; returns the process exit code (0)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(signum, self.request_drain)
        print(
            f"repro serve: listening on http://{self._config.host}:{self.port} "
            f"(max batch {self._config.max_batch_jobs})",
            flush=True,
        )
        await self._batch_loop()
        self._server.close()
        await self._server.wait_closed()
        if self._connections:
            await asyncio.wait(
                self._connections, timeout=5.0
            )  # event streams of just-finished jobs
            for task in self._connections:
                task.cancel()
        self._executor.shutdown(wait=True)
        print("repro serve: drained, exiting", flush=True)
        return 0

    # ------------------------------------------------------------------
    # batch loop (the only caller of the session)

    async def _batch_loop(self) -> None:
        assert self._new_work is not None and self._drain_requested is not None
        loop = asyncio.get_running_loop()
        while True:
            if self._queue.pending == 0:
                if self._draining:
                    break
                self._new_work.clear()
                await self._wait_for_work_or_drain()
                continue
            # Busy-period batching: everything queued while the previous
            # window ran forms this one, so no wait is needed to collect it.
            window = self._queue.take_window(self._config.max_batch_jobs)
            queue_wait_s = time.monotonic() - min(
                record.admitted_s for record in window
            )
            self._batches += 1
            metrics.REGISTRY.counter("serve.batches").add()
            metrics.REGISTRY.counter("serve.batch_jobs").add(len(window))
            metrics.REGISTRY.histogram("serve.queue_wait_s").observe(queue_wait_s)
            for record in window:
                record.state = JobState.RUNNING
                record.add_event(
                    f"running: dispatched in a window of {len(window)} job(s)"
                )
            await self._notify_progress()
            with self._batch_span(len(window), queue_wait_s) as batch_span:
                outcome, payload = await loop.run_in_executor(
                    self._executor,
                    self._execute_window,
                    [record.job for record in window],
                )
                batch_span.set(status=outcome)
            if outcome == "ok":
                self._distribute(window, payload)
            else:
                for record in window:
                    record.state = JobState.FAILED
                    record.error = payload
                    record.add_event(f"failed: {payload}")
                    record.done.set()
            await self._notify_progress()

    async def _wait_for_work_or_drain(self) -> None:
        assert self._new_work is not None and self._drain_requested is not None
        waiters = [
            asyncio.ensure_future(self._new_work.wait()),
            asyncio.ensure_future(self._drain_requested.wait()),
        ]
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for waiter in waiters:
                waiter.cancel()

    def _execute_window(self, jobs: list[Job]) -> tuple[str, Any]:
        """Runs on the worker thread; never raises."""
        try:
            return "ok", self._session.run_batch(jobs)
        except SessionError as error:
            return "error", str(error)
        except Exception as error:  # a library defect must not kill the loop
            metrics.REGISTRY.counter("serve.batch_errors").add()
            return "error", f"internal error: {type(error).__name__}: {error}"

    def _distribute(self, window: list[JobRecord], batch: Any) -> None:
        report = batch.report
        report_doc = {
            "jobs": report.jobs,
            "planned_units": report.planned_units,
            "deduped_units": report.deduped_units,
            "cache_hits": report.cache_hits,
            "simulated_units": report.simulated_units,
        }
        for record, result in zip(window, batch.results):
            document = result.to_json()
            run = document.pop("run", None)
            record.result_json = json.dumps(document, sort_keys=True)
            record.run = run
            record.batch = report_doc
            record.state = JobState.DONE
            record.add_event(
                f"done: {report.simulated_units} simulated, "
                f"{report.deduped_units} deduped, "
                f"{report.cache_hits} warm in a {report.jobs}-job window"
            )
            record.done.set()
            if isinstance(record.job, _HOT_CACHEABLE):
                self._hot.put(record.canonical, record.result_json, record.run)

    async def _notify_progress(self) -> None:
        assert self._progress is not None
        async with self._progress:
            self._progress.notify_all()

    # ------------------------------------------------------------------
    # connection handling

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status = 500
        route = "?"
        method = "?"
        try:
            try:
                request = await asyncio.wait_for(read_request(reader), timeout=30.0)
            except asyncio.TimeoutError:
                writer.write(
                    json_response(408, {"error": "timed out reading the request"})
                )
                return
            except HttpError as error:
                writer.write(
                    json_response(
                        error.status, {"error": error.message}, error.headers
                    )
                )
                return
            if request is None:
                return
            method, route = request.method, request.route
            metrics.REGISTRY.counter("serve.requests").add()
            with self._request_span(request) as span:
                try:
                    status = await self._dispatch(request, writer, span)
                except HttpError as error:
                    status = error.status
                    writer.write(
                        json_response(status, {"error": error.message}, error.headers)
                    )
                except Exception as error:
                    metrics.REGISTRY.counter("serve.request_errors").add()
                    status = 500
                    writer.write(
                        json_response(
                            500,
                            {"error": f"internal error: {type(error).__name__}"},
                        )
                    )
                span.set(status=status)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    def _request_span(self, request: Request) -> Any:
        if self._trace_path is None:
            return contextlib.nullcontext(_NULL_SCOPE)
        tracer = Tracer(self._trace_path, trace_id=self._trace_id, buffered=True)

        @contextlib.contextmanager
        def traced() -> Any:
            try:
                with tracer.span(
                    "serve.request",
                    {"method": request.method, "route": request.route},
                ) as span:
                    yield _RequestScope(span, tracer)
            finally:
                tracer.close()

        return traced()

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, span: Any
    ) -> int:
        route = request.route
        if route == "/v1/jobs" and request.method == "POST":
            return self._admit(request, writer, span)
        if route == "/v1/healthz" and request.method == "GET":
            writer.write(json_response(200, self._health()))
            return 200
        if route == "/v1/stats" and request.method == "GET":
            writer.write(json_response(200, self._stats()))
            return 200
        if route.startswith("/v1/jobs/") and request.method == "GET":
            rest = route[len("/v1/jobs/") :]
            if rest.endswith("/events"):
                return await self._stream_events(rest[: -len("/events")].rstrip("/"), writer)
            return self._job_status(rest, writer)
        raise HttpError(404, f"no such endpoint: {request.method} {route}")

    # ------------------------------------------------------------------
    # endpoints

    def _client_of(self, request: Request, writer: asyncio.StreamWriter) -> str:
        client = request.header("x-client").strip()
        if client:
            return client[:120]
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if isinstance(peer, tuple) and peer else "unknown"

    def _admit(
        self, request: Request, writer: asyncio.StreamWriter, span: Any
    ) -> int:
        assert self._new_work is not None
        client = self._client_of(request, writer)
        span.set(client=client)
        if self._draining:
            raise HttpError(503, "the service is draining; resubmit elsewhere")
        retry_after = self._limiter.acquire(client)
        if retry_after > 0:
            metrics.REGISTRY.counter("serve.rate_limited").add()
            raise HttpError(
                429,
                f"client {client!r} is over its admission rate",
                {"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            )
        document = request.json()
        if not isinstance(document, dict):
            raise HttpError(400, "the request body must be a JSON object")
        priority_raw = document.pop("priority", 0)
        job_doc = document.pop("job", None) or document
        try:
            priority = int(priority_raw)
            job = job_from_json(job_doc)
        except (TypeError, ValueError) as error:
            metrics.REGISTRY.counter("serve.rejected").add()
            raise HttpError(400, f"rejected at admission: {error}")
        canonical = json.dumps(job_to_json(job), sort_keys=True)

        record = JobRecord(
            id=new_job_id(),
            client=client,
            job=job,
            canonical=canonical,
            priority=priority,
            seq=next(self._seq),
        )
        with span.child("serve.admit", client=client) as admit_span:
            hot = (
                self._hot.get(canonical)
                if isinstance(job, _HOT_CACHEABLE)
                else None
            )
            if hot is not None:
                record.result_json, record.run = hot
                record.hot = True
                record.state = JobState.DONE
                record.add_event("done: served from the hot result tier")
                record.done.set()
                metrics.REGISTRY.counter("serve.hot_hits").add()
                admit_span.set(hot=True)
            else:
                record.add_event(
                    f"queued (client {client!r}, priority {record.priority})"
                )
                self._queue.add(record)
                self._new_work.set()
                metrics.REGISTRY.counter("serve.admitted").add()
                admit_span.set(hot=False)
        self._remember(record)
        body = {"id": record.id, "status": record.state, "hot": record.hot}
        writer.write(json_response(202, body))
        return 202

    def _remember(self, record: JobRecord) -> None:
        self._records[record.id] = record
        while len(self._records) > self._config.max_records:
            # Evict the oldest *terminal* record; never forget live jobs.
            for job_id, old in self._records.items():
                if old.terminal:
                    del self._records[job_id]
                    break
            else:
                break

    def _record_or_404(self, job_id: str) -> JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise HttpError(404, f"unknown job id {job_id!r}")
        return record

    def _job_status(self, job_id: str, writer: asyncio.StreamWriter) -> int:
        record = self._record_or_404(job_id)
        document = record.describe()
        if record.result_json is not None:
            document["result"] = json.loads(record.result_json)
        writer.write(json_response(200, document))
        return 200

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> int:
        assert self._progress is not None
        record = self._record_or_404(job_id)
        writer.write(stream_header())
        cursor = 0
        while True:
            while cursor < len(record.events):
                writer.write((record.events[cursor] + "\n").encode("utf-8"))
                cursor += 1
            await writer.drain()
            if record.terminal:
                return 200
            async with self._progress:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._progress.wait(), timeout=1.0)

    def _health(self) -> dict[str, Any]:
        counts = {state: 0 for state in (JobState.QUEUED, JobState.RUNNING)}
        done = 0
        for record in self._records.values():
            if record.terminal:
                done += 1
            else:
                counts[record.state] = counts.get(record.state, 0) + 1
        return {
            "status": "draining" if self._draining else "ok",
            "queued": counts.get(JobState.QUEUED, 0),
            "running": counts.get(JobState.RUNNING, 0),
            "finished": done,
            "batches": self._batches,
        }

    def _stats(self) -> dict[str, Any]:
        store = self._session.store
        return {
            "server": self._health(),
            "queue": self._queue.snapshot(),
            "rate_limiter": self._limiter.snapshot(),
            "hot_results": self._hot.snapshot(),
            "overlay": self._session.overlay.snapshot(),
            "store": store.stats._values() if store is not None else None,
            "metrics": metrics.REGISTRY.snapshot(),
        }

    def _batch_span(self, jobs: int, queue_wait_s: float) -> Any:
        if self._trace_path is None:
            return NULL_SPAN
        tracer = Tracer(self._trace_path, trace_id=self._trace_id, buffered=True)

        @contextlib.contextmanager
        def traced() -> Any:
            try:
                with tracer.span(
                    "serve.batch_window",
                    {"jobs": jobs, "queue_wait_s": queue_wait_s},
                ) as span:
                    yield span
            finally:
                tracer.close()

        return traced()
