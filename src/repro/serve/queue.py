"""Admission queue of the characterization service.

Submitted jobs become :class:`JobRecord` entries and wait in per-client
priority heaps inside :class:`AdmissionQueue`.  The batch loop drains the
queue in *windows* (:meth:`AdmissionQueue.take_window`): one pass picks at
most ``max_jobs`` records by cycling the clients round-robin, taking each
client's best-priority job per turn.  That is the fairness property the
ISSUE's serving layer needs -- a client flooding the queue with a thousand
jobs delays other clients by at most one job per window turn, while within
a single client higher ``priority`` values (then FIFO order) win.

The queue itself is plain data structures with no locking: it is only
touched from the event-loop thread.  Cross-thread coordination lives in
:mod:`repro.serve.service`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import heapq
import secrets
import time
from collections import deque
from typing import Any

from repro.api.jobs import job_type_name

__all__ = ["AdmissionQueue", "JobRecord", "JobState", "new_job_id"]


class JobState:
    """Lifecycle states of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    TERMINAL = frozenset({DONE, FAILED})


def new_job_id() -> str:
    """A short collision-resistant job identifier."""
    return secrets.token_hex(8)


@dataclasses.dataclass
class JobRecord:
    """Everything the service knows about one submitted job."""

    id: str
    client: str
    job: Any
    canonical: str
    priority: int = 0
    seq: int = 0
    state: str = JobState.QUEUED
    hot: bool = False
    events: list[str] = dataclasses.field(default_factory=list)
    result_json: str | None = None
    run: dict[str, Any] | None = None
    batch: dict[str, Any] | None = None
    error: str | None = None
    done: asyncio.Event = dataclasses.field(default_factory=asyncio.Event)
    #: Monotonic admission time; a window's queue wait runs from its
    #: oldest record's admission to the window's dispatch.
    admitted_s: float = dataclasses.field(default_factory=time.monotonic)

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def add_event(self, line: str) -> None:
        self.events.append(line)

    def describe(self) -> dict[str, Any]:
        """The job resource document served by ``GET /v1/jobs/<id>``."""
        doc: dict[str, Any] = {
            "id": self.id,
            "client": self.client,
            "type": job_type_name(self.job),
            "status": self.state,
            "priority": self.priority,
            "hot": self.hot,
            "events": len(self.events),
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.batch is not None:
            doc["batch"] = self.batch
        if self.run is not None:
            doc["run"] = self.run
        return doc


class AdmissionQueue:
    """Per-client priority heaps drained fairly, round-robin, in windows."""

    def __init__(self) -> None:
        self._heaps: dict[str, list[tuple[int, int, JobRecord]]] = {}
        self._rotation: deque[str] = deque()
        self._pending = 0

    @property
    def pending(self) -> int:
        """Number of queued (not yet windowed) jobs."""
        return self._pending

    @property
    def clients(self) -> int:
        """Number of clients with queued jobs."""
        return len(self._heaps)

    def add(self, record: JobRecord) -> None:
        heap = self._heaps.get(record.client)
        if heap is None:
            heap = self._heaps[record.client] = []
            self._rotation.append(record.client)
        # Max-priority first, FIFO within a priority.
        heapq.heappush(heap, (-record.priority, record.seq, record))
        self._pending += 1

    def take_window(self, max_jobs: int) -> list[JobRecord]:
        """Drain up to ``max_jobs`` records, one per client per turn.

        The rotation persists across windows, so a client served last in
        one window is served first in the next.
        """
        if max_jobs < 1:
            raise ValueError("max_jobs must be at least 1")
        window: list[JobRecord] = []
        while self._rotation and len(window) < max_jobs:
            client = self._rotation[0]
            self._rotation.rotate(-1)
            heap = self._heaps[client]
            _, _, record = heapq.heappop(heap)
            window.append(record)
            self._pending -= 1
            if not heap:
                del self._heaps[client]
                self._rotation.remove(client)
        return window

    def snapshot(self) -> dict[str, int]:
        return {"pending": self._pending, "clients": len(self._heaps)}
