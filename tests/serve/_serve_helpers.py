"""Shared plumbing for serving-layer tests.

The service runs on the test's own event loop; HTTP clients run on
executor threads with stdlib ``http.client``, so requests exercise the
real socket path end to end.  Window composition is made deterministic by
:class:`GatedSession`, never by timing: holding its gate keeps one window
running, so every job posted meanwhile queues up for the next window.
"""

import asyncio
import contextlib
import http.client
import json
import threading

import pytest

from repro.api.options import StoreOptions
from repro.api.session import Session
from repro.serve import CharacterizationService, ServeConfig


#: Longest a gated window waits for its gate, so a failing test cannot
#: hang the drain forever.
GATE_TIMEOUT_S = 60.0


class GatedSession(Session):
    """A session whose ``run_batch`` blocks until :attr:`gate` is set.

    :attr:`busy` is set as soon as a window enters ``run_batch``, so a test
    can wait for the service to be busy before posting the jobs that must
    share the next window.  Once set, the gate stays open.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.busy = threading.Event()

    def run_batch(self, jobs):
        self.busy.set()
        self.gate.wait(GATE_TIMEOUT_S)
        return super().run_batch(jobs)


def gated_session(store_dir):
    """A :class:`GatedSession` over a store in ``store_dir``, closed gate."""
    return GatedSession.from_options(StoreOptions(cache_dir=str(store_dir)), jobs=1)


async def wait_busy(session):
    """Wait until a window of ``session`` is blocked on its gate."""
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, session.busy.wait, GATE_TIMEOUT_S)


@contextlib.asynccontextmanager
async def running_service(store_dir, *, trace=None, session=None, **config):
    """A started service on an ephemeral port, drained on exit."""
    if session is None:
        session = Session.from_options(
            StoreOptions(cache_dir=str(store_dir)), jobs=1
        )
    service = CharacterizationService(
        session, ServeConfig(port=0, **config), trace=trace
    )
    await service.start()
    runner = asyncio.ensure_future(service.run(install_signal_handlers=False))
    try:
        yield service
    finally:
        service.request_drain()
        if isinstance(session, GatedSession):
            session.gate.set()
        assert await runner == 0


def http_post(port, body, client="tests", path="/v1/jobs"):
    """Blocking POST (run on an executor thread); returns (status, doc, headers)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(
            "POST", path, body=json.dumps(body, sort_keys=True), headers={"X-Client": client}
        )
        response = conn.getresponse()
        return (
            response.status,
            json.loads(response.read()),
            dict(response.getheaders()),
        )
    finally:
        conn.close()


def http_get(port, path, parse=True):
    """Blocking GET (run on an executor thread); returns (status, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if parse else raw
    finally:
        conn.close()


async def wait_terminal(port, job_id, budget_s=120.0):
    """Poll a job resource until done/failed; returns the final document."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + budget_s
    while True:
        status, doc = await loop.run_in_executor(
            None, http_get, port, f"/v1/jobs/{job_id}"
        )
        assert status == 200
        if doc["status"] in ("done", "failed"):
            return doc
        if loop.time() > deadline:
            pytest.fail(f"job {job_id} still {doc['status']} after {budget_s}s")
        await asyncio.sleep(0.05)
