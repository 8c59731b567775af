"""Closed-loop HTTP load generator for ``repro serve`` (stdlib asyncio).

Each client sends its next request only after the previous one completed,
so a slow server receives less load.  One request is the full job cycle a
user waits on: ``POST /v1/jobs``, follow ``/v1/jobs/<id>/events`` to its
end, then ``GET /v1/jobs/<id>``.  Its latency runs from the POST to the
result read.  Any non-2xx status -- a 429 or 503 included -- or a job that
did not finish counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from typing import Any, Sequence

#: Seconds one HTTP exchange may take before the operation counts as failed.
REQUEST_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Outcome:
    """What one operation of the load produced."""

    index: int
    latency_s: float
    ok: bool
    status: int
    result: dict[str, Any] | None = None
    hot: bool = False
    run: dict[str, Any] | None = None
    error: str = ""


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    headers: dict[str, str] | None = None,
) -> tuple[int, bytes]:
    """One request on its own connection; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}"]
        lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
        lines += [f"Content-Length: {len(body)}", "Connection: close", "", ""]
        writer.write("\r\n".join(lines).encode("latin-1") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2 or not status_line[1].isdigit():
        raise ConnectionError(f"malformed response to {method} {path}")
    return int(status_line[1]), payload


async def _job_cycle(
    host: str, port: int, client: str, index: int, document: dict[str, Any]
) -> Outcome:
    headers = {"Content-Type": "application/json", "X-Client": client}
    start = time.perf_counter()
    status, body = await http_request(
        host, port, "POST", "/v1/jobs", json.dumps(document, sort_keys=True).encode(), headers
    )
    if status != 202:
        return Outcome(index, time.perf_counter() - start, False, status,
                       error=body.decode("utf-8", "replace")[:200])
    job_id = json.loads(body)["id"]
    status, _ = await http_request(host, port, "GET", f"/v1/jobs/{job_id}/events")
    if status != 200:
        return Outcome(index, time.perf_counter() - start, False, status)
    status, body = await http_request(host, port, "GET", f"/v1/jobs/{job_id}")
    latency = time.perf_counter() - start
    if status != 200:
        return Outcome(index, latency, False, status)
    record = json.loads(body)
    done = record.get("status") == "done" and "result" in record
    return Outcome(
        index,
        latency,
        done,
        status,
        result=record.get("result"),
        hot=bool(record.get("hot")),
        run=record.get("run"),
        error="" if done else str(record.get("error", record.get("status"))),
    )


async def run_closed_loop(
    host: str, port: int, documents: Sequence[dict[str, Any]], clients: int
) -> list[Outcome]:
    """Send every document once through ``clients`` closed-loop clients.

    Clients take the next unsent document in order; outcomes come back in
    document order.
    """
    outcomes: list[Outcome | None] = [None] * len(documents)
    cursor = iter(range(len(documents)))

    async def client_loop(name: str) -> None:
        for index in cursor:
            start = time.perf_counter()
            try:
                outcome = await asyncio.wait_for(
                    _job_cycle(host, port, name, index, documents[index]),
                    REQUEST_TIMEOUT_S,
                )
            except (OSError, asyncio.TimeoutError, KeyError, ValueError) as error:
                outcome = Outcome(index, time.perf_counter() - start, False, 0,
                                  error=f"{type(error).__name__}: {error}")
            outcomes[index] = outcome

    await asyncio.gather(*(client_loop(f"bench-{n}") for n in range(clients)))
    return [outcome for outcome in outcomes if outcome is not None]
