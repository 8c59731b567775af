"""Tests of the benchmark's own pieces (run with pytest, ``PYTHONPATH=src``)."""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from perfbench import inputs, loadgen, run, stats

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert stats.min_samples_for(95) == 200
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile(list(range(200)), 95) == 189
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([1.0] * 10, 50)
    assert stats.percentile(list(range(20)), 50) == 9


async def _serve_fixed(handler):
    async def on_connection(reader, writer):
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.decode("latin-1").split("\r\n"):
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        await reader.readexactly(length)
        request_line = head.split(b"\r\n", 1)[0].decode()
        status, body = handler(request_line)
        writer.write(
            f"HTTP/1.1 {status} X\r\nConnection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
        writer.close()

    return await asyncio.start_server(on_connection, "127.0.0.1", 0)


def _closed_loop(handler, documents):
    async def main():
        server = await _serve_fixed(handler)
        port = server.sockets[0].getsockname()[1]
        try:
            return await loadgen.run_closed_loop("127.0.0.1", port, documents, 2)
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_load_generator_counts_429_as_failure():
    outcomes = _closed_loop(
        lambda line: (429, b'{"error": "over rate"}'), [{"type": "characterize"}] * 3
    )
    assert [o.index for o in outcomes] == [0, 1, 2]
    assert all(not o.ok and o.status == 429 for o in outcomes)


def test_load_generator_completes_a_job_cycle():
    def handler(line):
        if line.startswith("POST /v1/jobs "):
            return 202, b'{"id": "j1", "status": "queued", "hot": false}'
        if line.startswith("GET /v1/jobs/j1/events "):
            return 200, b"queued\ndone\n"
        return 200, b'{"status": "done", "hot": true, "result": {"x": 1}}'

    (outcome,) = _closed_loop(handler, [{"type": "characterize"}])
    assert outcome.ok and outcome.hot and outcome.result == {"x": 1}


GENERATORS = {
    "sweep-cold": inputs.sweep_cold_jobs,
    "serve-mix": inputs.serve_requests,
}


def _synthetic_rounds(documents):
    count = len(documents)
    return [
        {
            "latencies_s": [0.01 + i * 1e-4 for i in range(count)] * 3,
            "ok": [True] * (3 * count),
            "wall_s": 1.0 + r,
            "work": count,
            "rss_mb": 50.0,
            "setup_s": 0.5,
        }
        for r in range(3)
    ]


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_seed_changes_inputs_not_metric_names(workload):
    first, second = GENERATORS[workload](1), GENERATORS[workload](2)
    assert first != second
    assert GENERATORS[workload](1) == first
    names = set()
    for documents in (first, second):
        rounds = _synthetic_rounds(documents)
        values = run.end_to_end(rounds, [0.5], WORKLOADS[workload])
        names.add(frozenset(values))
    assert names == {frozenset(m["name"] for m in BENCHMARK["end_to_end"])}


def test_layer_values_name_every_per_layer_metric():
    values = run.layer_values(
        records=[],
        traced={"wall_s": 1.0},
        overhead=1.0,
        store={"store.open_s": 0.01, "store.index_entries": 1, "store.segments": 1},
        imports=[0.4],
        ready=[0.5],
    )
    assert set(values) == {m["name"] for m in BENCHMARK["per_layer"]}
