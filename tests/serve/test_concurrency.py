"""Concurrent-client tests: the acceptance criteria of the serving layer.

N parallel clients submitting the same characterization against a cold
store while the service is busy must collapse into ONE batch window whose
planner dedups the overlapping work down to a single simulated pass -- and
every client must receive result JSON byte-identical to a direct
``Session.run`` of the same job.  Batching is busy-period: a job posted to
an idle service runs at once in a window of its own.
"""

import asyncio
import json

from _serve_helpers import (
    gated_session,
    http_get,
    http_post,
    running_service,
    wait_busy,
    wait_terminal,
)

from repro.api.jobs import job_from_json
from repro.api.session import Session
from repro.core.sweep import simulated_unit_count
from repro.obs import metrics
from repro.obs.report import load_trace, summarize_trace

CHARACTERIZE = {
    "type": "characterize",
    "operator": "rca8",
    "pattern": {"vectors": 240},
}
#: Holds the gated session busy; simulates nothing.
BLOCKER = {"type": "synthesize", "operators": ["rca8"]}


def grid_size() -> int:
    return len(Session(store=None).flow_for("rca8").default_triad_grid())


class TestOverlappingClients:
    def test_four_clients_one_simulated_pass_byte_identical_results(
        self, tmp_path
    ):
        clients = [f"client-{i}" for i in range(4)]

        async def main():
            loop = asyncio.get_running_loop()
            session = gated_session(tmp_path / "store")
            async with running_service(
                tmp_path / "store", session=session
            ) as service:
                before = simulated_unit_count()
                # The blocker's window holds the session busy, so all four
                # concurrent posts queue up and form the next window.
                _, blocker, _ = await loop.run_in_executor(
                    None, http_post, service.port, BLOCKER, "blocker"
                )
                await wait_busy(session)
                posts = [
                    loop.run_in_executor(
                        None, http_post, service.port, CHARACTERIZE, client
                    )
                    for client in clients
                ]
                submitted = await asyncio.gather(*posts)
                session.gate.set()
                await wait_terminal(service.port, blocker["id"])
                finals = await asyncio.gather(
                    *(
                        wait_terminal(service.port, doc["id"])
                        for _, doc, _ in submitted
                    )
                )
                simulated = simulated_unit_count() - before
                return submitted, finals, simulated

        submitted, finals, simulated = asyncio.run(main())
        units = grid_size()

        for status, doc, _ in submitted:
            assert status == 202
        assert all(final["status"] == "done" for final in finals)

        # Exactly one simulated pass over the distinct work units: the four
        # identical jobs shared one admission window, and the batch planner
        # deduplicated 3 of every 4 planned units.
        assert simulated == units
        for final in finals:
            report = final["batch"]
            assert report["jobs"] == len(finals)
            assert report["planned_units"] == len(finals) * units
            assert report["deduped_units"] == (len(finals) - 1) * units
            assert report["cache_hits"] == 0
            assert report["simulated_units"] == units

        # Byte-identity: every client's result document equals a direct
        # Session.run of the same job (modulo the per-run RunReport, which
        # the service serves separately under "run").
        direct = Session(store=None).run(job_from_json(CHARACTERIZE))
        expected_doc = direct.to_json()
        expected_doc.pop("run", None)
        expected = json.dumps(expected_doc, sort_keys=True)
        for final in finals:
            assert json.dumps(final["result"], sort_keys=True) == expected

    def test_burst_of_posts_hits_the_rate_limit(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(
                tmp_path / "store",
                rate_per_s=0.001,
                burst=2,
            ) as service:
                posts = [
                    loop.run_in_executor(
                        None,
                        http_post,
                        service.port,
                        CHARACTERIZE,
                        "bursty",
                    )
                    for _ in range(6)
                ]
                results = await asyncio.gather(*posts)
                admitted = [doc for status, doc, _ in results if status == 202]
                limited = [
                    (doc, headers)
                    for status, doc, headers in results
                    if status == 429
                ]
                assert len(admitted) == 2
                assert len(limited) == 4
                for doc, headers in limited:
                    assert float(headers["Retry-After"]) > 0
                    assert "rate" in doc["error"]
                for doc in admitted:
                    final = await wait_terminal(service.port, doc["id"])
                    assert final["status"] == "done"

        asyncio.run(main())


class TestBusyPeriodBatching:
    def test_job_posted_to_an_idle_service_runs_in_a_window_of_one(
        self, tmp_path
    ):
        async def main():
            loop = asyncio.get_running_loop()
            batches = metrics.REGISTRY.counter("serve.batches")
            async with running_service(tmp_path / "store") as service:
                before = batches.value
                _, doc, _ = await loop.run_in_executor(
                    None, http_post, service.port, CHARACTERIZE
                )
                final = await wait_terminal(service.port, doc["id"])
                assert batches.value - before == 1
                return final

        final = asyncio.run(main())
        assert final["status"] == "done"
        assert final["batch"]["jobs"] == 1
        assert final["batch"]["simulated_units"] == grid_size()

    def test_jobs_posted_while_a_window_runs_share_the_next_window(
        self, tmp_path
    ):
        trace = tmp_path / "serve.jsonl"
        distinct = [
            {**CHARACTERIZE, "pattern": {"vectors": 240, "seed": seed}}
            for seed in (1, 2, 3)
        ]

        async def main():
            loop = asyncio.get_running_loop()
            batches = metrics.REGISTRY.counter("serve.batches")
            session = gated_session(tmp_path / "store")
            async with running_service(
                tmp_path / "store", session=session, trace=str(trace)
            ) as service:
                before = batches.value
                _, blocker, _ = await loop.run_in_executor(
                    None, http_post, service.port, BLOCKER, "blocker"
                )
                await wait_busy(session)
                submitted = await asyncio.gather(
                    *(
                        loop.run_in_executor(
                            None, http_post, service.port, job, f"client-{i}"
                        )
                        for i, job in enumerate(distinct)
                    )
                )
                _, health = await loop.run_in_executor(
                    None, http_get, service.port, "/v1/healthz"
                )
                assert health["running"] == 1
                assert health["queued"] == len(distinct)
                session.gate.set()
                first = await wait_terminal(service.port, blocker["id"])
                finals = await asyncio.gather(
                    *(
                        wait_terminal(service.port, doc["id"])
                        for _, doc, _ in submitted
                    )
                )
                _, stats = await loop.run_in_executor(
                    None, http_get, service.port, "/v1/stats"
                )
                assert batches.value - before == 2
                return first, finals, stats

        first, finals, stats = asyncio.run(main())
        assert first["batch"]["jobs"] == 1
        for final in finals:
            assert final["status"] == "done"
            assert final["batch"]["jobs"] == len(distinct)
        assert stats["metrics"]["serve.queue_wait_s"]["count"] >= 2

        # Each window's span carries its queue wait, and the trace summary
        # totals them on its service line.
        windows = [r for r in load_trace(trace) if r["name"] == "serve.batch_window"]
        assert [r["attrs"]["jobs"] for r in windows] == [1, len(distinct)]
        waits = [r["attrs"]["queue_wait_s"] for r in windows]
        assert all(wait >= 0 for wait in waits)
        summary = summarize_trace(load_trace(trace))
        assert summary.service["queue_wait_s"] == sum(waits)
        assert "queue wait" in summary.render()
