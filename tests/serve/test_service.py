"""End-to-end service tests over real sockets.

Each test drives the full path: HTTP parse -> rate limit -> typed-job
validation -> admission queue -> batch window -> session -> result
distribution.  Jobs are deliberately tiny (`synthesize`, or 240-vector
characterizations) so the suite stays fast.
"""

import asyncio

import pytest

from repro.api.jobs import job_from_json
from repro.api.session import Session
from repro.serve import ServeConfig
from _serve_helpers import (
    gated_session,
    http_get,
    http_post,
    running_service,
    wait_busy,
    wait_terminal,
)

SYNTH = {"type": "synthesize", "operators": ["rca8"]}
CHARACTERIZE = {
    "type": "characterize",
    "operator": "rca8",
    "pattern": {"vectors": 240},
}


def run(coro):
    asyncio.run(coro)


class TestEndpoints:
    def test_healthz_reports_liveness(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                status, doc = await loop.run_in_executor(
                    None, http_get, service.port, "/v1/healthz"
                )
                assert status == 200
                assert doc["status"] == "ok"
                assert doc["queued"] == 0

        run(main())

    def test_submit_poll_result_and_events(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                status, doc, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH
                )
                assert status == 202
                assert doc["status"] == "queued"
                final = await wait_terminal(service.port, doc["id"])
                assert final["status"] == "done"
                assert final["type"] == "synthesize"
                assert final["batch"]["jobs"] == 1
                assert "result" in final and "run" in final
                # The served result body must be the typed result document.
                direct = Session(store=None).run(job_from_json(SYNTH))
                expected = direct.to_json()
                expected.pop("run", None)
                assert final["result"] == expected

                status, raw = await loop.run_in_executor(
                    None, http_get, service.port, f"/v1/jobs/{doc['id']}/events", False
                )
                lines = raw.decode().splitlines()
                assert status == 200
                assert any(line.startswith("queued") for line in lines)
                assert any(line.startswith("running") for line in lines)
                assert any(line.startswith("done") for line in lines)

        run(main())

    def test_invalid_job_is_rejected_at_admission(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                status, doc, _ = await loop.run_in_executor(
                    None, http_post, service.port, {"type": "wibble"}
                )
                assert status == 400
                assert "unknown job type" in doc["error"]
                status, doc, _ = await loop.run_in_executor(
                    None,
                    http_post,
                    service.port,
                    {"type": "characterize", "operator": "rca8", "bogus": 1},
                )
                assert status == 400
                assert "bogus" in doc["error"]

        run(main())

    def test_removed_and_too_wide_jobs_are_rejected_at_admission(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                status, doc, _ = await loop.run_in_executor(
                    None, http_post, service.port, {"type": "store-migrate"}
                )
                assert status == 400
                assert "unknown job type" in doc["error"]
                status, doc, _ = await loop.run_in_executor(
                    None,
                    http_post,
                    service.port,
                    {"type": "characterize", "operator": "rca62"},
                )
                assert status == 400
                assert "rca62 has a 63-bit result" in doc["error"]

        run(main())

    def test_unknown_job_and_route_are_404(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                status, _ = await loop.run_in_executor(
                    None, http_get, service.port, "/v1/jobs/deadbeef"
                )
                assert status == 404
                status, _ = await loop.run_in_executor(
                    None, http_get, service.port, "/v2/nope"
                )
                assert status == 404

        run(main())

    def test_stats_exposes_all_tiers(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                status, doc = await loop.run_in_executor(
                    None, http_get, service.port, "/v1/stats"
                )
                assert status == 200
                for key in (
                    "server",
                    "queue",
                    "rate_limiter",
                    "hot_results",
                    "overlay",
                    "store",
                    "metrics",
                ):
                    assert key in doc
                assert doc["overlay"]["max_entries"] > 0
                assert "serve.requests" in doc["metrics"]

        run(main())


    def test_stats_metrics_carry_the_planner_unit_counters(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                status, doc = await loop.run_in_executor(
                    None, http_get, service.port, "/v1/stats"
                )
                assert status == 200
                for name in (
                    "planned_units",
                    "deduped_units",
                    "cache_hits",
                    "simulated_units",
                ):
                    assert f"sweep.{name}" in doc["metrics"]
                assert not [key for key in doc["metrics"] if key.startswith("batch.")]

        run(main())


class TestHotTier:
    def test_identical_resubmission_is_served_hot(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                _, first, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH
                )
                final = await wait_terminal(service.port, first["id"])
                _, second, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH
                )
                assert second["hot"] is True
                assert second["status"] == "done"
                hot_final = await wait_terminal(service.port, second["id"])
                assert hot_final["hot"] is True
                assert hot_final["result"] == final["result"]

        run(main())

    def test_store_admin_jobs_are_never_hot_cached(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                job = {"type": "store-stats"}
                _, first, _ = await loop.run_in_executor(
                    None, http_post, service.port, job
                )
                await wait_terminal(service.port, first["id"])
                _, second, _ = await loop.run_in_executor(
                    None, http_post, service.port, job
                )
                # Mutable-state jobs recompute: admission never marks them hot.
                assert second["hot"] is False

        run(main())

    def test_hot_tier_can_be_disabled(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(
                tmp_path / "store", hot_entries=0
            ) as service:
                _, first, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH
                )
                await wait_terminal(service.port, first["id"])
                _, second, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH
                )
                assert second["hot"] is False

        run(main())


class TestRateLimit:
    def test_burst_exhaustion_yields_429_with_retry_after(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(
                tmp_path / "store", rate_per_s=0.001, burst=2
            ) as service:
                for _ in range(2):
                    status, _, _ = await loop.run_in_executor(
                        None, http_post, service.port, SYNTH, "burster"
                    )
                    assert status == 202
                status, doc, headers = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH, "burster"
                )
                assert status == 429
                assert float(headers["Retry-After"]) > 0
                # Other clients are unaffected by one client's burst.
                status, _, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH, "patient"
                )
                assert status == 202

        run(main())


class TestDrain:
    def test_draining_service_refuses_new_jobs_and_finishes_old(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            # The gate holds the first job's window running and the second
            # job queued while the drain probe runs, so the sequence is
            # deterministic.
            session = gated_session(tmp_path / "store")
            async with running_service(
                tmp_path / "store", session=session
            ) as service:
                _, running, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH
                )
                await wait_busy(session)
                _, queued, _ = await loop.run_in_executor(
                    None, http_post, service.port, CHARACTERIZE
                )
                service.request_drain()
                status, refused, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH
                )
                assert status == 503
                assert "draining" in refused["error"]
                session.gate.set()
                # The in-flight and the queued job still run to completion;
                # wait on the records themselves -- the listener may close
                # right after.
                for doc in (running, queued):
                    record = service._records[doc["id"]]
                    await asyncio.wait_for(record.done.wait(), timeout=60)
                    assert record.state == "done"
            # exiting the context asserts the run() exit code is 0

        run(main())


class TestFailures:
    def test_job_failure_is_reported_not_fatal(self, tmp_path):
        async def main():
            loop = asyncio.get_running_loop()
            async with running_service(tmp_path / "store") as service:
                # speculate needs a dataset file; a missing one is a
                # SessionError at execution time, not admission time.
                job = {
                    "type": "speculate",
                    "dataset": str(tmp_path / "missing.json"),
                    "margin": 0.1,
                }
                _, doc, _ = await loop.run_in_executor(
                    None, http_post, service.port, job
                )
                final = await wait_terminal(service.port, doc["id"])
                assert final["status"] == "failed"
                assert final["error"]
                # The service survives: the next job runs fine.
                _, ok, _ = await loop.run_in_executor(
                    None, http_post, service.port, SYNTH
                )
                assert (await wait_terminal(service.port, ok["id"]))[
                    "status"
                ] == "done"

        run(main())


class TestConfigValidation:
    def test_serve_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch_jobs=0)
        with pytest.raises(ValueError):
            ServeConfig(rate_per_s=0)
        with pytest.raises(ValueError):
            ServeConfig(burst=0)
        with pytest.raises(ValueError):
            ServeConfig(hot_entries=-1)
        with pytest.raises(ValueError):
            ServeConfig(max_records=0)
