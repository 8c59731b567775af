"""End-to-end observability tests: traced runs, span trees, byte identity."""

import json
import os

import pytest

from repro.api.jobs import CharacterizeJob
from repro.api.options import PatternOptions
from repro.api.session import Session
from repro.cli import main
from repro.core.resilience import ExecutionReport
from repro.obs import clock as obs_clock
from repro.obs.report import RunReport, load_trace, summarize_trace, validate_trace

SMALL = PatternOptions(vectors=64)


def span_index(records):
    return {record["span_id"]: record for record in records}


def by_name(records, name):
    return [record for record in records if record["name"] == name]


class TestTracedShardedRun:
    @pytest.fixture()
    def traced_run(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        session = Session(store=tmp_path / "store", jobs=2, trace=trace)
        result = session.run(CharacterizeJob(operator="rca8", pattern=SMALL))
        return result, load_trace(trace)

    def test_trace_validates_against_schema(self, traced_run):
        _, records = traced_run
        assert validate_trace(records) == []

    def test_span_tree_covers_every_level(self, traced_run):
        result, records = traced_run
        names = {record["name"] for record in records}
        assert {
            "session",
            "job",
            "sweep",
            "dispatch",
            "sweep.shard",
            "engine.pass",
            "store.lookup",
            "store.flush",
        } <= names

        spans = span_index(records)
        (session_span,) = by_name(records, "session")
        assert session_span["parent_id"] is None
        (job_span,) = by_name(records, "job")
        assert job_span["parent_id"] == session_span["span_id"]
        assert job_span["attrs"]["type"] == "CharacterizeJob"
        (sweep_span,) = by_name(records, "sweep")
        assert sweep_span["parent_id"] == job_span["span_id"]
        assert sweep_span["attrs"]["kind"] == "characterization"

        shards = by_name(records, "sweep.shard")
        assert shards
        for shard in shards:
            # Worker spans re-parent under the sweep span of the parent
            # process, with the queue wait measured from task creation.
            assert shard["parent_id"] == sweep_span["span_id"]
            assert shard["attrs"]["queue_wait_s"] >= 0.0
            # The worker's own peak memory, read at shard end.
            assert shard["attrs"]["peak_rss_mb"] > 0.0
            assert spans[shard["parent_id"]]["pid"] == os.getpid()
        assert {shard["pid"] for shard in shards} != {os.getpid()}

    def test_worker_spans_nest_under_their_shard(self, traced_run):
        _, records = traced_run
        shard_ids = {s["span_id"] for s in by_name(records, "sweep.shard")}
        passes = by_name(records, "engine.pass")
        assert passes
        worker_passes = [p for p in passes if p["pid"] != os.getpid()]
        assert worker_passes
        for record in worker_passes:
            assert record["parent_id"] in shard_ids

    def test_one_arrival_pass_per_shard(self, traced_run):
        """Every operating point of a shard scales one unit-tau pass."""
        _, records = traced_run
        arrivals = [
            record
            for record in by_name(records, "engine.pass")
            if record["attrs"]["kind"] == "arrival"
        ]
        shard_ids = [s["span_id"] for s in by_name(records, "sweep.shard")]
        assert sorted(r["parent_id"] for r in arrivals) == sorted(shard_ids)

    def test_summary_funnel_matches_run_report(self, traced_run):
        result, records = traced_run
        summary = summarize_trace(records)
        assert summary.roots == 1
        assert summary.funnel["units"] == 43
        assert summary.funnel["cached"] == 0
        assert summary.funnel["simulated"] == 43
        assert summary.funnel["simulated"] == result.run.simulated_units
        assert summary.shards == len(by_name(records, "sweep.shard"))

    def test_run_report_is_counters_only(self, traced_run):
        result, _ = traced_run
        assert isinstance(result.run, RunReport)
        assert isinstance(result.run.execution, ExecutionReport)
        assert result.run.simulated_units == 43
        assert result.run.store["misses"] == 43
        assert result.run.store["stores"] == 43
        document = result.to_json()["run"]
        assert set(document) == {"simulated_units", "execution", "store"}

    def test_warm_rerun_traces_a_cached_sweep(self, tmp_path, traced_run):
        del traced_run  # cold run populated nothing here; build our own pair
        store = tmp_path / "warm-store"
        Session(store=store, jobs=1).run(
            CharacterizeJob(operator="rca8", pattern=SMALL)
        )
        trace = tmp_path / "warm.jsonl"
        result = Session(store=store, jobs=1, trace=trace).run(
            CharacterizeJob(operator="rca8", pattern=SMALL)
        )
        summary = summarize_trace(load_trace(trace))
        assert summary.funnel["cached"] == 43
        assert summary.funnel["simulated"] == 0
        assert result.run.simulated_units == 0
        assert result.run.store["hits"] == 43


class TestByteIdentity:
    @pytest.fixture()
    def frozen_store_clock(self, monkeypatch):
        """Pin wall time once at the repro.obs.clock seam (reaches the
        store's pack-index stamps and every other timestamp alike)."""
        monkeypatch.setattr(obs_clock, "wall_time", lambda: 1.7e9)

    def run_cli(self, capsys, cache_dir, jobs, trace=None):
        argv = [
            "characterize",
            "--architecture",
            "rca",
            "--width",
            "8",
            "--vectors",
            "64",
            "--jobs",
            str(jobs),
            "--cache-dir",
            str(cache_dir),
        ]
        if trace is not None:
            argv += ["--trace", str(trace)]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_stdout_identical_traced_vs_untraced_sharded(self, tmp_path, capsys):
        untraced = self.run_cli(capsys, tmp_path / "a", jobs=2)
        traced = self.run_cli(
            capsys, tmp_path / "b", jobs=2, trace=tmp_path / "t.jsonl"
        )
        assert traced == untraced
        assert (tmp_path / "t.jsonl").exists()

    def test_json_output_identical_traced_vs_untraced(self, tmp_path, capsys):
        argv = ["--vectors", "64", "--json", "--no-cache"]
        assert main(["characterize", *argv]) == 0
        untraced = capsys.readouterr().out
        assert (
            main(["characterize", *argv, "--trace", str(tmp_path / "t.jsonl")])
            == 0
        )
        traced = capsys.readouterr().out
        assert traced == untraced
        assert json.loads(traced)["run"]["simulated_units"] == 43

    def test_store_bytes_identical_traced_vs_untraced(
        self, tmp_path, capsys, frozen_store_clock
    ):
        def store_bytes(root):
            packs = sorted((root / "packs").iterdir())
            return [(path.suffix, path.read_bytes()) for path in packs]

        self.run_cli(capsys, tmp_path / "a", jobs=1)
        self.run_cli(capsys, tmp_path / "b", jobs=1, trace=tmp_path / "t.jsonl")
        assert store_bytes(tmp_path / "a") == store_bytes(tmp_path / "b")


class TestTraceCli:
    def test_summary_and_validate(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        Session(store=None, jobs=2, trace=trace).run(
            CharacterizeJob(operator="rca8", pattern=SMALL)
        )
        assert main(["trace", "validate", str(trace)]) == 0
        assert "schema OK" in capsys.readouterr().out

        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "cache funnel: 43 unit(s) requested" in out
        assert "sweep.shard" in out

        assert main(["trace", "summary", str(trace), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["funnel"]["units"] == 43

    def test_validate_flags_a_broken_trace(self, tmp_path, capsys):
        trace = tmp_path / "broken.jsonl"
        trace.write_text(
            json.dumps(
                {
                    "trace_id": "t",
                    "span_id": "s1",
                    "parent_id": "ghost",
                    "name": "sweep",
                    "pid": 1,
                    "t0_s": 0.0,
                    "wall_s": 0.0,
                    "cpu_s": 0.0,
                    "attrs": {},
                },
                sort_keys=True,
            )
            + "\n"
        )
        assert main(["trace", "validate", str(trace)]) == 1
        assert "does not resolve" in capsys.readouterr().err

    def test_missing_trace_file_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "summary", str(tmp_path / "absent.jsonl")])


class TestStoreStatsJson:
    def test_store_stats_json(self, tmp_path, capsys):
        cache = tmp_path / "store"
        Session(store=cache, jobs=1).run(
            CharacterizeJob(operator="rca8", pattern=SMALL)
        )
        assert main(["store", "stats", "--cache-dir", str(cache), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["entries"] == 43
        assert document["root"] == str(cache)
