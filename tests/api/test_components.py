"""Edge-case tests of the API support pieces: overlay store, counters,
fault summaries, result renderings and the lazy package surface."""

import pytest

import repro.api
from repro.analysis.faults import render_fault_summary, summarize_fault_results
from repro.api.jobs import CharacterizeJob
from repro.api.results import StorePruneResult, StoreStatsResult
from repro.api.session import DEFAULT_STORE, Session
from repro.core.store import MemoryOverlayStore, StoreDiskStats, SweepResultStore
from repro.core.sweep import record_simulated_units, simulated_unit_count
from repro.simulation.fault_injection import (
    FaultSimulationResult,
    StuckAtFault,
    fault_coverage,
)


KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


class TestMemoryOverlayStore:
    def test_pure_memory_round_trip(self):
        overlay = MemoryOverlayStore()
        assert overlay.backing is None
        assert overlay.get(KEY_A) is None
        overlay.put(KEY_A, {"a": 1})
        assert overlay.get(KEY_A) == {"a": 1}
        assert len(overlay) == 1

    def test_reads_through_and_memoises_the_backing_store(self, tmp_path):
        backing = SweepResultStore(tmp_path)
        backing.put(KEY_A, {"a": 1})
        overlay = MemoryOverlayStore(backing)
        assert overlay.get(KEY_A) == {"a": 1}
        backing.clear()  # memoised: later reads never touch the disk again
        assert overlay.get(KEY_A) == {"a": 1}

    def test_writes_through_to_the_backing_store(self, tmp_path):
        backing = SweepResultStore(tmp_path)
        overlay = MemoryOverlayStore(backing)
        overlay.put(KEY_A, {"a": 2})
        assert backing.get(KEY_A) == {"a": 2}

    def test_lru_eviction_bounds_the_memory_layer(self):
        overlay = MemoryOverlayStore(max_entries=2)
        overlay.put(KEY_A, {"v": 1})
        overlay.put(KEY_B, {"v": 2})
        assert overlay.get(KEY_A) == {"v": 1}  # refresh: "b" is now oldest
        overlay.put(KEY_C, {"v": 3})
        assert len(overlay) == 2
        assert overlay.get(KEY_B) is None
        assert overlay.get(KEY_A) == {"v": 1} and overlay.get(KEY_C) == {"v": 3}

    def test_eviction_falls_back_to_the_backing_store(self, tmp_path):
        backing = SweepResultStore(tmp_path)
        overlay = MemoryOverlayStore(backing, max_entries=1)
        overlay.put(KEY_A, {"v": 1})
        overlay.put(KEY_B, {"v": 2})  # evicts "a" from memory only
        assert overlay.get(KEY_A) == {"v": 1}  # re-read from disk

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError, match="max_entries"):
            MemoryOverlayStore(max_entries=0)


class TestSimulationCounter:
    def test_monotonic_and_validated(self):
        before = simulated_unit_count()
        record_simulated_units(3)
        assert simulated_unit_count() == before + 3
        with pytest.raises(ValueError, match="non-negative"):
            record_simulated_units(-1)


def _fault(net, detected, ber):
    return FaultSimulationResult(
        fault=StuckAtFault(net=net, stuck_value=bool(net % 2)),
        detected=detected,
        faulty_vector_fraction=ber,
        ber=ber,
    )


class TestFaultSummaries:
    def test_undetected_faults_are_listed(self):
        results = [_fault(0, True, 0.2), _fault(1, False, 0.0), _fault(2, True, 0.4)]
        summary = summarize_fault_results(results, top_n=1)
        assert summary.n_faults == 3 and summary.detected == 2
        assert summary.coverage == pytest.approx(2 / 3)
        assert summary.undetected == ("n1/sa1",)
        assert [r.fault.net for r in summary.worst] == [2]
        text = render_fault_summary("rca8", 100, summary)
        assert "undetected: n1/sa1" in text
        assert "n2/sa0" in text

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError, match="no results"):
            summarize_fault_results([])
        with pytest.raises(ValueError, match="top_n"):
            summarize_fault_results([_fault(0, True, 0.1)], top_n=-1)

    def test_fault_coverage_of_empty_list_is_zero(self):
        assert fault_coverage([]) == 0.0


class TestSessionStoreResolution:
    def test_default_sentinel_opens_the_default_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        session = Session(store=DEFAULT_STORE)
        assert session.store is not None
        assert str(session.store.root) == str(tmp_path / "env-cache")

    def test_ready_store_used_as_is(self, tmp_path):
        store = SweepResultStore(tmp_path)
        assert Session(store=store).store is store

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            Session(store=None, jobs=0)


class TestRenderEdges:
    def test_store_stats_render_without_entries_has_no_age_span(self):
        result = StoreStatsResult(
            root="/tmp/x",
            stats=StoreDiskStats(
                entries=0, total_bytes=0, oldest_mtime=None, newest_mtime=None
            ),
        )
        assert "age span" not in result.render()
        assert result.to_json()["entries"] == 0

    def test_store_prune_result_json(self):
        result = StorePruneResult(
            root="/tmp/x",
            removed=3,
            stats=StoreDiskStats(
                entries=2, total_bytes=64, oldest_mtime=1.0, newest_mtime=2.0
            ),
        )
        assert result.to_json()["removed"] == 3
        assert "pruned 3 entries" in result.render()


class TestLazyPackageSurface:
    def test_all_exports_resolve(self):
        for name in repro.api.__all__:
            assert hasattr(repro.api, name), name

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.api.does_not_exist

    def test_dir_lists_exports(self):
        assert "Session" in dir(repro.api)


class TestCliSessionWiring:
    def test_batch_jobs_flag_becomes_the_session_default(self):
        from repro.cli import _session, build_parser

        args = build_parser().parse_args(["batch", "jobs.json", "--jobs", "3"])
        assert _session(args)._jobs_for(CharacterizeJob(operator="rca4")) == 3

    def test_commands_without_jobs_flag_default_to_serial(self):
        from repro.cli import _session, build_parser

        args = build_parser().parse_args(["store", "stats"])
        assert _session(args)._jobs_for(CharacterizeJob(operator="rca4")) == 1
