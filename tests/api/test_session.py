"""Tests of the Session facade: every workflow through one entry point."""

import json

import pytest

from repro.api.jobs import (
    CalibrateJob,
    CharacterizeJob,
    ExploreJob,
    FaultSweepJob,
    Fig5Job,
    MonteCarloJob,
    SpeculateJob,
    StoreMigrateJob,
    StorePruneJob,
    StoreStatsJob,
    SynthesizeJob,
    Table4Job,
)
from repro.api.options import PatternOptions, StoreOptions, SweepOptions
from repro.api.results import (
    CharacterizeResult,
    ExploreResult,
    FaultSweepResult,
    Fig5Result,
    MonteCarloResult,
    SpeculateResult,
    SynthesizeResult,
    Table4Result,
)
from repro.api.session import Session
from repro.core.characterization import AdderCharacterization
from repro.core.dataset import save_characterization


@pytest.fixture()
def session():
    """Uncached session (in-memory overlay only)."""
    return Session(store=None)


SMALL = PatternOptions(vectors=240)


class TestSessionRuns:
    def test_synthesize(self, session):
        result = session.run(SynthesizeJob(operators=("rca8", "bka8")))
        assert isinstance(result, SynthesizeResult)
        assert [report.design_name for report in result.reports] == ["rca8", "bka8"]
        assert "Critical Path" in result.render()
        assert len(result.to_json()["reports"]) == 2

    def test_characterize_returns_structured_data(self, session, tmp_path):
        output = tmp_path / "ds.json"
        result = session.run(
            CharacterizeJob(operator="rca8", pattern=SMALL, output=str(output))
        )
        assert isinstance(result, CharacterizeResult)
        assert isinstance(result.characterization, AdderCharacterization)
        assert result.characterization.adder_name == "rca8"
        assert output.exists()
        assert f"saved characterization to {output}" in result.render()
        assert result.to_json()["adder_name"] == "rca8"
        # the saved dataset is exactly the JSON form of the typed result,
        # minus the session-attached "run" accounting (not persisted)
        document = result.to_json()
        assert document.pop("run") is not None
        assert json.loads(output.read_text()) == document

    def test_table4_mixes_files_and_names(self, session, tmp_path, rca8_characterization):
        dataset = tmp_path / "c.json"
        save_characterization(rca8_characterization, dataset)
        result = session.run(
            Table4Job(datasets=(str(dataset), "bka8"), vectors=240)
        )
        assert isinstance(result, Table4Result)
        assert set(result.characterizations) == {"rca8", "bka8"}
        assert "BER Range" in result.render()
        assert set(result.to_json()["summaries"]) == {"rca8", "bka8"}

    def test_table4_missing_file_is_an_error(self, session):
        with pytest.raises(ValueError, match="dataset file not found"):
            session.run(Table4Job(datasets=("no-such-file.json",)))

    def test_table4_malformed_operator_name_is_a_session_error(self, session):
        from repro.api.session import SessionError

        with pytest.raises(SessionError, match="cannot parse adder name"):
            session.run(Table4Job(datasets=("nosuch8",)))

    def test_fig5(self, session):
        result = session.run(
            Fig5Job(operator="rca8", supply_voltages=(0.6,), vectors=240)
        )
        assert isinstance(result, Fig5Result)
        assert len(result.series) == 1 and result.series[0].vdd == 0.6
        assert len(result.series[0].ber_per_bit) == 9
        assert "bit 0" in result.render()
        payload = result.to_json()
        assert payload["series"][0]["vdd"] == 0.6
        assert len(payload["series"][0]["ber_per_bit"]) == 9

    def test_calibrate(self, session, tmp_path):
        output = tmp_path / "table.json"
        result = session.run(
            CalibrateJob(
                operator="rca8",
                tclk_ns=0.28,
                vdd=0.6,
                pattern=SMALL,
                output=str(output),
            )
        )
        assert output.exists()
        assert result.table.width == 8
        assert "hardware BER" in result.render()
        assert f"saved probability table to {output}" in result.render()
        assert result.to_json()["width"] == 8

    def test_speculate(self, session, tmp_path, rca8_characterization):
        dataset = tmp_path / "c.json"
        save_characterization(rca8_characterization, dataset)
        result = session.run(SpeculateJob(dataset=str(dataset), margin=0.1))
        assert isinstance(result, SpeculateResult)
        assert result.accurate.ber <= 0.1
        assert "accurate mode" in result.render()
        assert set(result.to_json()) == {"margin", "accurate", "approximate", "run"}

    def test_explore(self, session, tmp_path):
        frontier = tmp_path / "frontier.json"
        job = ExploreJob(
            architectures=("rca",),
            widths=(8,),
            windows=("none", 8),
            clock_scales=(1.0,),
            supply_voltages=(0.5,),
            body_bias_voltages=(2.0,),
            strategy="exhaustive",
            vectors=240,
            frontier=str(frontier),
        )
        result = session.run(job)
        assert isinstance(result, ExploreResult)
        assert result.search.strategy == "exhaustive"
        assert any("window 8 does not fit width 8" in note for note in result.notes)
        assert frontier.exists()
        assert "Pareto frontier" in result.render()
        assert result.to_json()["frontier"]["points"]

    def test_explore_corrupt_frontier_is_an_error(self, session, tmp_path):
        frontier = tmp_path / "frontier.json"
        frontier.write_text("{ truncated")
        job = ExploreJob(
            architectures=("rca",), widths=(8,), vectors=240, frontier=str(frontier)
        )
        with pytest.raises(ValueError, match="cannot resume"):
            session.run(job)

    def test_montecarlo(self, session):
        result = session.run(
            MonteCarloJob(
                operator="rca8", pattern=SMALL, samples=6, supply_voltages=(0.8, 0.5)
            )
        )
        assert isinstance(result, MonteCarloResult)
        assert len(result.results) == 2
        assert all(len(entry.ber_samples) == 6 for entry in result.results)
        assert "Yield vs Vdd" in result.render()
        payload = result.to_json()
        assert payload["samples"] == 6 and len(payload["triads"]) == 2

    def test_faults(self, session):
        result = session.run(
            FaultSweepJob(operator="rca8", pattern=PatternOptions(vectors=128))
        )
        assert isinstance(result, FaultSweepResult)
        assert result.summary.n_faults == len(result.results)
        assert 0.0 < result.summary.coverage <= 1.0
        assert "stuck-at faults" in result.render()
        assert result.to_json()["n_faults"] == result.summary.n_faults

    def test_store_jobs(self, tmp_path):
        session = Session(store=tmp_path / "cache")
        session.run(CharacterizeJob(operator="rca8", pattern=SMALL))
        stats = session.run(StoreStatsJob())
        assert stats.stats.entries == 43
        assert "entries" in stats.render()
        pruned = session.run(StorePruneJob(max_entries=5))
        assert pruned.removed == 38 and pruned.stats.entries == 5
        assert "pruned 38 entries" in pruned.render()

    def test_store_migrate_job_repacks_a_legacy_store(self, tmp_path):
        from repro.core.store import (
            SweepResultStore,
            store_layout_version,
            write_legacy_entry,
        )

        root = tmp_path / "cache"
        warm = Session(store=root)
        warm.run(CharacterizeJob(operator="rca8", pattern=SMALL))
        legacy = tmp_path / "legacy"
        for key, payload in SweepResultStore(root).snapshot().items():
            write_legacy_entry(legacy, key, json.loads(payload))
        assert store_layout_version(legacy) == 1

        session = Session(store=legacy)
        migrated = session.run(StoreMigrateJob())
        assert migrated.report.migrated == 43
        assert migrated.report.quarantined == 0
        assert "migrated   : 43" in migrated.render()
        assert store_layout_version(legacy) == 2
        assert SweepResultStore(legacy).snapshot() == SweepResultStore(root).snapshot()

    def test_store_jobs_need_a_store(self, session):
        with pytest.raises(ValueError, match="no result store"):
            session.run(StoreStatsJob())

    def test_unknown_job_type_rejected(self, session):
        with pytest.raises(TypeError, match="unknown job type"):
            session.run(object())


class TestSessionSubstrate:
    def test_flow_cache_reuses_flows(self, session):
        flow = session.flow_for("rca8")
        assert session.flow_for("rca8") is flow

    def test_from_options(self, tmp_path):
        session = Session.from_options(StoreOptions(cache_dir=str(tmp_path / "c")))
        assert session.store is not None
        assert str(session.store.root).endswith("c")
        assert Session.from_options(StoreOptions(no_cache=True)).store is None

    def test_job_sweep_options_override_session_default(self, tmp_path):
        # serial session, 3-worker job: results must be identical either way
        serial = Session(store=None)
        job = CharacterizeJob(operator="rca8", pattern=SMALL, sweep=SweepOptions(jobs=3))
        sharded = serial.run(job)
        reference = Session(store=None).run(
            CharacterizeJob(operator="rca8", pattern=SMALL)
        )
        assert sharded.render() == reference.render()

    def test_warm_session_memory_dedups_repeat_runs(self, session):
        from repro.core.sweep import simulated_unit_count

        job = CharacterizeJob(operator="rca8", pattern=SMALL)
        session.run(job)
        before = simulated_unit_count()
        repeat = session.run(job)
        assert simulated_unit_count() == before  # served from the overlay
        assert repeat.characterization.adder_name == "rca8"


class TestResilienceIntegration:
    def test_sweep_results_carry_an_execution_report(self, session):
        from repro.core.resilience import ExecutionReport

        result = session.run(CharacterizeJob(operator="rca8", pattern=SMALL))
        assert isinstance(result.execution, ExecutionReport)
        assert not result.execution.faulted

    def test_fail_policy_surfaces_a_session_error(self, monkeypatch, session):
        from repro.api.session import SessionError
        from repro.testing.chaos import CHAOS_ENV

        monkeypatch.setenv(CHAOS_ENV, '[{"action": "crash", "shard": 0}]')
        job = CharacterizeJob(
            operator="rca8",
            pattern=SMALL,
            sweep=SweepOptions(jobs=2, on_worker_failure="fail"),
        )
        with pytest.raises(SessionError, match="sweep execution failed"):
            session.run(job)

    def test_chaos_recovery_is_invisible_in_the_result(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS", '[{"action": "crash", "shard": 0, "attempt": 0}]'
        )
        job = CharacterizeJob(
            operator="rca8", pattern=SMALL, sweep=SweepOptions(jobs=2)
        )
        recovered = Session(store=None).run(job)
        assert recovered.execution.faulted
        assert recovered.execution.crashes >= 1
        monkeypatch.delenv("REPRO_CHAOS")
        clean = Session(store=None).run(
            CharacterizeJob(operator="rca8", pattern=SMALL)
        )
        assert recovered.render() == clean.render()

    def test_store_verify_job(self, tmp_path):
        from repro.api.jobs import StoreVerifyJob
        from repro.api.results import StoreVerifyResult
        from repro.core.store import SweepResultStore

        root = tmp_path / "cache"
        store = SweepResultStore(root)
        keys = [store.entry_key({"n": n}) for n in range(3)]
        for key in keys:
            store.put(key, {"n": key[:4]})
        from _store_helpers import corrupt_one_entry

        corrupt_one_entry(root, keys[0])

        result = Session(store=root).run(StoreVerifyJob())
        assert isinstance(result, StoreVerifyResult)
        assert result.report.scanned == 3
        assert result.report.valid == 2
        assert result.report.quarantined == 1
        assert "quarantined: 1" in result.render()

    def test_store_verify_requires_a_store(self, session):
        from repro.api.jobs import StoreVerifyJob
        from repro.api.session import SessionError

        with pytest.raises(SessionError):
            session.run(StoreVerifyJob())
