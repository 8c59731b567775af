"""Sweep plan tests: cross-job dedup with zero duplicate simulations."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.api.jobs import (
    CalibrateJob,
    CharacterizeJob,
    ExploreJob,
    FaultSweepJob,
    Fig5Job,
    MonteCarloJob,
    SynthesizeJob,
    Table4Job,
)
from repro.api.options import PatternOptions
from repro.api.session import Session
from repro.core.dataset import save_characterization
from repro.core.store import SweepResultStore
from repro.core.sweep import simulated_unit_count
from repro.simulation.fault_injection import enumerate_stuck_at_faults

SMALL = PatternOptions(vectors=240)


def overlapping_jobs():
    """Three workloads over the same adder, stimulus and (sub)grids."""
    return [
        CharacterizeJob(operator="rca8", pattern=SMALL),
        Fig5Job(operator="rca8", supply_voltages=(0.8, 0.5), vectors=240),
        Table4Job(datasets=("rca8",), vectors=240),
    ]


class TestBatchDedup:
    def test_cold_batch_simulates_each_unique_unit_exactly_once(self):
        session = Session(store=None)
        grid_size = len(session.flow_for("rca8").default_triad_grid())
        before = simulated_unit_count()
        batch = session.run_batch(overlapping_jobs())
        simulated = simulated_unit_count() - before

        # characterize and table4 sweep the full matched grid with the same
        # stimulus; fig5's two supply points are a subset of that grid.  One
        # executor pass covers all three jobs.
        assert simulated == grid_size
        report = batch.report
        assert report.simulated_units == grid_size
        assert report.planned_units == 2 * grid_size + 2
        assert report.deduped_units == report.planned_units - grid_size
        assert report.cache_hits == 0
        assert len(batch.results) == 3

    def test_batch_results_match_individual_runs(
        self, tmp_path, rca8_characterization
    ):
        dataset = tmp_path / "rca8.json"
        save_characterization(rca8_characterization, dataset)
        grid = Session(store=None).flow_for("rca8").default_triad_grid()
        triad = grid[len(grid) // 2]
        jobs = overlapping_jobs() + [
            CalibrateJob(
                operator="rca8",
                tclk_ns=triad.tclk * 1e9,
                vdd=triad.vdd,
                vbb=triad.vbb,
                pattern=SMALL,
            ),
            MonteCarloJob(
                operator="rca8", pattern=SMALL, samples=6, supply_voltages=(0.8, 0.5)
            ),
            FaultSweepJob(operator="rca4", pattern=SMALL),
            Table4Job(datasets=(str(dataset), "bka8"), vectors=240),
        ]
        batch = Session(store=None).run_batch(jobs)
        solo_session = Session(store=None)
        for job, result in zip(jobs, batch.results):
            solo = solo_session.run(job)
            assert result.render() == solo.render()
            assert _body(result) == _body(solo)

    def test_per_job_simulated_units_in_a_batch(self):
        montecarlo = MonteCarloJob(
            operator="rca8", pattern=SMALL, samples=6, supply_voltages=(0.8, 0.5)
        )
        session = Session(store=None)
        grid_size = len(session.flow_for("rca8").default_triad_grid())
        batch = session.run_batch(overlapping_jobs() + [montecarlo])
        # The plan ran every unit in the session span, the Monte Carlo job's
        # one range x two triads too: no job simulates on its own.
        assert [result.run.simulated_units for result in batch.results] == [
            0,
            0,
            0,
            0,
        ]
        assert batch.report.simulated_units == grid_size + 2

    def test_repeated_fig5_supply_is_planned_twice_and_deduped_once(self):
        batch = Session(store=None).run_batch(
            [Fig5Job(operator="rca8", supply_voltages=(0.8, 0.8), vectors=240)]
        )
        assert batch.report.planned_units == 2
        assert batch.report.deduped_units == 1
        assert batch.report.simulated_units == 1
        first, second = batch.results[0].series
        assert first.vdd == second.vdd == 0.8
        assert list(first.ber_per_bit) == list(second.ber_per_bit)

    def test_each_unit_is_keyed_once(self, monkeypatch):
        session = Session(store=None)
        job = CharacterizeJob(operator="rca8", pattern=SMALL)
        session.run_batch([job])  # warm the session overlay
        units = len(session.flow_for("rca8").default_triad_grid())
        calls = []
        entry_key = SweepResultStore.entry_key

        def counting(components):
            calls.append(1)
            return entry_key(components)

        monkeypatch.setattr(SweepResultStore, "entry_key", staticmethod(counting))
        batch = session.run_batch([job])
        assert batch.report.cache_hits == units
        assert len(calls) <= units + 1
        calls.clear()
        session.run(job)
        assert len(calls) <= units

    def test_warm_store_batch_simulates_nothing(self, tmp_path):
        store_dir = tmp_path / "cache"
        Session(store=store_dir).run_batch(overlapping_jobs())

        warm = Session(store=store_dir)
        before = simulated_unit_count()
        batch = warm.run_batch(overlapping_jobs())
        assert simulated_unit_count() == before
        report = batch.report
        assert report.simulated_units == 0
        grid_size = len(warm.flow_for("rca8").default_triad_grid())
        assert report.cache_hits == grid_size
        assert report.deduped_units == report.planned_units - grid_size

    def test_calibrate_unit_inside_a_characterize_grid_is_shared(self, tmp_path):
        session = Session(store=None)
        grid = session.flow_for("rca8").default_triad_grid()
        triad = grid[len(grid) // 2]
        jobs = [
            CharacterizeJob(operator="rca8", pattern=SMALL),
            CalibrateJob(
                operator="rca8",
                tclk_ns=triad.tclk * 1e9,
                vdd=triad.vdd,
                vbb=triad.vbb,
                pattern=SMALL,
            ),
        ]
        before = simulated_unit_count()
        batch = session.run_batch(jobs)
        # The calibrate triad is one of the characterize grid's units: the
        # merged pass keeps latched words for it, so nothing runs twice.
        assert simulated_unit_count() - before == len(grid)
        assert batch.report.deduped_units == 1
        assert "hardware BER" in batch.results[1].render()

    def test_calibrate_does_not_resimulate_a_warm_nonlatched_grid(self, tmp_path):
        # A store warmed by plain characterization holds no latched words.
        # A later batch adding one calibrate triad must re-simulate exactly
        # that triad (with latched words), not the whole grid.
        store_dir = tmp_path / "cache"
        warm_session = Session(store=store_dir)
        warm_session.run(CharacterizeJob(operator="rca8", pattern=SMALL))
        grid = warm_session.flow_for("rca8").default_triad_grid()
        triad = grid[len(grid) // 2]

        session = Session(store=store_dir)
        before = simulated_unit_count()
        batch = session.run_batch(
            [
                CharacterizeJob(operator="rca8", pattern=SMALL),
                CalibrateJob(
                    operator="rca8",
                    tclk_ns=triad.tclk * 1e9,
                    vdd=triad.vdd,
                    vbb=triad.vbb,
                    pattern=SMALL,
                ),
            ]
        )
        assert simulated_unit_count() - before == 1
        assert batch.report.cache_hits == len(grid) - 1
        assert "hardware BER" in batch.results[1].render()

    @pytest.mark.parametrize(
        "job, units",
        [
            (
                MonteCarloJob(
                    operator="rca8",
                    pattern=SMALL,
                    samples=6,
                    supply_voltages=(0.8, 0.5),
                ),
                2,  # one sample range x two triads
            ),
            (FaultSweepJob(operator="rca8", pattern=SMALL), None),
        ],
        ids=["montecarlo", "faults"],
    )
    def test_a_repeated_job_is_deduped_by_the_plan(self, job, units):
        session = Session(store=None)
        if units is None:
            netlist = session.flow_for("rca8").adder.netlist
            units = len(enumerate_stuck_at_faults(netlist))
        before = simulated_unit_count()
        batch = session.run_batch([job, job])
        assert simulated_unit_count() - before == units
        assert batch.report.planned_units == 2 * units
        assert batch.report.deduped_units == units
        assert batch.report.simulated_units == units
        assert batch.results[0].render() == batch.results[1].render()

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "part-warm"])
    def test_accounting_closes_without_an_explore_job(self, warm):
        # Every kind of sweep job is planned, so each simulated unit is a
        # planned one that neither dedup nor the store answered.
        session = Session(store=None)
        if warm:
            session.run(FaultSweepJob(operator="rca8", pattern=SMALL))
        jobs = overlapping_jobs() + [
            MonteCarloJob(
                operator="rca8", pattern=SMALL, samples=6, supply_voltages=(0.8, 0.5)
            ),
            FaultSweepJob(operator="rca8", pattern=SMALL),
            FaultSweepJob(operator="bka8", pattern=SMALL),
        ]
        report = session.run_batch(jobs).report
        assert (report.cache_hits > 0) == warm
        assert report.simulated_units > 0
        assert (
            report.planned_units - report.deduped_units - report.cache_hits
            == report.simulated_units
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_accounting_closes_with_an_explore_job(self, jobs):
        # Each search step of the explore job is a plan of its own, counted
        # with the batch plan; its rca8 grid is warm from the characterize
        # job's sweep.
        report = (
            Session(store=None, jobs=jobs)
            .run_batch(
                [
                    CharacterizeJob(
                        operator="rca8", pattern=PatternOptions(vectors=500)
                    ),
                    ExploreJob(
                        architectures=("rca", "bka"),
                        widths=(8,),
                        strategy="exhaustive",
                        vectors=500,
                    ),
                ]
            )
            .report
        )
        assert (
            report.planned_units - report.deduped_units - report.cache_hits
            == report.simulated_units
        )
        assert (
            report.planned_units,
            report.deduped_units,
            report.cache_hits,
            report.simulated_units,
        ) == (129, 0, 43, 86)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_kind_batch_matches_solo_runs(self, jobs):
        # Characterization, Monte Carlo and fault units of one rca8
        # stimulus share a plan (and its operand arrays).
        batch_jobs = [
            CharacterizeJob(operator="rca8", pattern=SMALL),
            MonteCarloJob(
                operator="rca8", pattern=SMALL, samples=6, supply_voltages=(0.8, 0.5)
            ),
            FaultSweepJob(operator="rca8", pattern=SMALL),
        ]
        batch = Session(store=None, jobs=jobs).run_batch(batch_jobs)
        for job, result in zip(batch_jobs, batch.results):
            solo = Session(store=None, jobs=jobs).run(job)
            assert result.render() == solo.render()
            assert _body(result) == _body(solo)

    def test_non_sweep_jobs_plan_zero_units(self):
        session = Session(store=None)
        batch = session.run_batch([SynthesizeJob(operators=("rca8",))])
        assert batch.report.planned_units == 0
        assert batch.report.simulated_units == 0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one job"):
            Session(store=None).run_batch([])

    def test_batch_is_byte_identical_to_solo_runs_with_warm_store(self, tmp_path):
        # cold solo runs against one store, then a warm batch against it:
        # every rendering must be byte-identical.
        store_dir = tmp_path / "cache"
        solo = Session(store=store_dir)
        solo_renders = [solo.run(job).render() for job in overlapping_jobs()]
        batch = Session(store=store_dir).run_batch(overlapping_jobs())
        assert [result.render() for result in batch.results] == solo_renders


def _body(result):
    """A result document without its ``"run"`` work accounting."""
    return {key: value for key, value in result.to_json().items() if key != "run"}


def test_failed_batch_sweep_exits_with_one_line(tmp_path):
    """A sweep that exhausts its recovery options ends ``repro batch`` with
    the one-line error ``repro characterize`` prints, not a traceback."""
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(
        json.dumps(
            {
                "jobs": [
                    {
                        "type": "characterize",
                        "operator": "rca8",
                        "pattern": {"vectors": 240},
                    },
                    {"type": "faults", "operator": "rca8", "pattern": {"vectors": 240}},
                ]
            },
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "REPRO_CHAOS": '[{"action": "crash", "shard": 0}]',
    }
    process = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "batch",
            str(jobs_file),
            "--no-cache",
            "--jobs",
            "2",
            "--max-retries",
            "0",
            "--on-worker-failure",
            "fail",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert process.returncode != 0
    assert "Traceback" not in process.stderr
    assert process.stderr.splitlines() == [process.stderr.strip()]
    assert process.stderr.startswith("sweep execution failed: ")
