"""The sharded, cached Monte Carlo runner: determinism, caching, physics."""

import pathlib

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.core.resilience import ExecutionReport
from repro.core.store import SweepResultStore
from repro.core.sweep import pattern_stimulus, simulated_unit_count
from repro.core.triad import OperatingTriad, TriadGrid
from repro.simulation.engine import CompiledNetlistPlan
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.technology.corners import GateVariationModel, ProcessCorner
from repro.variation import MonteCarloConfig
from repro.variation.montecarlo import (
    montecarlo_request,
    variation_results_from_payloads,
)

from _sweep_helpers import plan_payloads


@pytest.fixture(scope="module")
def rca8_mc():
    return build_adder("rca", 8)


@pytest.fixture(scope="module")
def stimulus_600():
    config = PatternConfig(n_vectors=600, width=8, seed=7)
    in1, in2 = generate_patterns(config)
    return in1, in2, pattern_stimulus(config)


GRID = TriadGrid(
    [
        OperatingTriad(tclk=4e-10, vdd=0.8, vbb=0.0),
        OperatingTriad(tclk=4e-10, vdd=0.6, vbb=0.0),
        OperatingTriad(tclk=4e-10, vdd=0.5, vbb=0.0),
    ]
)


#: Four triads over two operating points: a lone sample range splits in two.
SPLIT_GRID = TriadGrid(
    [
        OperatingTriad(tclk=4e-10, vdd=0.6, vbb=0.0),
        OperatingTriad(tclk=3e-10, vdd=0.6, vbb=0.0),
        OperatingTriad(tclk=4e-10, vdd=0.5, vbb=0.0),
        OperatingTriad(tclk=3e-10, vdd=0.5, vbb=0.0),
    ]
)


def _run(adder, stimulus, config, jobs=1, store=None, grid=GRID, report=None):
    in1, in2, stim = stimulus
    request = montecarlo_request(adder, grid, in1, in2, stim, config=config, jobs=jobs)
    return variation_results_from_payloads(
        grid, plan_payloads(request, store=store, report=report)
    )


def _assert_same_samples(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.triad == b.triad
        assert np.array_equal(a.ber_samples, b.ber_samples)
        assert np.array_equal(a.faulty_fraction_samples, b.faulty_fraction_samples)
        assert np.array_equal(a.energy_samples, b.energy_samples)
        assert np.array_equal(a.static_energy_samples, b.static_energy_samples)
        assert a.dynamic_energy_per_operation == b.dynamic_energy_per_operation


def _entry_files(root):
    from _store_helpers import store_snapshot

    return sorted(store_snapshot(root))


class TestDeterminism:
    def test_same_seed_is_reproducible(self, rca8_mc, stimulus_600):
        config = MonteCarloConfig(n_samples=12, seed=5, chunk=5)
        first = _run(rca8_mc, stimulus_600, config)
        second = _run(rca8_mc, stimulus_600, config)
        for a, b in zip(first, second):
            assert np.array_equal(a.ber_samples, b.ber_samples)
            assert np.array_equal(a.energy_samples, b.energy_samples)

    def test_serial_vs_sharded_store_entries_byte_identical(
        self, rca8_mc, stimulus_600, tmp_path
    ):
        """Identical seed -> byte-identical entries and stats for any jobs."""
        config = MonteCarloConfig(n_samples=12, seed=5, chunk=4)
        serial_store = SweepResultStore(tmp_path / "serial")
        sharded_store = SweepResultStore(tmp_path / "sharded")
        serial = _run(rca8_mc, stimulus_600, config, jobs=1, store=serial_store)
        sharded = _run(rca8_mc, stimulus_600, config, jobs=3, store=sharded_store)

        from _store_helpers import store_snapshot

        serial_entries = store_snapshot(serial_store.root)
        sharded_entries = store_snapshot(sharded_store.root)
        assert serial_entries == sharded_entries
        assert len(serial_entries) == 3 * 3  # 3 triads x 3 sample ranges
        _assert_same_samples(serial, sharded)

    def test_single_range_shards_by_operating_point(
        self, rca8_mc, stimulus_600, tmp_path
    ):
        """One sample range still fills two workers, byte-identically."""
        config = MonteCarloConfig(n_samples=12, seed=5)
        assert len(config.sample_ranges()) == 1
        serial_store = SweepResultStore(tmp_path / "serial")
        sharded_store = SweepResultStore(tmp_path / "sharded")
        report = ExecutionReport()
        serial = _run(
            rca8_mc, stimulus_600, config, store=serial_store, grid=SPLIT_GRID
        )
        sharded = _run(
            rca8_mc,
            stimulus_600,
            config,
            jobs=2,
            store=sharded_store,
            grid=SPLIT_GRID,
            report=report,
        )
        assert report.shards == 2

        from _store_helpers import store_snapshot

        serial_entries = store_snapshot(serial_store.root)
        assert serial_entries == store_snapshot(sharded_store.root)
        assert len(serial_entries) == len(SPLIT_GRID)
        _assert_same_samples(serial, sharded)

    def test_different_variation_seed_changes_samples(self, rca8_mc, stimulus_600):
        low = _run(rca8_mc, stimulus_600, MonteCarloConfig(n_samples=8, seed=1))
        high = _run(rca8_mc, stimulus_600, MonteCarloConfig(n_samples=8, seed=2))
        faulty = [r for r in low if r.ber.mean > 0]
        assert faulty, "expected at least one faulty triad in the grid"
        assert any(
            not np.array_equal(a.ber_samples, b.ber_samples)
            for a, b in zip(low, high)
            if a.ber.mean > 0
        )


class TestCaching:
    def test_warm_rerun_performs_zero_simulation(
        self, rca8_mc, stimulus_600, tmp_path, monkeypatch
    ):
        config = MonteCarloConfig(n_samples=10, seed=3, chunk=5)
        store = SweepResultStore(tmp_path / "store")
        cold = _run(rca8_mc, stimulus_600, config, store=store)

        def explode(self, *args, **kwargs):
            raise AssertionError("warm rerun must not simulate")

        monkeypatch.setattr(CompiledNetlistPlan, "arrival_blocks", explode)
        warm = _run(rca8_mc, stimulus_600, config, store=store)
        for a, b in zip(cold, warm):
            assert np.array_equal(a.ber_samples, b.ber_samples)
            assert np.array_equal(a.static_energy_samples, b.static_energy_samples)

    def test_extending_samples_reuses_completed_ranges(
        self, rca8_mc, stimulus_600, tmp_path
    ):
        store = SweepResultStore(tmp_path / "store")
        small = MonteCarloConfig(n_samples=8, seed=3, chunk=4)
        large = MonteCarloConfig(n_samples=16, seed=3, chunk=4)
        first = _run(rca8_mc, stimulus_600, small, store=store)
        store.stats.hits = store.stats.misses = 0
        extended = _run(rca8_mc, stimulus_600, large, store=store)
        # The first two ranges of every triad come from the store ...
        assert store.stats.hits == 2 * len(GRID)
        # ... and their samples are the prefix of the extended run.
        for a, b in zip(first, extended):
            assert np.array_equal(a.ber_samples, b.ber_samples[:8])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partly_flushed_range_simulates_only_its_absent_triads(
        self, rca8_mc, stimulus_600, tmp_path, jobs
    ):
        config = MonteCarloConfig(n_samples=12, seed=5)
        cold_store = SweepResultStore(tmp_path / "cold")
        cold = _run(rca8_mc, stimulus_600, config, store=cold_store, grid=SPLIT_GRID)

        # A run interrupted part-way through the lone range: half its
        # triads (the slower clock of each operating point) reached the
        # store.
        store = SweepResultStore(tmp_path / "resumed")
        flushed = TriadGrid(list(SPLIT_GRID)[:2])
        _run(rca8_mc, stimulus_600, config, store=store, grid=flushed)
        store.stats.hits = store.stats.misses = 0
        before = simulated_unit_count()
        resumed = _run(
            rca8_mc, stimulus_600, config, jobs=jobs, store=store, grid=SPLIT_GRID
        )
        assert simulated_unit_count() - before == len(SPLIT_GRID) - len(flushed)
        assert store.stats.hits == len(flushed)

        from _store_helpers import store_snapshot

        assert store_snapshot(store.root) == store_snapshot(cold_store.root)
        _assert_same_samples(cold, resumed)

    def test_corner_and_model_enter_the_cache_key(
        self, rca8_mc, stimulus_600, tmp_path
    ):
        store = SweepResultStore(tmp_path / "store")
        base = MonteCarloConfig(n_samples=4, seed=3)
        _run(rca8_mc, stimulus_600, base, store=store)
        entries = len(_entry_files(store.root))
        _run(
            rca8_mc,
            stimulus_600,
            MonteCarloConfig(corner=ProcessCorner.SLOW, n_samples=4, seed=3),
            store=store,
        )
        assert len(_entry_files(store.root)) == 2 * entries
        _run(
            rca8_mc,
            stimulus_600,
            MonteCarloConfig(
                model=GateVariationModel(sigma_vt=0.02), n_samples=4, seed=3
            ),
            store=store,
        )
        assert len(_entry_files(store.root)) == 3 * entries


class TestPhysics:
    def test_ber_spread_grows_as_supply_drops(self, rca8_mc, stimulus_600):
        results = _run(rca8_mc, stimulus_600, MonteCarloConfig(n_samples=16, seed=5))
        by_vdd = {r.triad.vdd: r for r in results}
        assert by_vdd[0.8].ber.std <= by_vdd[0.5].ber.std
        assert by_vdd[0.8].ber.mean <= by_vdd[0.5].ber.mean

    def test_yield_monotone_in_margin(self, rca8_mc, stimulus_600):
        results = _run(rca8_mc, stimulus_600, MonteCarloConfig(n_samples=16, seed=5))
        for result in results:
            assert result.yield_at(0.0) <= result.yield_at(0.05) <= result.yield_at(1.0)
            assert result.yield_at(1.0) == 1.0

    def test_slow_corner_is_worse_than_fast_corner(self, rca8_mc, stimulus_600):
        slow = _run(
            rca8_mc,
            stimulus_600,
            MonteCarloConfig(corner=ProcessCorner.SLOW, n_samples=8, seed=5),
        )
        fast = _run(
            rca8_mc,
            stimulus_600,
            MonteCarloConfig(corner=ProcessCorner.FAST, n_samples=8, seed=5),
        )
        slow_mean = np.mean([r.ber.mean for r in slow])
        fast_mean = np.mean([r.ber.mean for r in fast])
        assert slow_mean > fast_mean

    def test_zero_sigma_collapses_the_distribution(self, rca8_mc, stimulus_600):
        config = MonteCarloConfig(
            model=GateVariationModel(sigma_current_factor=0.0, sigma_vt=0.0),
            n_samples=6,
            seed=5,
        )
        for result in _run(rca8_mc, stimulus_600, config):
            assert result.ber.std == pytest.approx(0.0)
            assert result.ber.minimum == result.ber.maximum


class TestValidation:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(n_samples=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(chunk=0)

    def test_empty_grid_rejected(self, rca8_mc, stimulus_600):
        in1, in2, stim = stimulus_600
        with pytest.raises(ValueError):
            montecarlo_request(
                rca8_mc, [], in1, in2, stim, config=MonteCarloConfig(n_samples=2)
            )

    def test_invalid_jobs_rejected(self, rca8_mc, stimulus_600):
        in1, in2, stim = stimulus_600
        with pytest.raises(ValueError):
            montecarlo_request(
                rca8_mc,
                GRID,
                in1,
                in2,
                stim,
                config=MonteCarloConfig(n_samples=2),
                jobs=0,
            )

    def test_sample_ranges_cover_exactly(self):
        config = MonteCarloConfig(n_samples=10, chunk=4)
        assert config.sample_ranges() == ((0, 4), (4, 8), (8, 10))
