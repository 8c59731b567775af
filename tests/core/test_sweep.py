"""Tests of the sharded, cache-backed sweep planner, one request at a time."""

import numpy as np
import pytest

from repro.circuits.adders import AdderCircuit, build_adder
from repro.circuits.multipliers import array_multiplier
from repro.core.characterization import CharacterizationFlow
from repro.core.resilience import ExecutionReport
from repro.core.store import SweepResultStore
from repro.core.sweep import (
    SERIAL_FAULT_FLUSH_BLOCK,
    characterization_request,
    fault_request,
    pattern_stimulus,
    payload_to_fault_result,
    shard_triads,
    simulated_unit_count,
)
from repro.core.triad import OperatingTriad, TriadGrid
from repro.obs.report import load_trace
from repro.obs.trace import Tracer, activated
from repro.simulation.fault_injection import StuckAtFault, enumerate_stuck_at_faults
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.variation.montecarlo import MonteCarloConfig, montecarlo_request

from _sweep_helpers import plan_payloads


@pytest.fixture(scope="module")
def small_grid():
    return TriadGrid.from_product(
        (0.5, 0.3), supply_voltages=(1.0, 0.7, 0.5), body_bias_voltages=(0.0, 2.0)
    )


@pytest.fixture(scope="module")
def small_pattern():
    return PatternConfig(n_vectors=400, width=8, seed=11)


class TestShardTriads:
    def test_operating_point_groups_stay_together(self, small_grid):
        shards = shard_triads(list(small_grid), 4)
        for shard in shards:
            points = {(t.vdd, t.vbb) for t in shard}
            for other in shards:
                if other is shard:
                    continue
                assert points.isdisjoint({(t.vdd, t.vbb) for t in other})

    def test_all_triads_covered_exactly_once(self, small_grid):
        shards = shard_triads(list(small_grid), 3)
        flattened = [triad for shard in shards for triad in shard]
        assert sorted(flattened) == sorted(small_grid)

    def test_deterministic_assignment(self, small_grid):
        assert shard_triads(list(small_grid), 3) == shard_triads(list(small_grid), 3)

    def test_more_shards_than_groups(self, small_grid):
        shards = shard_triads(list(small_grid), 100)
        # 3 supplies x 2 body biases = 6 operating-point groups at most.
        assert 1 <= len(shards) <= 6

    def test_rejects_non_positive_shard_count(self, small_grid):
        with pytest.raises(ValueError):
            shard_triads(list(small_grid), 0)


class TestShippedCircuits:
    """Shards carry the built circuit, so any circuit shards at ``jobs > 1``."""

    def test_speculative_sweep_shards_bit_identically(self, small_grid):
        from repro.circuits.adders import speculative_adder

        adder = speculative_adder(8, 4)
        config = PatternConfig(n_vectors=300, width=8, seed=3)
        in1, in2 = generate_patterns(config)
        serial = plan_payloads(
            characterization_request(
                adder, small_grid, in1, in2, pattern_stimulus(config), jobs=1
            )
        )
        sharded = plan_payloads(
            characterization_request(
                adder, small_grid, in1, in2, pattern_stimulus(config), jobs=3
            )
        )
        assert serial == sharded

    def test_custom_circuit_shards_like_the_serial_sweep(
        self, tmp_path, small_grid, small_pattern
    ):
        # An rca8 netlist under an architecture no generator knows.
        rca8 = build_adder("rca", 8)
        adder = AdderCircuit(netlist=rca8.netlist, width=8, architecture="myrca")
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        serial_store = SweepResultStore(tmp_path / "serial")
        serial = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=serial_store,
        )
        report = ExecutionReport()
        sharded_store = SweepResultStore(tmp_path / "sharded")
        sharded = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus, jobs=2),
            store=sharded_store,
            report=report,
        )
        assert report.shards >= 2
        assert sharded == serial
        assert sharded_store.snapshot() == serial_store.snapshot()


class TestCharacterizationSweep:
    def test_parallel_results_bit_identical_to_serial(self, small_grid, small_pattern):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        serial = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus)
        )
        parallel = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus, jobs=4)
        )
        assert serial == parallel

    def test_flow_parallel_matches_serial_characterization(self, small_pattern):
        serial = CharacterizationFlow.for_benchmark("rca", 8).run(
            pattern=small_pattern
        )
        parallel = CharacterizationFlow.for_benchmark("rca", 8).run(
            pattern=small_pattern, jobs=3
        )
        assert len(serial.results) == len(parallel.results)
        for a, b in zip(serial.results, parallel.results):
            assert a.triad == b.triad
            assert a.ber == b.ber
            assert a.mse == b.mse
            assert np.array_equal(a.bitwise_error, b.bitwise_error)
            assert a.energy_per_operation == b.energy_per_operation
        for a, b in zip(serial.measurements, parallel.measurements):
            assert np.array_equal(a.latched_words, b.latched_words)
            assert np.array_equal(a.error_bits, b.error_bits)

    def test_warm_cache_serves_all_triads(self, tmp_path, small_grid, small_pattern):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        cold_store = SweepResultStore(tmp_path)
        cold = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=cold_store,
        )
        assert cold_store.stats.stores == len(small_grid)
        warm_store = SweepResultStore(tmp_path)
        warm = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=warm_store,
        )
        assert warm_store.stats.hits == len(small_grid)
        assert warm_store.stats.misses == 0
        assert warm == cold

    def test_leftover_v1_entries_are_recomputed_cold(
        self, tmp_path, small_grid, small_pattern
    ):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        packed = SweepResultStore(tmp_path / "packed")
        expected = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=packed,
        )
        # The same entries, under the same keys, in the removed one-JSON-file-
        # per-entry layout: the store does not read them.
        v1_root = tmp_path / "v1"
        for key, document in packed.snapshot().items():
            path = v1_root / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(document, encoding="utf-8")
        before = {path: path.read_bytes() for path in v1_root.glob("*/*.json")}
        assert len(before) == len(small_grid)
        cold_store = SweepResultStore(v1_root)
        cold = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=cold_store,
        )
        assert cold_store.stats.hits == 0
        assert cold_store.stats.stores == len(small_grid)
        assert cold == expected
        warm_store = SweepResultStore(v1_root)
        plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=warm_store,
        )
        assert warm_store.stats.hits == len(small_grid)
        assert {path: path.read_bytes() for path in before} == before

    def test_cache_invalidates_on_pattern_change(self, tmp_path, small_grid):
        adder = build_adder("rca", 8)
        store = SweepResultStore(tmp_path)
        for seed in (1, 2):
            config = PatternConfig(n_vectors=300, width=8, seed=seed)
            in1, in2 = generate_patterns(config)
            plan_payloads(
                characterization_request(
                    adder, small_grid, in1, in2, pattern_stimulus(config)
                ),
                store=store,
            )
        # Different seeds must not share entries.
        assert store.stats.hits == 0
        assert len(store) == 2 * len(small_grid)

    def test_cache_invalidates_on_circuit_change(self, tmp_path, small_grid, small_pattern):
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        store = SweepResultStore(tmp_path)
        plan_payloads(
            characterization_request(
                build_adder("rca", 8), small_grid, in1, in2, stimulus
            ),
            store=store,
        )
        plan_payloads(
            characterization_request(
                build_adder("bka", 8), small_grid, in1, in2, stimulus
            ),
            store=store,
        )
        assert store.stats.hits == 0

    def test_summary_only_entries_upgrade_for_measurements(
        self, tmp_path, small_grid, small_pattern
    ):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        store = SweepResultStore(tmp_path)
        plan_payloads(
            characterization_request(
                adder, small_grid, in1, in2, stimulus, keep_latched=False
            ),
            store=store,
        )
        # Entries without latched words cannot serve a keep_latched request:
        # they are recomputed (and upgraded in place), not mis-served.
        upgrade_store = SweepResultStore(tmp_path)
        payloads = plan_payloads(
            characterization_request(
                adder, small_grid, in1, in2, stimulus, keep_latched=True
            ),
            store=upgrade_store,
        )
        assert upgrade_store.stats.stores == len(small_grid)
        assert all("latched_words" in payload for payload in payloads)
        # ... after which the upgraded entries serve both request kinds.
        final_store = SweepResultStore(tmp_path)
        plan_payloads(
            characterization_request(
                adder, small_grid, in1, in2, stimulus, keep_latched=True
            ),
            store=final_store,
        )
        assert final_store.stats.misses == 0

    def test_corrupted_entry_recovers_transparently(
        self, tmp_path, small_grid, small_pattern
    ):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        store = SweepResultStore(tmp_path)
        cold = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=store,
        )
        from _store_helpers import corrupt_one_entry

        corrupt_one_entry(store.root)
        recovered_store = SweepResultStore(tmp_path)
        recovered = plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=recovered_store,
        )
        assert recovered == cold
        assert recovered_store.stats.corrupt == 1
        assert recovered_store.stats.stores == 1

    def test_engine_version_is_part_of_the_key(self, tmp_path, small_grid, small_pattern, monkeypatch):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        store = SweepResultStore(tmp_path)
        plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=store,
        )
        import repro.core.sweep as sweep_module

        monkeypatch.setattr(sweep_module, "ENGINE_VERSION", "test-bump")
        bumped_store = SweepResultStore(tmp_path)
        plan_payloads(
            characterization_request(adder, small_grid, in1, in2, stimulus),
            store=bumped_store,
        )
        assert bumped_store.stats.hits == 0

    def test_serial_sweep_resolves_the_stimulus_once(
        self, tmp_path, small_grid, small_pattern, monkeypatch
    ):
        """Every (vdd, vbb) group shares one bound, fingerprinted stimulus."""
        from repro.simulation import timing_sim

        calls = []
        original = timing_sim._pattern_fingerprint

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(timing_sim, "_pattern_fingerprint", counting)
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        store = SweepResultStore(tmp_path)
        plan_payloads(
            characterization_request(
                adder, small_grid, in1, in2, pattern_stimulus(small_pattern)
            ),
            store=store,
        )
        assert store.stats.stores == len(small_grid)  # flushed group by group
        assert len(calls) == 1

    def test_rejects_non_positive_jobs(self, small_grid, small_pattern):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        with pytest.raises(ValueError):
            plan_payloads(
                characterization_request(
                    adder, small_grid, in1, in2, pattern_stimulus(small_pattern), jobs=0
                )
            )


class TestMultiplierSweep:
    def test_multiplier_parallel_and_cached_paths(self, tmp_path):
        multiplier = array_multiplier(4)
        config = PatternConfig(n_vectors=200, width=4, seed=5)
        in1, in2 = generate_patterns(config)
        grid = TriadGrid.from_product(
            (1.5, 1.0), supply_voltages=(1.0, 0.6), body_bias_voltages=(0.0,)
        )
        stimulus = pattern_stimulus(config)
        serial = plan_payloads(
            characterization_request(multiplier, grid, in1, in2, stimulus)
        )
        parallel = plan_payloads(
            characterization_request(multiplier, grid, in1, in2, stimulus, jobs=2)
        )
        assert serial == parallel
        store = SweepResultStore(tmp_path)
        plan_payloads(
            characterization_request(multiplier, grid, in1, in2, stimulus),
            store=store,
        )
        warm_store = SweepResultStore(tmp_path)
        warm = plan_payloads(
            characterization_request(multiplier, grid, in1, in2, stimulus),
            store=warm_store,
        )
        assert warm_store.stats.misses == 0
        assert warm == serial


class TestWarmCacheFig4:
    def test_warm_run_skips_all_timing_simulation_and_is_faster(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: a warm-cache Fig. 4 sweep runs no timing simulation.

        The warm run must (a) produce bit-identical results, (b) never enter
        ``VosTimingSimulator.run`` / ``run_sweep`` or the per-gate oracle
        ``_reference.vos_run``, and (c) finish at least 5x faster than the
        cold run.
        """
        import time

        from repro.simulation.timing_sim import VosTimingSimulator

        import _reference as reference

        pattern = PatternConfig(n_vectors=8192, width=8, seed=2017, kind="uniform")

        def characterize(store):
            return CharacterizationFlow.for_benchmark("rca", 8).run(
                pattern=pattern, store=store, keep_measurements=False
            )

        # Summary-only entries, as the CLI and the figure/table generators
        # request them; 8192 vectors keeps the cold side dominated by the
        # timing simulation rather than by harness overhead.
        store = SweepResultStore(tmp_path)
        start = time.perf_counter()
        cold_char = characterize(store)
        cold_seconds = time.perf_counter() - start
        assert store.stats.misses == 43  # the paper's 43-triad grid

        def _forbidden(self, *args, **kwargs):
            raise AssertionError("warm run must not simulate")

        monkeypatch.setattr(VosTimingSimulator, "run", _forbidden)
        monkeypatch.setattr(VosTimingSimulator, "run_sweep", _forbidden)
        monkeypatch.setattr(reference, "vos_run", _forbidden)
        # Best of three warm runs: the cache property under test is
        # deterministic, so de-noise the wall clock against CI load spikes.
        warm_seconds = float("inf")
        for _ in range(3):
            warm_store = SweepResultStore(tmp_path)
            start = time.perf_counter()
            warm_char = characterize(warm_store)
            warm_seconds = min(warm_seconds, time.perf_counter() - start)
            assert warm_store.stats.hits == 43
            assert warm_store.stats.misses == 0

        assert [e.ber for e in warm_char.results] == [e.ber for e in cold_char.results]
        assert [e.mse for e in warm_char.results] == [e.mse for e in cold_char.results]
        assert [e.energy_per_operation for e in warm_char.results] == [
            e.energy_per_operation for e in cold_char.results
        ]
        assert all(
            np.array_equal(a.bitwise_error, b.bitwise_error)
            for a, b in zip(cold_char.results, warm_char.results)
        )
        assert warm_seconds * 5 <= cold_seconds, (cold_seconds, warm_seconds)


class TestFaultSweep:
    def test_parallel_matches_serial(self):
        adder = build_adder("rca", 8)
        config = PatternConfig(n_vectors=200, width=8, seed=9)
        in1, in2 = generate_patterns(config)
        stimulus = pattern_stimulus(config)
        serial = plan_payloads(fault_request(adder, in1, in2, stimulus))
        parallel = plan_payloads(fault_request(adder, in1, in2, stimulus, jobs=4))
        assert serial == parallel
        assert 0.5 < sum(p["detected"] for p in serial) / len(serial) <= 1.0

    def test_warm_cache_and_explicit_fault_list(self, tmp_path):
        adder = build_adder("rca", 8)
        config = PatternConfig(n_vectors=200, width=8, seed=9)
        in1, in2 = generate_patterns(config)
        stimulus = pattern_stimulus(config)
        faults = [StuckAtFault(net=1, stuck_value=True), StuckAtFault(net=2, stuck_value=False)]
        store = SweepResultStore(tmp_path)
        cold = plan_payloads(
            fault_request(adder, in1, in2, stimulus, faults=faults),
            store=store,
        )
        warm_store = SweepResultStore(tmp_path)
        warm = plan_payloads(
            fault_request(adder, in1, in2, stimulus, faults=faults),
            store=warm_store,
        )
        assert warm_store.stats.misses == 0
        assert warm == cold
        assert [payload_to_fault_result(p).fault for p in warm] == faults

    def test_cached_payload_without_vector_count_is_recomputed(self, tmp_path):
        adder = build_adder("rca", 8)
        config = PatternConfig(n_vectors=200, width=8, seed=9)
        in1, in2 = generate_patterns(config)
        stimulus = pattern_stimulus(config)
        faults = [
            StuckAtFault(net=1, stuck_value=True),
            StuckAtFault(net=2, stuck_value=False),
        ]
        store = SweepResultStore(tmp_path)
        cold = plan_payloads(
            fault_request(adder, in1, in2, stimulus, faults=faults),
            store=store,
        )
        for key in sorted(store.snapshot()):
            payload = dict(store.get(key))
            assert payload.pop("n_vectors") == config.n_vectors
            store.put(key, payload)
        before = simulated_unit_count()
        rerun = plan_payloads(
            fault_request(adder, in1, in2, stimulus, faults=faults),
            store=SweepResultStore(tmp_path),
        )
        assert simulated_unit_count() - before == len(faults)
        assert rerun == cold


class TestInProcessFlushGranularity:
    """In-process sweeps flush one store batch per kind-specific block.

    Characterization flushes once per ``(vdd, vbb)`` group, fault campaigns
    once per :data:`SERIAL_FAULT_FLUSH_BLOCK` sites and Monte Carlo once per
    sample range -- the unit of work an interrupted run loses at most.
    """

    @pytest.mark.parametrize("kind", ["characterization", "faults", "montecarlo"])
    def test_entries_per_flush_match_the_blocks(
        self, kind, tmp_path, small_grid, small_pattern
    ):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(small_pattern)
        stimulus = pattern_stimulus(small_pattern)
        store = SweepResultStore(tmp_path / "store")
        trace = tmp_path / "trace.jsonl"
        tracer = Tracer(trace)
        with activated(tracer):
            if kind == "characterization":
                plan_payloads(
                    characterization_request(adder, small_grid, in1, in2, stimulus),
                    store=store,
                )
                # 2 clocks at each of 3 supplies x 2 body biases.
                expected = [2] * 6
            elif kind == "faults":
                plan_payloads(fault_request(adder, in1, in2, stimulus), store=store)
                n_faults = len(enumerate_stuck_at_faults(adder.netlist))
                assert n_faults > SERIAL_FAULT_FLUSH_BLOCK
                full, rest = divmod(n_faults, SERIAL_FAULT_FLUSH_BLOCK)
                expected = [SERIAL_FAULT_FLUSH_BLOCK] * full + [rest] * (rest > 0)
            else:
                # Ranges (0, 3), (3, 6) and (6, 7), each over the whole grid.
                config = MonteCarloConfig(n_samples=7, seed=5, chunk=3)
                plan_payloads(
                    montecarlo_request(
                        adder, small_grid, in1, in2, stimulus, config=config
                    ),
                    store=store,
                )
                expected = [len(small_grid)] * 3
        tracer.close()
        flushes = [
            record["attrs"]["entries"]
            for record in load_trace(trace)
            if record["name"] == "store.flush"
        ]
        assert flushes == expected
        assert store.stats.stores == sum(expected)
