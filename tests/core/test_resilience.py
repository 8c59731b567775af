"""Tests of the fault-tolerant shard execution engine.

The engine's contract is byte-identity: whatever faults fire -- worker
crashes, hangs past the shard timeout, corrupted payloads -- the merged
result must equal a fault-free serial run, and every recovery step must be
visible in the :class:`ExecutionReport`.  The chaos plans used here are
deterministic (keyed on shard index and attempt), so each test reproduces
the same failure sequence on every run.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.core.resilience import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    ExecutionReport,
    ShardExecutionError,
    pool_scope,
    run_shards,
)
from repro.core.store import SweepResultStore
from repro.core.sweep import (
    characterization_request,
    fault_request,
    pattern_stimulus,
    simulated_unit_count,
)
from repro.core.triad import TriadGrid
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.testing.chaos import CORRUPTION_MARKER, ChaosPlan, ChaosRule
from repro.variation.montecarlo import (
    MonteCarloConfig,
    montecarlo_request,
    variation_results_from_payloads,
)

from _sweep_helpers import plan_payloads


# -- picklable shard workers ---------------------------------------------------


def _double(task):
    return [value * 2 for value in task]


def _boom(task):
    raise RuntimeError("shard body failure")


def _crash_once(task):
    """Shard body that hard-exits mid-shard -- once -- with operands inline."""
    base, marker, values = task
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(32)
    offset = int(base.sum())
    return [value + offset for value in values]


def _nap_then_double(task):
    """Shard body that sleeps ``task[0]`` seconds, then doubles the rest."""
    delay, values = task
    time.sleep(delay)
    return [value * 2 for value in values]


def _pids(task):
    return [os.getpid() for _ in task]


def _live_children():
    return {child.pid for child in multiprocessing.active_children()}


def _units(task):
    return len(task)


def _split(task):
    half = len(task) // 2
    return task[:half], task[half:]


def _valid(task, result):
    return (
        isinstance(result, list)
        and len(result) == len(task)
        and not any(
            isinstance(unit, dict) and unit.get(CORRUPTION_MARKER)
            for unit in result
        )
    )


TASKS = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
EXPECTED = [[2, 4, 6], [8, 10], [12, 14, 16, 18]]


def _run(chaos=None, policy=None, **kwargs):
    report = ExecutionReport()
    result = run_shards(
        TASKS,
        _double,
        policy=policy,
        units=_units,
        split=_split,
        validate=_valid,
        chaos=chaos,
        report=report,
        **kwargs,
    )
    return result, report


class TestPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY == ExecutionPolicy(
            max_retries=2, backoff_s=0.0, shard_timeout_s=None, on_failure="retry"
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_s": -0.1},
            {"max_backoff_s": 0.0},
            {"max_backoff_s": -5.0},
            {"shard_timeout_s": 0.0},
            {"shard_timeout_s": -2.0},
            {"on_failure": "shrug"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)


class TestReport:
    def test_fresh_report_is_not_faulted(self):
        report = ExecutionReport()
        assert not report.faulted
        assert "no faults" in report.render()

    def test_faulted_render_mentions_every_cause(self):
        report = ExecutionReport(
            shards=4, failures=3, crashes=1, timeouts=1, corrupt_results=1,
            retries=2, splits=1, serial_fallbacks=1, pool_rebuilds=2,
            recovered_shards=3, wall_time_lost_s=1.25,
        )
        text = report.render()
        for token in ("crashed", "timed out", "corrupt", "retried", "split",
                      "serial fallback", "pool rebuild", "recovered", "lost"):
            assert token in text

    def test_merge_adds_counters(self):
        a = ExecutionReport(shards=2, failures=1, wall_time_lost_s=0.5)
        b = ExecutionReport(shards=3, crashes=2, wall_time_lost_s=0.25)
        a.merge(b)
        assert a.shards == 5
        assert a.failures == 1
        assert a.crashes == 2
        assert a.wall_time_lost_s == 0.75

    def test_to_json_carries_faulted(self):
        assert ExecutionReport().to_json()["faulted"] is False
        assert ExecutionReport(crashes=1).to_json()["faulted"] is True


class TestFaultFreeExecution:
    def test_matches_serial_map(self):
        result, report = _run()
        assert result == EXPECTED
        assert report.shards == len(TASKS)
        assert not report.faulted

    def test_empty_task_list(self):
        assert run_shards([], _double) == []

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            run_shards(TASKS, _double, max_workers=0)

    def test_on_result_fires_per_completed_shard(self):
        flushed = []
        run_shards(
            TASKS,
            _double,
            units=_units,
            on_result=lambda task, result: flushed.append((tuple(task), tuple(result))),
        )
        assert sorted(flushed) == sorted(
            (tuple(task), tuple(expected)) for task, expected in zip(TASKS, EXPECTED)
        )


class TestCrashRecovery:
    def test_crash_is_retried_and_result_identical(self):
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        result, report = _run(chaos=chaos)
        assert result == EXPECTED
        assert report.crashes >= 1
        assert report.retries >= 1
        assert report.pool_rebuilds >= 1
        assert report.recovered_shards >= 1
        assert report.faulted

    def test_repeated_crashes_fall_back_to_serial(self):
        chaos = ChaosPlan(
            tuple(
                ChaosRule(action="crash", shard=0, attempt=attempt)
                for attempt in range(3)
            )
        )
        result, report = _run(
            chaos=chaos, policy=ExecutionPolicy(max_retries=2)
        )
        assert result == EXPECTED
        assert report.serial_fallbacks >= 1

    def test_worker_exception_is_retried(self):
        report = ExecutionReport()
        with pytest.raises(ShardExecutionError):
            run_shards(
                [[1]],
                _boom,
                policy=ExecutionPolicy(max_retries=0, on_failure="fail"),
                report=report,
            )
        assert report.failures == 1

    def test_exhausted_exception_goes_serial_and_still_fails_there(self):
        # The shard body itself is broken: even the trusted serial fallback
        # raises, which must surface (not hang or silently drop the shard).
        with pytest.raises(RuntimeError, match="shard body failure"):
            run_shards([[1]], _boom, policy=ExecutionPolicy(max_retries=0))


    def test_worker_hard_exit_is_reported_accurately(self, tmp_path):
        # A real ``os._exit`` (not a chaos rule) while the shard holds its
        # inline operand array: the pool breaks, is rebuilt, and the retry
        # recovers the shard.
        base = np.full(8, 10, dtype=np.int64)
        marker = str(tmp_path / "crashed-once")
        report = ExecutionReport()
        result = run_shards(
            [(base, marker, [1, 2]), (base, "", [3])],
            _crash_once,
            policy=ExecutionPolicy(max_retries=2),
            units=lambda task: len(task[2]),
            report=report,
        )
        assert result == [[81, 82], [83]]
        assert os.path.exists(marker)
        assert report.crashes >= 1
        assert report.pool_rebuilds >= 1
        assert report.recovered_shards >= 1


    def test_one_dying_worker_counts_one_crash(self):
        # Shard 1 sleeps, so it is still in flight when shard 0's worker
        # dies: the broken pool fails both attempts, but one worker crashed.
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        report = ExecutionReport()
        result = run_shards(
            [(0.0, [1]), (0.5, [2])],
            _nap_then_double,
            chaos=chaos,
            report=report,
        )
        assert result == [[2], [4]]
        assert report.crashes == 1
        assert report.failures == 2
        assert report.retries == 2
        assert report.pool_rebuilds == 1


class TestPoolScope:
    """Dispatches inside one :func:`pool_scope` share its worker pool."""

    def test_dispatches_share_the_pool_and_it_is_reaped_at_exit(self):
        with pool_scope():
            first = run_shards([[1], [2]], _pids)
            workers = _live_children()
            second = run_shards([[3], [4]], _pids)
            assert _live_children() == workers
        assert multiprocessing.active_children() == []
        assert len(workers) == 2
        assert {pid for [pid] in first + second} <= workers

    def test_without_a_scope_each_dispatch_forks_its_own_pool(self):
        first = run_shards([[1], [2]], _pids)
        assert multiprocessing.active_children() == []
        second = run_shards([[3], [4]], _pids)
        assert not {pid for [pid] in first} & {pid for [pid] in second}

    def test_nested_scopes_join_the_outer_pool(self):
        with pool_scope() as outer:
            run_shards([[1], [2]], _pids)
            with pool_scope() as inner:
                assert inner is outer
            assert outer.pool is not None
        assert outer.pool is None

    def test_a_pool_of_another_size_is_replaced(self):
        with pool_scope():
            wide = run_shards([[1], [2]], _pids, max_workers=2)
            narrow = run_shards([[3], [4], [5]], _pids, max_workers=1)
            assert len(_live_children()) == 1
        assert len({pid for [pid] in narrow}) == 1
        assert not {pid for [pid] in wide} & {pid for [pid] in narrow}

    def test_a_broken_pool_is_reforked_without_a_second_rebuild(self):
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        broken, clean = ExecutionReport(), ExecutionReport()
        with pool_scope():
            assert run_shards(TASKS, _double, chaos=chaos, report=broken) == EXPECTED
            assert run_shards(TASKS, _double, report=clean) == EXPECTED
        assert broken.pool_rebuilds == 1
        assert broken.crashes == 1
        assert not clean.faulted

    def test_a_failed_dispatch_does_not_hand_on_its_pool(self):
        with pool_scope() as slot:
            run_shards([[1], [2]], _pids)
            with pytest.raises(ShardExecutionError):
                run_shards(
                    [[1], [2]],
                    _boom,
                    policy=ExecutionPolicy(on_failure="fail"),
                )
            assert slot.pool is None
            assert multiprocessing.active_children() == []

    def test_interrupt_between_dispatches_kills_the_pool(self):
        with pytest.raises(KeyboardInterrupt):
            with pool_scope():
                run_shards([[1], [2]], _pids)
                raise KeyboardInterrupt
        assert multiprocessing.active_children() == []


class TestBackoffCap:
    def test_exponential_backoff_is_capped_and_accounted(self, monkeypatch):
        # Three consecutive crashes of shard 0 drive retry rounds 1..3.
        # Uncapped, the exponential schedule would sleep 1s, 2s, 4s; with
        # max_backoff_s=2.5 the third round must be clamped, and the total
        # surfaced in the report.
        recorded = []
        monkeypatch.setattr(
            "repro.core.resilience.time.sleep",
            lambda delay: recorded.append(delay),
        )
        chaos = ChaosPlan(
            tuple(
                ChaosRule(action="crash", shard=0, attempt=attempt)
                for attempt in range(3)
            )
        )
        result, report = _run(
            chaos=chaos,
            policy=ExecutionPolicy(
                max_retries=3, backoff_s=1.0, max_backoff_s=2.5
            ),
        )
        assert result == EXPECTED
        assert recorded == [1.0, 2.0, 2.5]
        assert report.backoff_wait_s == pytest.approx(sum(recorded))

    def test_no_backoff_means_no_sleep_and_zero_accounting(self, monkeypatch):
        recorded = []
        monkeypatch.setattr(
            "repro.core.resilience.time.sleep",
            lambda delay: recorded.append(delay),
        )
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        result, report = _run(chaos=chaos)  # DEFAULT_POLICY: backoff_s=0
        assert result == EXPECTED
        assert recorded == []
        assert report.backoff_wait_s == 0.0

    def test_report_json_carries_backoff_wait(self):
        report = ExecutionReport()
        report.backoff_wait_s += 1.5
        assert report.to_json()["backoff_wait_s"] == 1.5
        merged = ExecutionReport()
        merged.merge(report)
        assert merged.backoff_wait_s == 1.5


class TestTimeoutRecovery:
    def test_hung_shard_times_out_and_recovers(self):
        chaos = ChaosPlan((ChaosRule(action="hang", shard=1, attempt=0, hang_s=30.0),))
        result, report = _run(
            chaos=chaos,
            policy=ExecutionPolicy(max_retries=2, shard_timeout_s=1.0),
        )
        assert result == EXPECTED
        assert report.timeouts >= 1
        assert report.pool_rebuilds >= 1
        assert report.wall_time_lost_s > 0.0
        # Workers killed by the teardown did not die on their own.
        assert report.crashes == 0


class TestCorruptionRecovery:
    def test_corrupt_payload_is_rejected_and_recomputed(self):
        chaos = ChaosPlan((ChaosRule(action="corrupt", shard=2, attempt=0),))
        result, report = _run(chaos=chaos)
        assert result == EXPECTED
        assert report.corrupt_results >= 1
        assert report.recovered_shards >= 1

    def test_corruption_without_validator_goes_undetected(self):
        # Validation is the caller's contract: without it the engine cannot
        # tell a corrupt payload from a good one.
        chaos = ChaosPlan((ChaosRule(action="corrupt", shard=0, attempt=0),))
        result = run_shards(TASKS, _double, chaos=chaos)
        assert result != EXPECTED


class TestFailureActions:
    def test_split_and_retry_halves_the_shard(self):
        chaos = ChaosPlan((ChaosRule(action="crash", shard=2, attempt=0),))
        result, report = _run(
            chaos=chaos,
            policy=ExecutionPolicy(max_retries=2, on_failure="split-and-retry"),
        )
        assert result == EXPECTED
        assert report.splits >= 1
        assert report.requeues >= 2

    def test_split_of_single_unit_shard_degrades_to_retry(self):
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        report = ExecutionReport()
        result = run_shards(
            [[5]],
            _double,
            policy=ExecutionPolicy(on_failure="split-and-retry"),
            units=_units,
            split=_split,
            chaos=chaos,
            report=report,
        )
        assert result == [[10]]
        assert report.splits == 0
        assert report.retries >= 1

    def test_serial_fallback_runs_in_process_immediately(self):
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        result, report = _run(
            chaos=chaos, policy=ExecutionPolicy(on_failure="serial-fallback")
        )
        assert result == EXPECTED
        assert report.serial_fallbacks >= 1
        assert report.retries == 0

    def test_fail_action_raises_with_report_attached(self):
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        with pytest.raises(ShardExecutionError) as excinfo:
            _run(chaos=chaos, policy=ExecutionPolicy(on_failure="fail"))
        assert excinfo.value.report is not None
        assert excinfo.value.report.crashes >= 1

    def test_chaos_plan_from_environment(self, monkeypatch):
        plan = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        monkeypatch.setenv("REPRO_CHAOS", __import__("json").dumps(plan.to_json()))
        result, report = _run()  # no explicit chaos= -- read from the env
        assert result == EXPECTED
        assert report.crashes >= 1


# -- orchestrator-level byte-identity under chaos ------------------------------


@pytest.fixture(scope="module")
def chaos_grid():
    return TriadGrid.from_product(
        (0.5, 0.3), supply_voltages=(1.0, 0.6), body_bias_voltages=(0.0, 2.0)
    )


@pytest.fixture(scope="module")
def chaos_pattern():
    return PatternConfig(n_vectors=200, width=8, seed=7)


RECOVERY_POLICY = ExecutionPolicy(max_retries=2, shard_timeout_s=30.0)


def _comparable_sweep(kind, grid, pattern, jobs=1, policy=None, **plan):
    """Run one sweep kind on rca8; its results in an ``==``-comparable form."""
    adder = build_adder("rca", 8)
    in1, in2 = generate_patterns(pattern)
    stimulus = pattern_stimulus(pattern)
    if kind == "characterization":
        request = characterization_request(
            adder, grid, in1, in2, stimulus, jobs=jobs, policy=policy
        )
        return plan_payloads(request, **plan)
    if kind == "faults":
        request = fault_request(adder, in1, in2, stimulus, jobs=jobs, policy=policy)
        return plan_payloads(request, **plan)
    # chunk=3 decomposes 6 samples into 2 ranges: one shard per range.
    config = MonteCarloConfig(n_samples=6, seed=5, chunk=3)
    request = montecarlo_request(
        adder, grid, in1, in2, stimulus, config=config, jobs=jobs, policy=policy
    )
    results = variation_results_from_payloads(grid, plan_payloads(request, **plan))
    return [
        (
            result.triad,
            result.ber_samples.tobytes(),
            result.faulty_fraction_samples.tobytes(),
            result.energy_samples.tobytes(),
            result.static_energy_samples.tobytes(),
            result.dynamic_energy_per_operation,
        )
        for result in results
    ]


class TestOrchestratorChaos:
    def test_characterization_sweep_identical_under_chaos(
        self, chaos_grid, chaos_pattern
    ):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        clean = plan_payloads(
            characterization_request(adder, chaos_grid, in1, in2, stimulus)
        )
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        report = ExecutionReport()
        faulted = plan_payloads(
            characterization_request(
                adder, chaos_grid, in1, in2, stimulus, jobs=2, policy=RECOVERY_POLICY
            ),
            chaos=chaos,
            report=report,
        )
        assert faulted == clean
        assert report.faulted
        assert report.crashes >= 1

    @pytest.mark.parametrize("kind", ["characterization", "faults", "montecarlo"])
    def test_characterization_sweep_rejects_corrupt_payloads(
        self, kind, chaos_grid, chaos_pattern
    ):
        # Every kind ships two shards here, so shard 1 exists for each.
        clean = _comparable_sweep(kind, chaos_grid, chaos_pattern)
        chaos = ChaosPlan((ChaosRule(action="corrupt", shard=1, attempt=0),))
        report = ExecutionReport()
        faulted = _comparable_sweep(
            kind,
            chaos_grid,
            chaos_pattern,
            jobs=2,
            policy=RECOVERY_POLICY,
            chaos=chaos,
            report=report,
        )
        assert faulted == clean
        assert report.shards == 2
        assert report.corrupt_results >= 1
        assert report.recovered_shards >= 1

    def test_fault_sweep_identical_under_chaos(self, chaos_pattern):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        clean = plan_payloads(fault_request(adder, in1, in2, stimulus))
        chaos = ChaosPlan((ChaosRule(action="crash", shard=1, attempt=0),))
        report = ExecutionReport()
        faulted = plan_payloads(
            fault_request(adder, in1, in2, stimulus, jobs=2, policy=RECOVERY_POLICY),
            chaos=chaos,
            report=report,
        )
        assert len(faulted) == len(clean)
        assert faulted == clean
        assert report.faulted

    def test_montecarlo_sweep_identical_under_chaos(self, chaos_grid, chaos_pattern):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        # chunk=3 decomposes 6 samples into 2 ranges: one shard per range.
        config = MonteCarloConfig(n_samples=6, seed=5, chunk=3)
        clean = variation_results_from_payloads(
            chaos_grid,
            plan_payloads(
                montecarlo_request(adder, chaos_grid, in1, in2, stimulus, config=config)
            ),
        )
        chaos = ChaosPlan((ChaosRule(action="corrupt", shard=0, attempt=0),))
        report = ExecutionReport()
        faulted = variation_results_from_payloads(
            chaos_grid,
            plan_payloads(
                montecarlo_request(
                    adder,
                    chaos_grid,
                    in1,
                    in2,
                    stimulus,
                    config=config,
                    jobs=2,
                    policy=RECOVERY_POLICY,
                ),
                chaos=chaos,
                report=report,
            ),
        )
        assert len(faulted) == len(clean)
        for a, b in zip(clean, faulted):
            assert a.triad == b.triad
            assert np.array_equal(a.ber_samples, b.ber_samples)
            assert np.array_equal(a.energy_samples, b.energy_samples)
        assert report.faulted
        assert report.corrupt_results >= 1

    def test_single_range_montecarlo_split_and_retry_is_identical(
        self, chaos_grid, chaos_pattern
    ):
        # One sample range shards by (vdd, vbb) group; a crashed shard is
        # halved along its triads, whose store keys stay per (range, triad).
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        config = MonteCarloConfig(n_samples=6, seed=5)
        assert len(config.sample_ranges()) == 1
        clean = variation_results_from_payloads(
            chaos_grid,
            plan_payloads(
                montecarlo_request(adder, chaos_grid, in1, in2, stimulus, config=config)
            ),
        )
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        report = ExecutionReport()
        faulted = variation_results_from_payloads(
            chaos_grid,
            plan_payloads(
                montecarlo_request(
                    adder,
                    chaos_grid,
                    in1,
                    in2,
                    stimulus,
                    config=config,
                    jobs=2,
                    policy=ExecutionPolicy(max_retries=2, on_failure="split-and-retry"),
                ),
                chaos=chaos,
                report=report,
            ),
        )
        assert len(faulted) == len(clean)
        for a, b in zip(clean, faulted):
            assert a.triad == b.triad
            assert np.array_equal(a.ber_samples, b.ber_samples)
            assert np.array_equal(a.energy_samples, b.energy_samples)
            assert np.array_equal(a.static_energy_samples, b.static_energy_samples)
        assert report.crashes >= 1
        assert report.splits >= 1

    def test_chaos_crash_with_packfile_flush_stays_consistent(
        self, chaos_grid, chaos_pattern, tmp_path
    ):
        # A worker crash mid-sweep must leave the packfile store verifiable,
        # and warm enough that a rerun simulates zero units.
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        store = SweepResultStore(tmp_path / "cache")
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        report = ExecutionReport()
        first = plan_payloads(
            characterization_request(
                adder, chaos_grid, in1, in2, stimulus, jobs=2, policy=RECOVERY_POLICY
            ),
            store=store,
            chaos=chaos,
            report=report,
        )
        assert report.crashes >= 1
        fsck = SweepResultStore(store.root).verify()
        assert fsck.quarantined == 0
        assert fsck.io_errors == 0
        assert fsck.scanned == fsck.valid == len(list(chaos_grid))
        before = simulated_unit_count()
        warm = plan_payloads(
            characterization_request(adder, chaos_grid, in1, in2, stimulus, jobs=2),
            store=SweepResultStore(store.root),
        )
        assert simulated_unit_count() == before
        assert warm == first
