"""Tests of the fault-tolerant shard execution engine.

The engine's contract is byte-identity: whatever faults fire -- worker
crashes, hangs past the shard timeout, corrupted payloads -- the merged
result must equal a fault-free serial run, and every recovery step must be
visible in the :class:`ExecutionReport`.  The chaos plans used here are
deterministic (keyed on shard index and attempt), so each test reproduces
the same failure sequence on every run.
"""

import os

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.core.resilience import (
    DEFAULT_POLICY,
    FAILURE_ACTIONS,
    ExecutionPolicy,
    ExecutionReport,
    ShardExecutionError,
    run_shards,
)
from repro.core.store import SweepResultStore
from repro.core.sweep import (
    pattern_stimulus,
    run_characterization_sweep,
    run_fault_sweep,
    simulated_unit_count,
)
from repro.core.triad import TriadGrid
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.testing.chaos import CORRUPTION_MARKER, ChaosPlan, ChaosRule
from repro.variation.montecarlo import MonteCarloConfig, run_montecarlo_sweep


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

    @pytest.mark.parametrize("action", FAILURE_ACTIONS)
    def test_json_round_trip(self, action):
        policy = ExecutionPolicy(
            max_retries=1,
            backoff_s=0.5,
            max_backoff_s=7.5,
            shard_timeout_s=3.0,
            on_failure=action,
        )
        assert ExecutionPolicy.from_json(policy.to_json()) == policy

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ExecutionPolicy field"):
            ExecutionPolicy.from_json({"max_retries": 1, "jitter": True})


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


class TestOrchestratorChaos:
    def test_characterization_sweep_identical_under_chaos(
        self, chaos_grid, chaos_pattern
    ):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        clean = run_characterization_sweep(adder, chaos_grid, in1, in2, stimulus)
        chaos = ChaosPlan((ChaosRule(action="crash", shard=0, attempt=0),))
        report = ExecutionReport()
        faulted = run_characterization_sweep(
            adder,
            chaos_grid,
            in1,
            in2,
            stimulus,
            jobs=2,
            policy=RECOVERY_POLICY,
            chaos=chaos,
            report=report,
        )
        assert faulted == clean
        assert report.faulted
        assert report.crashes >= 1

    def test_characterization_sweep_rejects_corrupt_payloads(
        self, chaos_grid, chaos_pattern
    ):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        clean = run_characterization_sweep(adder, chaos_grid, in1, in2, stimulus)
        chaos = ChaosPlan((ChaosRule(action="corrupt", shard=1, attempt=0),))
        report = ExecutionReport()
        faulted = run_characterization_sweep(
            adder,
            chaos_grid,
            in1,
            in2,
            stimulus,
            jobs=2,
            policy=RECOVERY_POLICY,
            chaos=chaos,
            report=report,
        )
        assert faulted == clean
        assert report.corrupt_results >= 1
        assert report.recovered_shards >= 1

    def test_fault_sweep_identical_under_chaos(self, chaos_pattern):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        clean = run_fault_sweep(adder, in1, in2, stimulus)
        chaos = ChaosPlan((ChaosRule(action="crash", shard=1, attempt=0),))
        report = ExecutionReport()
        faulted = run_fault_sweep(
            adder,
            in1,
            in2,
            stimulus,
            jobs=2,
            policy=RECOVERY_POLICY,
            chaos=chaos,
            report=report,
        )
        assert len(faulted) == len(clean)
        for a, b in zip(clean, faulted):
            assert a.fault == b.fault
            assert a.ber == b.ber
            assert a.detected == b.detected
        assert report.faulted

    def test_montecarlo_sweep_identical_under_chaos(self, chaos_grid, chaos_pattern):
        adder = build_adder("rca", 8)
        in1, in2 = generate_patterns(chaos_pattern)
        stimulus = pattern_stimulus(chaos_pattern)
        # chunk=3 decomposes 6 samples into 2 ranges, so the run actually
        # shards (a single range executes in-process and sees no chaos).
        config = MonteCarloConfig(n_samples=6, seed=5, chunk=3)
        clean = run_montecarlo_sweep(
            adder, chaos_grid, in1, in2, stimulus, config=config
        )
        chaos = ChaosPlan((ChaosRule(action="corrupt", shard=0, attempt=0),))
        report = ExecutionReport()
        faulted = run_montecarlo_sweep(
            adder,
            chaos_grid,
            in1,
            in2,
            stimulus,
            config=config,
            jobs=2,
            policy=RECOVERY_POLICY,
            chaos=chaos,
            report=report,
        )
        assert len(faulted) == len(clean)
        for a, b in zip(clean, faulted):
            assert a.triad == b.triad
            assert np.array_equal(a.ber_samples, b.ber_samples)
            assert np.array_equal(a.energy_samples, b.energy_samples)
        assert report.faulted
        assert report.corrupt_results >= 1

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
        first = run_characterization_sweep(
            adder,
            chaos_grid,
            in1,
            in2,
            stimulus,
            jobs=2,
            store=store,
            policy=RECOVERY_POLICY,
            chaos=chaos,
            report=report,
        )
        assert report.crashes >= 1
        fsck = SweepResultStore(store.root).verify()
        assert fsck.quarantined == 0
        assert fsck.io_errors == 0
        assert fsck.scanned == fsck.valid == len(list(chaos_grid))
        before = simulated_unit_count()
        warm = run_characterization_sweep(
            adder,
            chaos_grid,
            in1,
            in2,
            stimulus,
            jobs=2,
            store=SweepResultStore(store.root),
        )
        assert simulated_unit_count() == before
        assert warm == first
