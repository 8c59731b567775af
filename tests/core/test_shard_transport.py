"""Tests of how sharded sweeps ship their operands to worker processes.

Characterization, fault and Monte Carlo sweeps ship the one shard type,
``_Shard``: a frozen dataclass of a per-kind value, the built circuit, the
operands and the units.  The circuit and the operand arrays travel inline:
``in1``/``in2`` are plain ``np.ndarray`` values, and the process pool
pickles them with the rest of the task.  There is one way to ship operands and no setting that
selects another, so these tests pin down that path for every kind
(pickling, splitting, validation, in-process replay), check
that a parallel sweep never creates a shared-memory segment, and check that
the settings of the retired shared-memory transport are rejected loudly
instead of being silently ignored.
"""

import inspect
import pathlib
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.analysis.figures import fig5_ber_per_bit
from repro.api.options import SweepOptions
from repro.api.session import Session
from repro.circuits.adders import build_adder, speculative_adder
from repro.circuits.multipliers import array_multiplier
from repro.cli import build_parser
from repro.core.characterization import CharacterizationFlow
from repro.core.resilience import ExecutionReport, run_shards
from repro.core.store import netlist_fingerprint
from repro.core.sweep import (
    PAYLOAD_VERSION,
    CharacterizationKind,
    _FaultKind,
    _run_shard,
    _Shard,
    _split_shard,
    _validate_shard,
    SweepRequest,
    characterization_request,
    fault_request,
    pattern_stimulus,
    run_sweep_plan,
)
from repro.core.triad import OperatingTriad, TriadGrid
from repro.explore.evaluator import CandidateEvaluator
from repro.simulation.fault_injection import StuckAtFault
from repro.simulation.patterns import PatternConfig, generate_patterns
from repro.technology.library import DEFAULT_LIBRARY
from repro.variation.montecarlo import (
    MC_PAYLOAD_VERSION,
    MonteCarloConfig,
    _MonteCarloKind,
    montecarlo_request,
)

from _sweep_helpers import plan_payloads

KINDS = ("characterization", "faults", "montecarlo")

TRIADS = tuple(
    OperatingTriad(tclk=tclk, vdd=vdd, vbb=vbb)
    for tclk, vdd, vbb in ((0.5, 1.0, 0.0), (0.3, 0.7, 0.0), (0.3, 0.5, 2.0))
)
FAULT_SITES = tuple(
    StuckAtFault(net=net, stuck_value=value)
    for net, value in ((3, False), (3, True), (5, False), (7, True))
)


def _operands(case):
    """Operand pairs in the shapes the sweep bodies can hand to a shard."""
    rng = np.random.default_rng(17)
    if case == "single-vector":
        return np.array([200], dtype=np.int64), np.array([100], dtype=np.int64)
    if case == "paper-stimulus":
        # The paper characterizes every triad with 20k operand pairs.
        return (
            rng.integers(0, 256, 20_000, dtype=np.int64),
            rng.integers(0, 256, 20_000, dtype=np.int64),
        )
    if case == "strided-view":
        # ``np.asarray`` keeps a caller's strided view as it is.
        base = rng.integers(0, 256, 128, dtype=np.int64)
        return base[::2], base[1::2]
    if case == "read-only":
        in1 = rng.integers(0, 256, 64, dtype=np.int64)
        in2 = rng.integers(0, 256, 64, dtype=np.int64)
        in1.flags.writeable = False
        in2.flags.writeable = False
        return in1, in2
    raise AssertionError(case)


OPERAND_CASES = ("single-vector", "paper-stimulus", "strided-view", "read-only")


def _task(kind, in1, in2, circuit=None):
    circuit = circuit if circuit is not None else build_adder("rca", 8)
    if kind == "characterization":
        sweep_kind = CharacterizationKind(DEFAULT_LIBRARY, keep_latched=False)
        return _Shard(sweep_kind, circuit, in1, in2, TRIADS)
    if kind == "faults":
        return _Shard(_FaultKind(), circuit, in1, in2, FAULT_SITES)
    if kind == "montecarlo":
        config = MonteCarloConfig(n_samples=4, seed=5, chunk=2)
        sweep_kind = _MonteCarloKind(
            DEFAULT_LIBRARY, config.model, config.seed, start=0, stop=2
        )
        return _Shard(sweep_kind, circuit, in1, in2, TRIADS)
    raise AssertionError(kind)


VERSIONS = {
    "characterization": PAYLOAD_VERSION,
    "faults": PAYLOAD_VERSION,
    "montecarlo": MC_PAYLOAD_VERSION,
}


def _round_trip(task):
    return pickle.loads(pickle.dumps(task))


SHIPPED_CIRCUITS = {
    "rca8": lambda: build_adder("rca", 8),
    "spa8w4": lambda: speculative_adder(8, 4),
    "mul4x4": lambda: array_multiplier(4, 4),
}


class TestShippedCircuit:
    @pytest.mark.parametrize("name", sorted(SHIPPED_CIRCUITS))
    def test_the_worker_receives_the_same_netlist(self, name):
        circuit = SHIPPED_CIRCUITS[name]()
        task = _task("characterization", *_operands("single-vector"), circuit)
        shipped = _round_trip(task)
        assert shipped.circuit.name == circuit.name == name
        assert netlist_fingerprint(shipped.circuit.netlist) == netlist_fingerprint(
            circuit.netlist
        )


class TestInlineOperands:
    @pytest.mark.parametrize("case", OPERAND_CASES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_pickle_preserves_operand_values_dtype_and_shape(self, kind, case):
        in1, in2 = _operands(case)
        shipped = _round_trip(_task(kind, in1, in2))
        for sent, received in ((in1, shipped.in1), (in2, shipped.in2)):
            assert isinstance(received, np.ndarray)
            assert received.dtype == sent.dtype
            assert received.shape == sent.shape
            assert np.array_equal(received, sent)

    @pytest.mark.parametrize("kind", KINDS)
    def test_shipped_operands_are_private_copies(self, kind):
        in1, in2 = _operands("paper-stimulus")
        shipped = _round_trip(_task(kind, in1, in2))
        assert not np.shares_memory(shipped.in1, in1)
        assert not np.shares_memory(shipped.in2, in2)
        before = in1.copy()
        shipped.in1[:] = 0
        assert np.array_equal(in1, before)

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_pickled_task_carries_the_operand_bytes(self, kind):
        in1, in2 = _operands("paper-stimulus")
        blob = pickle.dumps(_task(kind, in1, in2))
        assert len(blob) >= in1.nbytes + in2.nbytes

    @pytest.mark.parametrize("kind", KINDS)
    def test_worker_replays_a_shipped_task_identically(self, kind):
        pattern = PatternConfig(n_vectors=64, width=8, seed=3)
        in1, in2 = (
            np.asarray(operand, dtype=np.int64)
            for operand in generate_patterns(pattern)
        )
        task = _task(kind, in1, in2)
        local = _run_shard(task)
        assert len(local) == len(task.units)
        assert _run_shard(_round_trip(task)) == local


class TestSplitKeepsOperands:
    @pytest.mark.parametrize("kind", KINDS)
    def test_both_halves_carry_the_same_operands_and_cover_the_units(self, kind):
        in1, in2 = _operands("strided-view")
        task = _task(kind, in1, in2)
        first, second = _split_shard(task)
        for half in (first, second):
            assert half.kind is task.kind
            assert half.in1 is task.in1
            assert half.in2 is task.in2
        assert first.units + second.units == task.units
        assert len(first.units) == len(task.units) // 2


def _payloads(task, version):
    return [{"payload_version": version} for _ in range(len(task.units))]


class TestShardValidation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_current_payload_per_unit_is_accepted(self, kind):
        version = VERSIONS[kind]
        task = _task(kind, *_operands("single-vector"))
        assert _validate_shard(task, _payloads(task, version))

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_missing_unit_is_rejected(self, kind):
        version = VERSIONS[kind]
        task = _task(kind, *_operands("single-vector"))
        assert not _validate_shard(task, _payloads(task, version)[:-1])

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_stale_payload_version_is_rejected(self, kind):
        version = VERSIONS[kind]
        task = _task(kind, *_operands("single-vector"))
        payloads = _payloads(task, version)
        payloads[-1] = {"payload_version": version - 1}
        assert not _validate_shard(task, payloads)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_non_list_result_is_rejected(self, kind):
        version = VERSIONS[kind]
        task = _task(kind, *_operands("single-vector"))
        assert not _validate_shard(task, tuple(_payloads(task, version)))


@pytest.fixture
def shared_memory_calls(monkeypatch):
    """Record every ``SharedMemory`` constructed in this process."""
    calls = []
    original = shared_memory.SharedMemory

    class Recording(original):
        def __init__(self, *args, **kwargs):
            calls.append((args, kwargs))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(shared_memory, "SharedMemory", Recording)
    return calls


def _repro_segments():
    root = pathlib.Path("/dev/shm")
    if not root.is_dir():
        return set()
    return {path.name for path in root.iterdir() if path.name.startswith("repro_shm_")}


class TestNoSharedMemory:
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_parallel_sweep_creates_no_segment(self, kind, shared_memory_calls):
        adder = build_adder("rca", 8)
        pattern = PatternConfig(n_vectors=200, width=8, seed=7)
        in1, in2 = generate_patterns(pattern)
        stimulus = pattern_stimulus(pattern)
        grid = TriadGrid.from_product(
            (0.5,), supply_voltages=(1.0, 0.6), body_bias_voltages=(0.0,)
        )
        segments_before = _repro_segments()
        report = ExecutionReport()
        if kind == "characterization":
            plan_payloads(
                characterization_request(adder, grid, in1, in2, stimulus, jobs=2),
                report=report,
            )
        elif kind == "faults":
            plan_payloads(
                fault_request(adder, in1, in2, stimulus, jobs=2),
                report=report,
            )
        else:
            plan_payloads(
                montecarlo_request(
                    adder,
                    grid,
                    in1,
                    in2,
                    stimulus,
                    config=MonteCarloConfig(n_samples=4, seed=5, chunk=2),
                    jobs=2,
                ),
                report=report,
            )
        assert report.shards >= 2
        assert shared_memory_calls == []
        assert _repro_segments() <= segments_before


class TestRetiredTransportSettings:
    def test_session_rejects_shared_memory(self):
        with pytest.raises(TypeError):
            Session(store=None, shared_memory=False)

    def test_session_from_options_rejects_shared_memory(self):
        with pytest.raises(TypeError):
            Session.from_options(shared_memory=False)

    def test_sweep_options_reject_shared_memory(self):
        with pytest.raises(TypeError):
            SweepOptions(jobs=2, shared_memory=False)

    def test_cli_rejects_no_shm(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["characterize", "--no-shm"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "entry_point",
        [
            run_sweep_plan,
            SweepRequest,
            montecarlo_request,
            CharacterizationFlow.run,
            fig5_ber_per_bit,
            CandidateEvaluator,
        ],
        ids=lambda entry_point: entry_point.__qualname__,
    )
    def test_sweep_entry_points_take_no_transport_parameter(self, entry_point):
        assert "shm" not in inspect.signature(entry_point).parameters

    def test_run_shards_takes_no_cleanup_hook(self):
        assert "cleanup" not in inspect.signature(run_shards).parameters

    def test_repro_shm_leaves_a_parallel_sweep_unchanged(self, monkeypatch):
        adder = build_adder("rca", 8)
        pattern = PatternConfig(n_vectors=120, width=8, seed=9)
        in1, in2 = generate_patterns(pattern)
        stimulus = pattern_stimulus(pattern)
        grid = TriadGrid.from_product(
            (0.4,), supply_voltages=(1.0, 0.6), body_bias_voltages=(0.0,)
        )
        reference = plan_payloads(
            characterization_request(adder, grid, in1, in2, stimulus)
        )
        for value in ("0", "1"):
            monkeypatch.setenv("REPRO_SHM", value)
            sharded = plan_payloads(
                characterization_request(adder, grid, in1, in2, stimulus, jobs=2)
            )
            assert sharded == reference
