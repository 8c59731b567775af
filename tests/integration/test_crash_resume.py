"""Crash-consistency: a SIGKILLed sweep resumes warm without recomputation.

The sharded executor flushes every completed shard to the result store the
moment it finishes, so killing the process mid-sweep must lose only the
in-flight shards.  A warm rerun over the same store simulates exactly the
unfinished units and produces output byte-identical to a fault-free serial
run.  The stall is injected with a deterministic ``REPRO_CHAOS`` hang rule,
the same plumbing the chaos CI job uses.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

CHARACTERIZE = [
    "characterize",
    "--architecture",
    "rca",
    "--width",
    "8",
    "--vectors",
    "300",
    "--seed",
    "7",
]

#: An exploration of many small sweeps: one dispatch per evaluation.
EXPLORE = [
    "explore",
    "--budget",
    "24",
    "--widths",
    "8",
    "16",
    "32",
    "--vectors",
    "2000",
]


def _environment(chaos=None):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_CHAOS", None)
    if chaos is not None:
        env["REPRO_CHAOS"] = json.dumps(chaos, sort_keys=True)
    return env


def _run(arguments, store, *, jobs, chaos=None):
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        *arguments,
        "--jobs",
        str(jobs),
        "--cache-dir",
        str(store),
    ]
    return subprocess.run(
        command,
        env=_environment(chaos),
        capture_output=True,
        text=True,
        timeout=600,
    )


def _entries(store):
    from _store_helpers import store_snapshot

    return store_snapshot(store)


def test_killed_sweep_resumes_warm_and_matches_fault_free_output(tmp_path):
    golden_store = tmp_path / "golden"
    crash_store = tmp_path / "crashed"

    # Fault-free serial reference run: its stdout is the byte-level oracle
    # and its store tells us the total unit count.
    golden = _run(CHARACTERIZE, golden_store, jobs=1)
    assert golden.returncode == 0, golden.stderr
    total_units = len(_entries(golden_store))
    assert total_units > 1

    # Sharded run with one shard hung far past the test timeout.  The
    # healthy worker keeps completing shards, each flushed to the store as
    # it lands; once progress is visible on disk, SIGKILL the whole process
    # group mid-sweep.
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            *CHARACTERIZE,
            "--jobs",
            "2",
            "--cache-dir",
            str(crash_store),
        ],
        env=_environment(
            chaos=[{"action": "hang", "shard": 0, "attempt": 0, "hang_s": 600}]
        ),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            if process.poll() is not None:
                pytest.fail("chaos run exited instead of hanging on shard 0")
            if _entries(crash_store):
                break
            time.sleep(0.1)
        else:
            pytest.fail("no shard was flushed to the store before the deadline")
    finally:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=60)

    survivors = _entries(crash_store)
    assert 0 < len(survivors) < total_units

    # Warm resume over the surviving store: simulates only the lost units.
    resumed = _run(CHARACTERIZE, crash_store, jobs=2)
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout == golden.stdout

    after = _entries(crash_store)
    assert len(after) == total_units
    # Completed units were neither re-simulated nor rewritten: the
    # surviving entries are byte-for-byte untouched.
    for key, payload in survivors.items():
        assert after[key] == payload


def _start_pooled(arguments, store, chaos=None):
    """A ``--jobs 2`` CLI run over ``store``, in its own process group."""
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            *arguments,
            "--jobs",
            "2",
            "--cache-dir",
            str(store),
        ],
        env=_environment(chaos),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def _start_interruptible_run(store):
    """A sharded CLI sweep whose shard 0 hangs."""
    return _start_pooled(
        CHARACTERIZE,
        store,
        chaos=[{"action": "hang", "shard": 0, "attempt": 0, "hang_s": 600}],
    )


def _start_explore(store):
    """A sharded CLI exploration: many small dispatches."""
    return _start_pooled(EXPLORE, store)


def _has_flushed(process, store):
    return bool(_entries(store))


def _children(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            return [int(token) for token in handle.read().split()]
    except OSError:
        return []


def _state(pid):
    """The one-letter scheduler state of ``pid`` (``R``, ``S`` ...), or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


def _pool_idles(process, store, samples=50, interval_s=0.002):
    """Whether, within ``samples`` looks, the run's forked pool sat idle.

    Idle means both workers wait for work while the parent itself runs:
    the run is between two dispatches, not inside one.
    """
    for _ in range(samples):
        workers = _children(process.pid)
        if (
            len(workers) == 2
            and _state(process.pid) == "R"
            and all(_state(worker) == "S" for worker in workers)
        ):
            return True
        time.sleep(interval_s)
    return False


def _group_alive(pgid):
    """Whether any process of the process group ``pgid`` still exists."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _interrupt_runs(stores, start=_start_interruptible_run, ready=_has_flushed):
    """Start one run per store, Ctrl-C each once ``ready(process, store)``.

    The runs go concurrently.  Returns ``(returncode, stderr, survived)``
    per store, where ``survived`` says whether any process of the run's
    group (a pool worker, say) outlived it.
    """
    processes = [start(store) for store in stores]
    try:
        pending = dict(enumerate(processes))
        deadline = time.monotonic() + 300
        while pending and time.monotonic() < deadline:
            for index, process in list(pending.items()):
                if process.poll() is not None or ready(process, stores[index]):
                    os.killpg(process.pid, signal.SIGINT)
                    del pending[index]
            time.sleep(0.1)
        for process in pending.values():
            os.killpg(process.pid, signal.SIGINT)
        outcomes = []
        for process in processes:
            _, stderr = process.communicate(timeout=120)
            outcomes.append((process.returncode, stderr, _group_alive(process.pid)))
        return outcomes
    finally:
        for process in processes:
            if process.poll() is None or _group_alive(process.pid):
                os.killpg(process.pid, signal.SIGKILL)
                process.wait(timeout=60)


def test_interrupted_run_exits_130_without_traceback(tmp_path):
    """Ctrl-C mid-sweep: clean exit code 130, persisted progress, no spew."""
    store = tmp_path / "store"
    [(returncode, stderr, survived)] = _interrupt_runs([store])
    assert returncode == 130
    assert "Traceback" not in stderr
    assert "rerun to resume warm" in stderr
    assert not survived
    assert _entries(store)


def test_interrupt_while_the_pool_idles_between_evaluations(tmp_path):
    """Ctrl-C between two of an exploration's dispatches.

    One worker pool serves every evaluation of the run, so the interrupt
    can land while the pool waits for the next dispatch: the workers must
    still die with the run, which exits 130 without a traceback.
    """
    store = tmp_path / "store"
    [(returncode, stderr, survived)] = _interrupt_runs(
        [store], start=_start_explore, ready=_pool_idles
    )
    assert returncode == 130, stderr
    assert "Traceback" not in stderr
    assert "rerun to resume warm" in stderr
    assert not survived


#: Interrupted runs of the regression loop, and how many run at once.
INTERRUPT_LOOP_RUNS = 20
INTERRUPT_LOOP_WAVE = 4


def test_interrupted_runs_never_print_an_exit_traceback(tmp_path):
    """Every interrupted run exits 130 with a clean stderr.

    Tearing the pool down used to return before the executor's manager
    thread had closed its wakeup pipe; the close then raced the
    interpreter-exit hook writing to that pipe, and about one run in seven
    died at exit with ``OSError: [Errno 9] Bad file descriptor`` from
    ``concurrent.futures.process._python_exit``.  A single run rarely shows
    it, so this loop interrupts many.
    """
    failures = []
    for wave in range(0, INTERRUPT_LOOP_RUNS, INTERRUPT_LOOP_WAVE):
        stores = [
            tmp_path / f"store-{index}"
            for index in range(wave, wave + INTERRUPT_LOOP_WAVE)
        ]
        for store, (returncode, stderr, survived) in zip(
            stores, _interrupt_runs(stores)
        ):
            if returncode != 130 or "Traceback" in stderr or survived:
                failures.append((store.name, returncode, stderr, survived))
    assert not failures, failures
