"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 40 --trace 0

The run repeats one round of the workload (see ``perfbench/workloads.json``)
until ``--seconds`` (by default ``run_seconds`` of ``BENCHMARK.json``) have
passed and the latency tail has enough samples.  Every round runs in a
fresh interpreter, so each one also yields a set-up sample: spawn to the
worker's ready line, or to ``repro serve``'s ``listening on`` line.  Every
result is checked against a reference.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` traces one round, prints its layer table and the per-layer
metrics, and keeps the trace at ``.perfbench_work/<workload>.trace.jsonl``
for ``repro trace summary``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-up is sampled at least this often per run (extra spawns if needed).
SETUP_SAMPLES = 5
#: Samples of start-up layers measured outside the rounds, in traced runs.
STARTUP_SAMPLES = 3
#: No round starts after this many seconds of timed phase, whatever the tail.
MAX_TIMED_S = 90.0
#: One round, or one process start, may take at most this long.
ROUND_TIMEOUT_S = 150.0
#: Admission rate and burst given to ``repro serve``: far above what two
#: closed-loop clients send, so the load is never refused.
SERVE_RATE = "1000"
SERVE_BURST = "1000"
HOST = "127.0.0.1"
#: The seed whose sweep-cold digests are committed in reference_digests.json.
DEFAULT_SEED = 2017
#: At exit, children still running after this many seconds are killed.
EXIT_GRACE_S = 30.0
#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong result: that is counted)."""


def canonical(document: dict[str, Any]) -> str:
    return json.dumps(document, sort_keys=True)


def child_env() -> dict[str, str]:
    """The environment of every process the benchmark starts.

    ``REPRO_*`` settings of the calling shell (chaos rules, cache dir, shm
    switch) would change what is measured, so none is passed on.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def reap(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for ``proc``, killing it after ``timeout`` seconds."""
    try:
        proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def adopt_orphans() -> None:
    """Become the reaper of every orphan among this process's descendants.

    ``multiprocessing`` starts a resource-tracker process beside any process
    that creates shared memory -- a worker, ``repro serve`` -- and that
    tracker outlives its creator briefly.  As a subreaper this process
    inherits such orphans, so :func:`reap_children` can wait for them.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        error = ctypes.get_errno()
        raise OSError(error, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(error)}")


def _child_pids() -> list[int]:
    """Pids of this process's live children, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float) -> None:
    """Stop this process's own resource tracker, then wait until no child
    (adopted orphans included) is left; kill those alive after ``grace_s``."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


class Runner:
    """Spawns worker and server processes inside one scratch directory."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.env = child_env()
        self._ids = itertools.count()

    def path(self, stem: str) -> Path:
        return self.scratch / f"{stem}-{next(self._ids)}"

    def worker(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Run one worker round; adds ``setup_s`` to its output."""
        base = self.path(spec["mode"])
        out_path, log_path = base.with_suffix(".out"), base.with_suffix(".log")
        spec_path = base.with_suffix(".json")
        spec_path.write_text(canonical({**spec, "out": str(out_path)}))
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), str(spec_path)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=ROOT,
            )
            reap(proc, ROUND_TIMEOUT_S)
        text = log_path.read_text(errors="replace")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{text[-3000:]}")
        out = json.loads(out_path.read_text())
        for line in text.splitlines():
            if line.startswith("ready "):
                out["setup_s"] = float(line.split()[1]) - spawned
        return out

    def start_serve(self, store: Path, trace: Path | None) -> "Server":
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--host", HOST,
            "--port", "0", "--cache-dir", str(store),
            "--rate", SERVE_RATE, "--burst", SERVE_BURST,
        ]
        if trace is not None:
            command += ["--trace", str(trace)]
        log = open(self.path("serve").with_suffix(".log"), "wb")
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=log, env=self.env, cwd=ROOT
        )
        log.close()
        try:
            line = _read_line(proc, ROUND_TIMEOUT_S)
            ready = time.monotonic()
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match is None:
                raise BenchError(f"unexpected first line from repro serve: {line!r}")
        except BaseException:
            proc.kill()
            reap(proc, ROUND_TIMEOUT_S)
            raise
        return Server(proc, int(match.group(1)), ready - spawned)


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The first line ``proc`` writes to its stdout pipe (event-driven)."""
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    buffer = b""
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        selector.register(fd, selectors.EVENT_READ)
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                raise BenchError("repro serve printed no readiness line in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError("repro serve exited before it was ready")
            buffer += chunk
    return buffer.split(b"\n", 1)[0].decode("utf-8", "replace")


class Server:
    """A running ``repro serve`` process."""

    def __init__(self, proc: subprocess.Popen, port: int, setup_s: float) -> None:
        self.proc, self.port, self.setup_s = proc, port, setup_s

    def stop(self) -> float:
        """Drain with SIGTERM; returns the peak RSS (MB) the server reached
        before it.  Raises if the drain fails."""
        from perfbench.worker import peak_rss_mb

        try:
            rss = peak_rss_mb(self.proc.pid)
        finally:
            self.proc.send_signal(signal.SIGTERM)
            reap(self.proc, ROUND_TIMEOUT_S)
            assert self.proc.stdout is not None
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError(f"repro serve exited {self.proc.returncode} on drain")
        return rss


async def _get_json(port: int, path: str) -> dict[str, Any]:
    from perfbench.loadgen import http_request

    status, body = await http_request(HOST, port, "GET", path)
    if status != 200:
        raise BenchError(f"GET {path} answered {status}")
    return json.loads(body)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One workload: its rounds, its set-up-only sample, its reference check."""

    name = ""

    def __init__(self, runner: Runner, seed: int, config: dict[str, Any]) -> None:
        self.runner, self.seed, self.config = runner, seed, config

    def prepare(self) -> None:
        """Untimed set-up shared by every round (fixtures)."""

    def round(self, traced: Path | None) -> dict[str, Any]:
        raise NotImplementedError

    def setup_sample(self) -> float:
        raise NotImplementedError

    def check(self, rounds: list[dict[str, Any]]) -> None:
        """Set ``ok`` (one flag per operation) on every round."""
        raise NotImplementedError


def _digest_of(session: Any, document: dict[str, Any]) -> str:
    from perfbench.worker import result_digest
    from repro.api.jobs import job_from_json

    return result_digest(session.run(job_from_json(document)).to_json())


class SweepCold(Workload):
    name = "sweep-cold"

    def prepare(self) -> None:
        from perfbench import inputs

        self.jobs = inputs.sweep_cold_jobs(self.seed)

    def _spec(self, store: Path, traced: Path | None, setup_only: bool) -> dict:
        return {
            "mode": "batch",
            "jobs": self.jobs,
            "store": str(store),
            "trace": str(traced) if traced else None,
            "setup_only": setup_only,
        }

    def round(self, traced: Path | None) -> dict[str, Any]:
        store = self.runner.path("store")
        out = self.runner.worker(self._spec(store, traced, False))
        out["latencies_s"] = [out["wall_s"]] * len(self.jobs)
        out["work"] = out["simulated_units"]
        out["store"] = store
        return out

    def setup_sample(self) -> float:
        store = self.runner.path("store")
        return self.runner.worker(self._spec(store, None, True))["setup_s"]

    def reference(self) -> list[str]:
        """Committed digests for the default seed, else a serial recomputation."""
        table = json.loads((WORKER.parent / "reference_digests.json").read_text())
        if str(self.seed) in table:
            return table[str(self.seed)]
        return serial_reference(self.jobs)

    def check(self, rounds: list[dict[str, Any]]) -> None:
        expected = self.reference()
        for entry in rounds:
            entry["ok"] = [a == b for a, b in zip(entry["digests"], expected)]


def serial_reference(jobs: list[dict[str, Any]]) -> list[str]:
    """Result digests of ``jobs`` run in one process (jobs=1), uncached."""
    from perfbench.worker import result_digest
    from repro.api import Session
    from repro.api.jobs import job_from_json

    serial = [{**doc, "sweep": {"jobs": 1}} for doc in jobs]
    batch = Session(store=None, jobs=1).run_batch([job_from_json(d) for d in serial])
    return [result_digest(result.to_json()) for result in batch.results]


class ServeMix(Workload):
    """``repro serve`` over a warm store built cold from the fixture pool."""

    name = "serve-mix"

    def prepare(self) -> None:
        from perfbench import inputs
        from repro.api import Session
        from repro.api.jobs import job_from_json

        pool = inputs.fixture_pool(self.seed)
        self.pristine = self.runner.path("fixture")
        Session(store=self.pristine, jobs=2).run_batch([job_from_json(doc) for doc in pool])
        self.requests = inputs.serve_requests(self.seed)
        self.documents = [doc for _, doc in self.requests]

    def store_copy(self) -> Path:
        store = self.runner.path("store")
        shutil.copytree(self.pristine, store)
        return store

    def round(self, traced: Path | None) -> dict[str, Any]:
        from perfbench.loadgen import run_closed_loop

        store = self.store_copy()
        server = self.runner.start_serve(store, traced)
        out: dict[str, Any] = {"setup_s": server.setup_s, "store": store}
        try:
            if traced is not None:
                out["healthz_ms"] = asyncio.run(_healthz_rtts(server.port, 20))
            start = time.perf_counter()
            outcomes = asyncio.run(
                run_closed_loop(HOST, server.port, self.documents, self.config["clients"])
            )
            out["wall_s"] = time.perf_counter() - start
            out["stats"] = asyncio.run(_get_json(server.port, "/v1/stats"))
        finally:
            out["rss_mb"] = server.stop()
        out["outcomes"] = outcomes
        out["latencies_s"] = [o.latency_s for o in outcomes]
        out["work"] = sum(o.ok for o in outcomes)
        out["warm_simulated_units"] = sum(
            (o.run or {}).get("simulated_units", 0)
            for o, (kind, _) in zip(outcomes, self.requests)
            if kind != "cold"
        )
        return out

    def setup_sample(self) -> float:
        return serve_ready_sample(self.runner, self.pristine)

    def check(self, rounds: list[dict[str, Any]]) -> None:
        from perfbench.worker import result_digest
        from repro.api import Session

        # A direct Session.run of each distinct document, on an untouched
        # copy of the fixture store (cold jobs simulate here again).
        direct = Session(store=self.store_copy())
        expected: dict[str, str] = {}
        for doc in self.documents:
            key = canonical(doc)
            if key not in expected:
                expected[key] = _digest_of(direct, doc)
        for entry in rounds:
            entry["ok"] = [
                o.ok
                and o.result is not None
                and result_digest(o.result) == expected[canonical(doc)]
                and (kind == "cold" or (o.run or {}).get("simulated_units") == 0)
                for o, doc, (kind, _) in zip(
                    entry["outcomes"], self.documents, self.requests
                )
            ]


def serve_ready_sample(runner: Runner, store: Path) -> float:
    """Spawn ``repro serve`` to its readiness line, then drain it."""
    server = runner.start_serve(store, None)
    server.stop()
    return server.setup_s


async def _healthz_rtts(port: int, count: int) -> list[float]:
    from perfbench.loadgen import http_request

    rtts = []
    for _ in range(count):
        start = time.perf_counter()
        status, _ = await http_request(HOST, port, "GET", "/v1/healthz")
        rtts.append((time.perf_counter() - start) * 1000.0)
        if status != 200:
            raise BenchError(f"/v1/healthz answered {status}")
    return rtts


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SweepCold, ServeMix)
}


# ---------------------------------------------------------------------------
# measurement


def timed_rounds(
    workload: Workload, seconds: float, trace_path: Path | None, min_ops: int
) -> list[dict[str, Any]]:
    """Repeat rounds until ``seconds`` passed and ``min_ops`` untraced
    operations were measured.  With a trace path, the second round is the
    one traced round; the others measure the untraced baseline."""
    rounds: list[dict[str, Any]] = []
    start = time.monotonic()
    while True:
        traced = trace_path if trace_path is not None and len(rounds) == 1 else None
        entry = workload.round(traced)
        entry["traced"] = traced is not None
        rounds.append(entry)
        elapsed = time.monotonic() - start
        ops = sum(len(r["latencies_s"]) for r in rounds if not r["traced"])
        done = elapsed >= seconds and ops >= min_ops
        if trace_path is not None:
            done = done and len(rounds) >= 2
        if done or elapsed >= MAX_TIMED_S:
            return rounds


def end_to_end(
    rounds: list[dict[str, Any]], setups: list[float], config: dict[str, Any]
) -> dict[str, float]:
    """The end-to-end metrics of untraced rounds (every name, every workload)."""
    from perfbench import stats

    latencies = [lat for r in rounds for lat in r["latencies_s"]]
    oks = [ok for r in rounds for ok in r["ok"]]
    limit_s = config["latency_limit_ms"] / 1000.0
    p50 = statistics.median(latencies)
    tail = config["tail_percentile"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([r["wall_s"] for r in rounds]),
        "throughput_per_s": sum(r["work"] for r in rounds)
        / sum(r["wall_s"] for r in rounds),
        "latency_p50_ms": 1000.0 * p50,
        "latency_p95_ms": 1000.0 * (stats.percentile(latencies, tail) if tail else p50),
        "within_limit_ratio": sum(
            ok and lat <= limit_s for ok, lat in zip(oks, latencies)
        ) / len(oks),
        "success_ratio": sum(oks) / len(oks),
        "peak_rss_mb": statistics.median([r["rss_mb"] for r in rounds]),
    }


def store_layout(store: Path) -> dict[str, float]:
    """Open time, entries and segments of a store a round left behind."""
    from repro.core.store import SweepResultStore

    opens = []
    for _ in range(5):
        start = time.perf_counter()
        entries = len(SweepResultStore(store))
        opens.append(time.perf_counter() - start)
    return {
        "store.open_s": statistics.median(opens),
        "store.index_entries": entries,
        "store.segments": len(list((store / "packs").glob("*.pack"))),
    }


def layer_values(
    records: list[dict[str, Any]],
    traced: dict[str, Any],
    overhead: float,
    store: dict[str, float],
    imports: list[float],
    ready: list[float],
) -> dict[str, float]:
    """Every per-layer metric, from the traced round and the start-up samples."""
    from perfbench import layers

    metrics = layers.span_metrics(records)
    metrics.update(store)
    stats_doc = traced.get("stats", {})
    hot = stats_doc.get("hot_results", {})
    lookups = hot.get("hits", 0) + hot.get("misses", 0)
    metrics.update(
        {
            "resilience.retries": traced.get("retries", 0),
            "results.to_json_s": statistics.median(traced.get("to_json_s") or [0.0]),
            "session.warm_simulated_units": traced.get("warm_simulated_units", 0),
            "serve.hot_hit_ratio": hot.get("hits", 0) / lookups if lookups else 0.0,
            "serve.rate_limited": stats_doc.get("metrics", {}).get(
                "serve.rate_limited", 0
            ),
            "serve.healthz_rtt_ms": statistics.median(traced.get("healthz_ms") or [0.0]),
            "startup.import_s": statistics.median(imports),
            "startup.serve_ready_s": statistics.median(ready),
            "trace.overhead_ratio": overhead,
        }
    )
    return metrics


def per_layer(
    workload: Workload, rounds: list[dict[str, Any]], trace_path: Path
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced round, plus the layer table."""
    from perfbench import layers
    from repro.obs.report import load_trace

    traced = next(r for r in rounds if r["traced"])
    baseline = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    overhead = traced["wall_s"] / baseline
    records = load_trace(trace_path)
    runner = workload.runner
    imports = [
        runner.worker({"mode": "import"})["import_s"] for _ in range(STARTUP_SAMPLES)
    ]
    if isinstance(workload, ServeMix):
        ready = [r["setup_s"] for r in rounds]
    else:
        store = runner.path("store")
        ready = [serve_ready_sample(runner, store) for _ in range(STARTUP_SAMPLES)]
    metrics = layer_values(
        records, traced, overhead, store_layout(traced["store"]), imports, ready
    )
    return metrics, layers.layer_table(records, traced["wall_s"], overhead)


def run(args: argparse.Namespace, scratch: Path) -> dict[str, Any]:
    from perfbench import stats

    configs = json.loads((WORKER.parent / "workloads.json").read_text())
    config = configs[args.workload]
    workload = WORKLOADS[args.workload](Runner(scratch), args.seed, config)
    workload.prepare()
    trace_path = WORK / f"{args.workload}.trace.jsonl" if args.trace else None
    if trace_path is not None:
        trace_path.unlink(missing_ok=True)
    tail = config["tail_percentile"]
    min_ops = stats.min_samples_for(tail) if tail else 1
    rounds = timed_rounds(workload, args.seconds, trace_path, min_ops)
    workload.check(rounds)
    walls = " ".join(f"{r['wall_s']:.3f}{'*' if r['traced'] else ''}" for r in rounds)
    print(f"{args.workload}: round wall_s (* traced): {walls}")
    attempted = sum(len(r["ok"]) for r in rounds)
    failed = attempted - sum(sum(r["ok"]) for r in rounds)

    if trace_path is None:
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(workload.setup_sample())
        values = end_to_end(rounds, setups, config)
        declared = BENCHMARK["end_to_end"]
    else:
        values, table = per_layer(workload, rounds, trace_path)
        print(f"{args.workload}: layer table of the traced round ({trace_path.name})")
        print("\n".join(table))
        declared = BENCHMARK["per_layer"]
    metrics = {
        item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
        for item in declared
    }
    for name, metric in metrics.items():
        print(f"{args.workload}: {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    if trace_path is None and not tail:
        print(f"{args.workload}: note: {config['tail_note']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {SRC / 'repro'} not found; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    args = parse_args(argv)
    # A terminated run still stops its servers and children and removes
    # its scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(SRC), str(ROOT)]
    adopt_orphans()
    WORK.mkdir(exist_ok=True)
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir()
    try:
        result = run(args, scratch)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        reap_children(EXIT_GRACE_S)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
