"""One benchmark round in a fresh interpreter.

Usage: ``python worker.py <spec.json>``.  The spec names a mode and its
inputs; the worker prints ``ready <monotonic seconds>`` just before its
first timed operation, runs the round, and writes its measurements, its
peak RSS included, as JSON to the spec's ``out`` path.  Set-up time is the
parent's spawn instant to that ready line, so it covers interpreter start
and ``import repro``.

Modes:

``batch``
    One cold ``Session.run_batch`` of the spec's jobs against the spec's
    (empty) store.
``import``
    Time ``import repro.cli`` alone.

With ``"setup_only": true`` the worker exits at the ready line.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from typing import Any


def result_digest(document: dict[str, Any]) -> str:
    """SHA-256 of a result document without its run report.

    The ``"run"`` key carries work accounting (units simulated, store hit
    deltas) that differs between a cold and a warm run of the same job; the
    rest is the result proper, whose bytes every path must reproduce.
    """
    body = {key: value for key, value in document.items() if key != "run"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak RSS (MB) of a running process since it started.

    Read from ``VmHWM`` in ``/proc/<pid>/status``: the resource usage the
    kernel reports (``getrusage``, ``wait4``) keeps across ``exec`` the
    high-water mark of the image it replaced, so a spawned process would
    report the size of its parent.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _ready() -> None:
    print(f"ready {time.monotonic()!r}", flush=True)


def _run_batch(spec: dict[str, Any]) -> dict[str, Any]:
    from repro.api import Session
    from repro.api.jobs import job_from_json

    jobs = [job_from_json(doc) for doc in spec["jobs"]]
    session = Session(store=spec["store"], jobs=2, trace=spec.get("trace"))
    _ready()
    if spec.get("setup_only"):
        return {}
    start = time.perf_counter()
    batch = session.run_batch(jobs)
    wall = time.perf_counter() - start
    documents, to_json_s = [], []
    for result in batch.results:
        begin = time.perf_counter()
        documents.append(result.to_json())
        to_json_s.append(time.perf_counter() - begin)
    report = batch.report
    return {
        "wall_s": wall,
        "to_json_s": to_json_s,
        "digests": [result_digest(doc) for doc in documents],
        "simulated_units": report.simulated_units,
        "retries": report.execution.retries if report.execution else 0,
    }


def _run_import(spec: dict[str, Any]) -> dict[str, Any]:
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    return {"import_s": time.perf_counter() - start}


MODES = {"batch": _run_batch, "import": _run_import}


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    out = MODES[spec["mode"]](spec)
    # The pool workers a batch forks are reaped by then: their peak counts.
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out["rss_mb"] = max(peak_rss_mb(), children)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
