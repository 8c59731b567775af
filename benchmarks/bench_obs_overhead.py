"""Tracing overhead: a traced characterization sweep vs an untraced one.

The observability layer (:mod:`repro.obs`) promises a near-free disabled
path and a cheap enabled path: spans are plain ``__enter__``/``__exit__``
objects, attributes are kwargs, and the JSONL writer appends one line per
*finished* span.  This benchmark runs the same characterization sweep with
and without an active :class:`~repro.obs.trace.Tracer` and gates on the
wall-time ratio.

The gated metric is ``tracing_overhead`` (traced / untraced best-of-N wall
time, lower is better).  Its committed baseline carries an absolute
``cap`` of 1.05, so CI fails outright if tracing ever costs more than 5%
-- even if a slow baseline were committed.  Runs alternate traced and
untraced so host-load drift hits both arms equally, and each arm keeps its
best (minimum) time.

``REPRO_BENCH_VECTORS`` sizes the stimulus (default 4000);
``REPRO_BENCH_RELAXED=1`` widens the in-bench assertion for shared/noisy
runners (the perf-gate cap still applies to the committed baseline flow).
"""

from __future__ import annotations

import gc
import os
import tempfile
import time

from _bench_utils import Metric, bench_vectors, write_metrics, write_output
from conftest import bench_jobs

from repro.core.characterization import CharacterizationFlow
from repro.obs.report import load_trace, validate_trace
from repro.obs.trace import Tracer, activated
from repro.simulation.patterns import PatternConfig

#: In-bench ceiling on the traced/untraced wall-time ratio.  The perf gate
#: additionally enforces the 1.05 ``cap`` on the committed baseline.
OVERHEAD_CEILING = 1.05
RELAXED_OVERHEAD_CEILING = 1.25

_REPEATS = 7


def _overhead_ceiling() -> float:
    if os.environ.get("REPRO_BENCH_RELAXED", "") not in ("", "0"):
        return RELAXED_OVERHEAD_CEILING
    return OVERHEAD_CEILING


def _timed(function) -> float:
    gc.collect()
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def test_tracing_overhead(tmp_path):
    """Gate the traced/untraced wall-time ratio of a characterization."""
    n_vectors = bench_vectors()
    pattern = PatternConfig(n_vectors=n_vectors, width=8, seed=2017)

    def run_sweep():
        # A fresh flow per run keeps the simulator's stimulus and arrival
        # caches cold, so the engine.pass span fires on every repetition.
        flow = CharacterizationFlow.for_benchmark("rca", 8)
        flow.run(pattern=pattern, jobs=bench_jobs(), store=None)

    run_sweep()  # warm imports, allocator, and engine caches off the clock

    traces: list = []
    best_untraced = best_traced = float("inf")
    for repeat in range(_REPEATS):
        best_untraced = min(best_untraced, _timed(run_sweep))
        trace_path = tmp_path / f"trace-{repeat}.jsonl"
        tracer = Tracer(trace_path)
        with activated(tracer):
            best_traced = min(best_traced, _timed(run_sweep))
        tracer.close()
        traces = load_trace(trace_path)

    overhead = best_traced / best_untraced
    assert traces, "the traced arm must emit spans"
    assert validate_trace(traces) == [], "emitted spans must satisfy the schema"

    lines = [
        f"stimulus:        {n_vectors} vectors, rca8, jobs={bench_jobs()}",
        f"untraced best:   {best_untraced * 1e3:8.2f} ms",
        f"traced best:     {best_traced * 1e3:8.2f} ms "
        f"({len(traces)} span(s)/run)",
        f"overhead:        {overhead:.4f}x (ceiling {_overhead_ceiling():.2f}x)",
    ]
    text = "\n".join(lines)
    print("\n=== Tracing overhead ===")
    print(text)
    write_output("bench_obs_overhead.txt", text)
    write_metrics(
        "obs",
        [
            Metric(
                "tracing_overhead",
                overhead,
                "x",
                kind="ratio",
                higher_is_better=False,
            ),
            Metric("untraced_s", best_untraced, "s", kind="time"),
            Metric("traced_s", best_traced, "s", kind="time"),
            Metric("spans_per_run", len(traces), "spans", kind="count"),
        ],
        vectors=n_vectors,
        jobs=bench_jobs(),
    )

    assert overhead <= _overhead_ceiling(), (
        f"tracing overhead {overhead:.4f}x exceeds {_overhead_ceiling():.2f}x"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        import pathlib

        test_tracing_overhead(pathlib.Path(scratch))
