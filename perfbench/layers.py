"""Per-layer numbers from a trace file, and the fixed-width layer table.

Span-derived metrics come from :func:`repro.obs.report.summarize_trace`,
the function behind ``repro trace summary``, so the two cannot disagree;
the few that need a span attribute the summary does not aggregate (the
``job`` span's ``type``) read the same records.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

#: Job span ``type`` attribute -> per-layer metric name.
JOB_TYPE_METRICS = {"MonteCarloJob": "job.montecarlo_s", "ExploreJob": "job.explore_s"}


def span_metrics(records: Sequence[Mapping[str, Any]]) -> dict[str, float]:
    """The per-layer metrics a trace file answers on its own."""
    from repro.obs.report import summarize_trace

    summary = summarize_trace(records)
    phases = {phase.name: phase for phase in summary.phases}

    def wall(name: str) -> float:
        return phases[name].wall_s if name in phases else 0.0

    def count(name: str) -> int:
        return phases[name].count if name in phases else 0

    funnel, service = summary.funnel, summary.service
    units = funnel.get("units", 0)
    windows = service.get("batch_windows", 0)
    metrics: dict[str, float] = {
        "engine.pass_s": wall("engine.pass"),
        "engine.pass_count": count("engine.pass"),
        "sweep.dispatch_s": wall("dispatch"),
        "sweep.shard_compute_s": summary.shard_compute_s,
        "sweep.shard_queue_wait_s": summary.shard_queue_wait_s,
        "sweep.shards": summary.shards,
        "shm.publish_s": wall("shm.publish"),
        "shm.attach_s": wall("shm.attach"),
        "session.planned_units": funnel.get("planned", 0),
        "session.deduped_units": funnel.get("deduped", 0),
        "session.simulated_units": funnel.get("simulated", 0),
        "store.lookup_s": wall("store.lookup"),
        "store.flush_s": wall("store.flush"),
        "store.hit_ratio": funnel.get("cached", 0) / units if units else 0.0,
        "serve.admit_s": wall("serve.admit"),
        "serve.window_s": wall("serve.batch_window"),
        "serve.window_jobs": service.get("batched_jobs", 0) / windows if windows else 0.0,
    }
    for metric in JOB_TYPE_METRICS.values():
        metrics[metric] = 0.0
    for record in records:
        if record.get("name") == "job":
            metric = JOB_TYPE_METRICS.get((record.get("attrs") or {}).get("type"))
            if metric is not None:
                metrics[metric] += float(record.get("wall_s", 0.0))
    return metrics


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(records: Sequence[Mapping[str, Any]]) -> dict[str, tuple[int, float, float]]:
    """Span name -> (count, total wall, total self time).

    A span's self time is its wall time minus the part of its interval its
    child spans cover, children from worker processes included.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for record in records:
        parent = record.get("parent_id")
        if parent is not None:
            start = float(record.get("t0_s", 0.0))
            children.setdefault(parent, []).append(
                (start, start + float(record.get("wall_s", 0.0)))
            )
    table: dict[str, tuple[int, float, float]] = {}
    for record in records:
        start = float(record.get("t0_s", 0.0))
        wall = float(record.get("wall_s", 0.0))
        end = start + wall
        clipped = [
            (max(a, start), min(b, end))
            for a, b in children.get(record.get("span_id"), ())
            if b > start and a < end
        ]
        own = max(0.0, wall - _covered(clipped))
        name = str(record.get("name", "?"))
        spans, walls, selfs = table.get(name, (0, 0.0, 0.0))
        table[name] = (spans + 1, walls + wall, selfs + own)
    return table


def layer_table(
    records: Sequence[Mapping[str, Any]], wall_s: float, overhead_ratio: float
) -> list[str]:
    """Fixed-width per-layer table: self time and its share of ``wall_s``.

    Worker-process spans run in parallel, so shares can sum past 100 %.
    """
    width = 14
    header = ("layer", "spans", "wall [s]", "self [s]", "self/wall_s")
    rows = sorted(self_times(records).items(), key=lambda item: -item[1][2])
    separator = "+".join(["-" * (2 * width)] + ["-" * width] * (len(header) - 1))
    line = "{:<%d}|" % (2 * width) + "|".join(["{:>%d}" % width] * (len(header) - 1))
    lines = [separator, line.format(*header), separator]
    for name, (spans, walls, selfs) in rows:
        share = f"{100 * selfs / wall_s:.1f} %" if wall_s else "-"
        lines.append(line.format(name, spans, f"{walls:.4f}", f"{selfs:.4f}", share))
    lines.append(separator)
    lines.append(
        f"traced wall_s {wall_s:.4f} s; trace.overhead_ratio {overhead_ratio:.4f}"
    )
    return lines
