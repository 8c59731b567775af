"""Run reports and trace-file analysis (`repro trace summary`).

Three consumers of the observability data live here:

* :class:`RunReport` -- the deterministic, counters-only summary attached
  to every typed result's ``to_json()`` under the ``"run"`` key.  It
  deliberately carries **no wall-clock values and no trace path**, so
  traced and untraced runs stay byte-identical on stdout; timings live in
  the trace file only.
* :func:`load_trace` / :func:`validate_trace` -- JSONL parsing plus
  validation against the committed ``trace_schema.json`` (field contract)
  and structural well-formedness (unique span ids, resolvable parents, at
  least one root).
* :func:`summarize_trace` / :class:`TraceSummary` -- the per-phase time
  breakdown and cache/dedup funnel rendered by ``repro trace summary``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Mapping, Sequence

__all__ = [
    "PhaseStat",
    "RunReport",
    "TraceSummary",
    "default_schema",
    "load_trace",
    "summarize_trace",
    "validate_trace",
]

SCHEMA_PATH = pathlib.Path(__file__).with_name("trace_schema.json")

#: Schema type names -> accepted Python types.  ``bool`` is an ``int``
#: subclass, so integer/number checks exclude it explicitly.
_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "string-or-null": lambda v: v is None or isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
}


@dataclasses.dataclass(frozen=True)
class RunReport:
    """Counters-only account of one :meth:`Session.run` call.

    Attributes
    ----------
    simulated_units:
        Work units (triad/range evaluations) actually simulated by this
        run -- ``0`` on a fully warm run.
    execution:
        The run's :class:`~repro.core.resilience.ExecutionReport` (retry /
        timeout / pool-rebuild accounting), or ``None`` for jobs that run
        no sweep.
    store:
        Per-run deltas of the session store's hit/miss counters
        (``hits``/``misses``/``stores``/``corrupt``/``io_errors``), or
        ``None`` when the session has no store.
    """

    simulated_units: int = 0
    execution: Any | None = None
    store: Mapping[str, int] | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "simulated_units": self.simulated_units,
            "execution": (
                self.execution.to_json() if self.execution is not None else None
            ),
            "store": dict(self.store) if self.store is not None else None,
        }


def load_trace(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace file into span records.

    Raises ``ValueError`` naming the offending line on malformed JSON or a
    non-object record; an empty file returns an empty list.
    """
    records: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: malformed JSON: {error}")
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: span record is not an object")
            records.append(record)
    return records


def default_schema() -> dict[str, Any]:
    """The committed span-record schema shipped with the package."""
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


def validate_trace(
    records: Sequence[Mapping[str, Any]],
    schema: Mapping[str, Any] | None = None,
) -> list[str]:
    """Return every problem found (empty list = valid trace).

    Checks each record against the field schema, then the trace structure:
    span ids must be unique, every non-null parent must resolve to a span
    in the file, and a non-empty trace must have at least one root.
    """
    if schema is None:
        schema = default_schema()
    fields: Mapping[str, str] = schema["fields"]
    problems: list[str] = []

    seen: set[str] = set()
    for index, record in enumerate(records):
        where = f"span {index}"
        for field, type_name in fields.items():
            if field not in record:
                problems.append(f"{where}: missing field {field!r}")
                continue
            check = _TYPE_CHECKS.get(type_name)
            if check is None:
                problems.append(
                    f"schema: unknown type {type_name!r} for field {field!r}"
                )
            elif not check(record[field]):
                problems.append(
                    f"{where}: field {field!r} is not a {type_name} "
                    f"(got {record[field]!r})"
                )
        span_id = record.get("span_id")
        if isinstance(span_id, str):
            if span_id in seen:
                problems.append(f"{where}: duplicate span_id {span_id!r}")
            seen.add(span_id)

    roots = 0
    for index, record in enumerate(records):
        parent = record.get("parent_id")
        if parent is None:
            roots += 1
        elif isinstance(parent, str) and parent not in seen:
            problems.append(
                f"span {index}: parent_id {parent!r} does not resolve"
            )
    if records and roots == 0:
        problems.append("trace has no root span (every parent_id is set)")
    return problems


@dataclasses.dataclass(frozen=True)
class PhaseStat:
    """Aggregate of every span sharing one name."""

    name: str
    count: int
    wall_s: float
    cpu_s: float


@dataclasses.dataclass(frozen=True)
class TraceSummary:
    """Per-phase breakdown and cache funnel of one trace file."""

    spans: int
    traces: int
    processes: int
    roots: int
    wall_s: float
    phases: tuple[PhaseStat, ...]
    funnel: Mapping[str, int]
    shards: int
    shard_queue_wait_s: float
    shard_compute_s: float
    service: Mapping[str, float] = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"trace summary: {self.spans} span(s), {self.traces} trace(s), "
            f"{self.processes} process(es), {self.roots} root(s), "
            f"wall {self.wall_s:.3f}s",
            f"{'phase':<28}{'count':>7}{'wall [s]':>12}{'cpu [s]':>12}",
        ]
        for phase in self.phases:
            lines.append(
                f"{phase.name:<28}{phase.count:>7}"
                f"{phase.wall_s:>12.3f}{phase.cpu_s:>12.3f}"
            )
        if self.funnel:
            units = self.funnel.get("units", 0)
            cached = self.funnel.get("cached", 0)
            simulated = self.funnel.get("simulated", 0)
            lines.append(
                f"cache funnel: {units} unit(s) requested -> "
                f"{cached} warm from store -> {simulated} simulated"
            )
            if "deduped" in self.funnel:
                lines.append(
                    f"batch dedup: {self.funnel.get('planned', 0)} planned, "
                    f"{self.funnel['deduped']} deduped"
                )
        if self.shards:
            lines.append(
                f"shards: {self.shards} shard(s), "
                f"queue wait {self.shard_queue_wait_s:.3f}s, "
                f"compute {self.shard_compute_s:.3f}s"
            )
        if self.service:
            lines.append(
                f"service: {self.service.get('requests', 0)} request(s), "
                f"{self.service.get('admitted', 0)} admitted, "
                f"{self.service.get('hot_hits', 0)} hot, "
                f"{self.service.get('rate_limited', 0)} rate-limited, "
                f"{self.service.get('batch_windows', 0)} window(s) / "
                f"{self.service.get('batched_jobs', 0)} job(s), "
                f"queue wait {self.service.get('queue_wait_s', 0.0):.3f}s"
            )
        return "\n".join(lines)

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "traces": self.traces,
            "processes": self.processes,
            "roots": self.roots,
            "wall_s": self.wall_s,
            "phases": [dataclasses.asdict(phase) for phase in self.phases],
            "funnel": dict(self.funnel),
            "shards": self.shards,
            "shard_queue_wait_s": self.shard_queue_wait_s,
            "shard_compute_s": self.shard_compute_s,
            "service": dict(self.service),
        }


def summarize_trace(records: Sequence[Mapping[str, Any]]) -> TraceSummary:
    """Aggregate span records into a :class:`TraceSummary`.

    Phase rows group spans by name (sorted by total wall time).  The cache
    funnel sums the ``units``/``cached``/``simulated`` attributes of
    ``sweep`` spans and the ``planned``/``deduped`` attributes of
    ``session`` spans; shard timing sums ``sweep.shard`` spans' queue-wait
    attribute against their wall time.  Traces recorded by ``repro serve``
    additionally yield a service section (request / admission / hot-tier /
    batch-window counts from the ``serve.*`` spans, and the total time
    windows' oldest jobs waited in the queue before dispatch).
    """
    by_name: dict[str, list[Mapping[str, Any]]] = {}
    for record in records:
        by_name.setdefault(str(record.get("name", "?")), []).append(record)

    phases = tuple(
        sorted(
            (
                PhaseStat(
                    name=name,
                    count=len(group),
                    wall_s=sum(float(r.get("wall_s", 0.0)) for r in group),
                    cpu_s=sum(float(r.get("cpu_s", 0.0)) for r in group),
                )
                for name, group in by_name.items()
            ),
            key=lambda phase: (-phase.wall_s, phase.name),
        )
    )

    funnel: dict[str, int] = {}
    for record in by_name.get("sweep", ()):
        attrs = record.get("attrs") or {}
        for key in ("units", "cached", "simulated"):
            if key in attrs:
                funnel[key] = funnel.get(key, 0) + int(attrs[key])
    for record in by_name.get("session", ()):
        attrs = record.get("attrs") or {}
        for key in ("planned", "deduped"):
            if key in attrs:
                funnel[key] = funnel.get(key, 0) + int(attrs[key])

    service: dict[str, float] = {}
    request_records = by_name.get("serve.request", ())
    if request_records:
        service["requests"] = len(request_records)
        service["rate_limited"] = sum(
            1
            for r in request_records
            if (r.get("attrs") or {}).get("status") == 429
        )
    for record in by_name.get("serve.admit", ()):
        attrs = record.get("attrs") or {}
        key = "hot_hits" if attrs.get("hot") else "admitted"
        service[key] = service.get(key, 0) + 1
    window_records = by_name.get("serve.batch_window", ())
    if window_records:
        service["batch_windows"] = len(window_records)
        service["batched_jobs"] = sum(
            int((r.get("attrs") or {}).get("jobs", 0)) for r in window_records
        )
        service["queue_wait_s"] = sum(
            float((r.get("attrs") or {}).get("queue_wait_s", 0.0))
            for r in window_records
        )

    shard_records = by_name.get("sweep.shard", ())
    shard_queue_wait = sum(
        float((r.get("attrs") or {}).get("queue_wait_s", 0.0))
        for r in shard_records
    )
    shard_compute = sum(float(r.get("wall_s", 0.0)) for r in shard_records)

    roots = [r for r in records if r.get("parent_id") is None]
    return TraceSummary(
        spans=len(records),
        traces=len({r.get("trace_id") for r in records}) if records else 0,
        processes=len({r.get("pid") for r in records}) if records else 0,
        roots=len(roots),
        wall_s=sum(float(r.get("wall_s", 0.0)) for r in roots),
        phases=phases,
        funnel=funnel,
        shards=len(shard_records),
        shard_queue_wait_s=shard_queue_wait,
        shard_compute_s=shard_compute,
        service=service,
    )
