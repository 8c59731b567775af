"""Result-store layout: packfile vs a one-JSON-file-per-entry baseline.

The baseline is the store's former v1 layout, which the store no longer
reads or writes; this benchmark keeps its own copy of that writer and read
path so the gated ratios keep measuring the same comparison.  Both stores
hold the same Monte-Carlo-shaped payloads (the store's heaviest
real workload: four float64 sample arrays plus scalar metadata per triad,
exactly the schema :mod:`repro.variation.montecarlo` emits).  Three
measurements, all on warm page cache:

* **Warm read** -- time until every entry's sample arrays are usable
  numpy data.  v1 opens and JSON-parses one file per entry and
  base64-decodes each array field; v2 batch-reads the pack segments via
  ``get_many`` (one pass per segment, offset order, CRC-checked) and
  ``frombuffer``s the raw blobs.
* **Batch merge** -- the cross-shard merge the variation sweeps run:
  read every entry and concatenate each sample field across entries.
* **Store size** -- bytes on disk (v2 skips the 4/3 base64 inflation and
  the per-file allocation slack).

The speedup ratios are machine-independent and gated by the CI perf gate
(``benchmarks/perf_gate.py``); the raw latencies are recorded for trend
lines only.  ``REPRO_BENCH_STORE_ENTRIES`` / ``REPRO_BENCH_STORE_SAMPLES``
size the workload (defaults: 5000 entries x 500 samples per array, about
80 MB of payload -- large enough that per-entry costs, not constants,
dominate).  Timings take the best of several repetitions, and a
measurement that lands under the floor is remeasured once before
failing: both defend against transient stalls on shared runners.
"""

from __future__ import annotations

import base64
import gc
import json
import os
import pathlib
import tempfile
import time

import numpy as np

from _bench_utils import Metric, write_metrics, write_output

from repro.core.packfile import encode_blobs
from repro.core.store import (
    SweepResultStore,
    decode_float64_array,
    pack_float64_array,
)

#: The four binary sample fields of a Monte Carlo payload.
SAMPLE_FIELDS = (
    "ber_samples",
    "faulty_fraction_samples",
    "energy_samples",
    "static_energy_samples",
)

#: Workload size.  The acceptance floor is defined at >= 5000 entries.
DEFAULT_ENTRIES = 5000
DEFAULT_SAMPLES = 500

#: Required v2-over-v1 speedup for warm reads and batch merges (the PR's
#: acceptance floor).  ``REPRO_BENCH_RELAXED=1`` lowers it to a sanity
#: floor for shared/noisy CI runners.
SPEEDUP_FLOOR = 3.0
RELAXED_SPEEDUP_FLOOR = 1.5

_REPEATS = 5


def _entries() -> int:
    return int(os.environ.get("REPRO_BENCH_STORE_ENTRIES", DEFAULT_ENTRIES))


def _samples() -> int:
    return int(os.environ.get("REPRO_BENCH_STORE_SAMPLES", DEFAULT_SAMPLES))


def _speedup_floor() -> float:
    if os.environ.get("REPRO_BENCH_RELAXED", "") not in ("", "0"):
        return RELAXED_SPEEDUP_FLOOR
    return SPEEDUP_FLOOR


def _best_time(function, repeats: int = _REPEATS):
    """Minimum wall time over ``repeats`` runs (robust against host stalls)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _mc_payload(rng: np.random.Generator, index: int, samples: int) -> dict:
    """One Monte-Carlo-shaped payload (the montecarlo module's schema)."""
    payload = {
        "payload_version": 2,
        "triad": {"tclk": 0.5 + index * 1e-6, "vdd": 1.0, "vbb": 0.0},
        "n_vectors": 2000,
        "samples": {"start": 0, "stop": samples},
        "dynamic_energy_per_operation": 1.25e-12,
    }
    for field in SAMPLE_FIELDS:
        payload[field] = pack_float64_array(rng.random(samples))
    return payload


def _tree_bytes(root: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _v1_path(root: pathlib.Path, key: str) -> pathlib.Path:
    return root / key[:2] / f"{key}.json"


def _v1_write(root: pathlib.Path, key: str, payload: dict) -> None:
    """One v1 entry: the payload as canonical JSON, arrays base64-encoded."""
    document = encode_blobs(payload)
    document["key"] = key
    path = _v1_path(root, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, sort_keys=True, separators=(",", ":")),
        encoding="utf-8",
    )


def _v1_decode(text: str) -> np.ndarray:
    """A base64 float64 array field of a v1 entry as numpy data."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").astype(
        np.float64, copy=True
    )


def _v1_read(root: pathlib.Path, keys: list[str]) -> dict[str, dict]:
    """Warm read of the v1 layout: parse each file, decode each array."""
    out = {}
    for key in keys:
        payload = json.loads(_v1_path(root, key).read_text(encoding="utf-8"))
        payload.pop("key", None)
        for field in SAMPLE_FIELDS:
            payload[field] = _v1_decode(payload[field])
        out[key] = payload
    return out


def _v2_read(reader: SweepResultStore, keys: list[str]) -> dict[str, dict]:
    """Warm read of the packfile layout: one batch, raw-bytes blobs."""
    out = reader.get_many(keys)
    for payload in out.values():
        for field in SAMPLE_FIELDS:
            payload[field] = decode_float64_array(payload[field])
    return out


def _v1_merge(root: pathlib.Path, keys: list[str]) -> dict[str, np.ndarray]:
    merged = {field: [] for field in SAMPLE_FIELDS}
    for key in keys:
        payload = json.loads(_v1_path(root, key).read_text(encoding="utf-8"))
        for field in SAMPLE_FIELDS:
            merged[field].append(_v1_decode(payload[field]))
    return {field: np.concatenate(parts) for field, parts in merged.items()}


def _v2_merge(reader: SweepResultStore, keys: list[str]) -> dict[str, np.ndarray]:
    batch = reader.get_many(keys)
    merged = {field: [] for field in SAMPLE_FIELDS}
    for key in keys:
        payload = batch[key]
        for field in SAMPLE_FIELDS:
            merged[field].append(decode_float64_array(payload[field]))
    return {field: np.concatenate(parts) for field, parts in merged.items()}


def _measure_round(
    v1_root: pathlib.Path,
    reader: SweepResultStore,
    keys: list[str],
    n_entries: int,
    n_samples: int,
) -> tuple[float, float, float, float]:
    """One timed round: (read_v1, read_v2, merge_v1, merge_v2) seconds."""
    # Warm the page cache for both layouts: the metric is warm-read
    # latency, not disk bandwidth.
    for path in v1_root.rglob("*.json"):
        path.read_bytes()
    for path in reader.root.rglob("*.pack"):
        path.read_bytes()

    t_read_v1, got_v1 = _best_time(lambda: _v1_read(v1_root, keys))
    t_read_v2, got_v2 = _best_time(lambda: _v2_read(reader, keys))
    assert len(got_v1) == len(got_v2) == n_entries
    probe = keys[n_entries // 2]
    for field in SAMPLE_FIELDS:
        assert np.array_equal(got_v1[probe][field], got_v2[probe][field])
    # Release the read results before timing the merges: hundreds of MB of
    # retained arrays would fragment the heap and tax the merge timings
    # with allocator noise that no real reader pays.
    del got_v1, got_v2
    gc.collect()

    t_merge_v1, merged_v1 = _best_time(lambda: _v1_merge(v1_root, keys))
    t_merge_v2, merged_v2 = _best_time(lambda: _v2_merge(reader, keys))
    for field in SAMPLE_FIELDS:
        assert np.array_equal(merged_v1[field], merged_v2[field])
        assert merged_v1[field].size == n_entries * n_samples
    return t_read_v1, t_read_v2, t_merge_v1, t_merge_v2


def test_store_layout(tmp_path):
    """Measure v1-vs-v2 warm reads, batch merges and sizes; assert floors."""
    n_entries = _entries()
    n_samples = _samples()
    rng = np.random.default_rng(2017)

    v1_root = tmp_path / "store_v1"
    v2_root = tmp_path / "store_v2"
    v2_store = SweepResultStore(v2_root)
    keys = []
    for index in range(n_entries):
        key = SweepResultStore.entry_key({"bench_store": index})
        keys.append(key)
        payload = _mc_payload(rng, index, n_samples)
        _v1_write(v1_root, key, payload)
        v2_store.put(key, payload)

    v1_bytes = _tree_bytes(v1_root)
    v2_bytes = _tree_bytes(v2_root)
    os.sync()  # let writeback drain before any timing

    # A session opens its store once and reads many times: index load is
    # paid here, outside the per-read timings (v1 has no index at all).
    reader = SweepResultStore(v2_root)
    reader.disk_stats()

    times = _measure_round(v1_root, reader, keys, n_entries, n_samples)
    floor = _speedup_floor()
    if times[0] / times[1] < floor or times[2] / times[3] < floor:
        # A multi-second host stall (shared runners) can poison a whole
        # round of repetitions: remeasure once and keep the best of both.
        rerun = _measure_round(v1_root, reader, keys, n_entries, n_samples)
        times = tuple(min(a, b) for a, b in zip(times, rerun))
    t_read_v1, t_read_v2, t_merge_v1, t_merge_v2 = times

    read_speedup = t_read_v1 / t_read_v2
    merge_speedup = t_merge_v1 / t_merge_v2
    size_ratio = v2_bytes / v1_bytes

    lines = [
        "Result store: v2 packfile vs v1 per-entry JSON",
        f"entries: {n_entries}, float64 samples per array: {n_samples}, "
        f"sample fields per entry: {len(SAMPLE_FIELDS)}",
        f"{'measurement':<34}{'v1 [s]':>10}{'v2 [s]':>10}{'speedup':>10}",
        f"{'warm read (arrays usable)':<34}{t_read_v1:>10.3f}{t_read_v2:>10.3f}"
        f"{read_speedup:>9.2f}x",
        f"{'batch merge (concatenated)':<34}{t_merge_v1:>10.3f}{t_merge_v2:>10.3f}"
        f"{merge_speedup:>9.2f}x",
        f"store size: v1 {v1_bytes / 1e6:.1f} MB, v2 {v2_bytes / 1e6:.1f} MB "
        f"({size_ratio:.2f}x of v1)",
    ]
    text = "\n".join(lines)
    print("\n=== Store layout ===")
    print(text)
    write_output("bench_store.txt", text)
    write_metrics(
        "store",
        [
            Metric("warm_read_speedup", read_speedup, "x", kind="ratio"),
            Metric("batch_merge_speedup", merge_speedup, "x", kind="ratio"),
            Metric(
                "store_size_ratio",
                size_ratio,
                "v2/v1",
                kind="ratio",
                higher_is_better=False,
            ),
            Metric("warm_read_v1_s", t_read_v1, "s", kind="time"),
            Metric("warm_read_v2_s", t_read_v2, "s", kind="time"),
            Metric("batch_merge_v1_s", t_merge_v1, "s", kind="time"),
            Metric("batch_merge_v2_s", t_merge_v2, "s", kind="time"),
            Metric("entries", n_entries, "entries", kind="count"),
        ],
    )

    floor = _speedup_floor()
    assert read_speedup >= floor, (
        f"packfile warm read is only {read_speedup:.2f}x over the JSON "
        f"layout (floor is {floor}x)"
    )
    assert merge_speedup >= floor, (
        f"packfile batch merge is only {merge_speedup:.2f}x over the JSON "
        f"layout (floor is {floor}x)"
    )
    assert size_ratio < 1.0, "the packfile layout must not be larger than v1"
