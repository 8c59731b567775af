"""Content-addressed on-disk store for sweep results.

Characterizing an operator over a triad grid is pure: the summary of one
triad depends only on the circuit structure, the stimulus, the operating
triad, the cell library and the simulation-engine version.  This module
persists those per-triad summaries keyed by a cryptographic hash of exactly
those ingredients, so repeated sweeps -- across CLI runs, benchmark sessions
and CI jobs -- become warm-cache hits instead of recomputation.

Design points:

* **Content addressing.**  A key is the SHA-256 of the canonical JSON of the
  key components (see :meth:`SweepResultStore.entry_key`).  Any change to the
  circuit (netlist fingerprint), stimulus (pattern config or operand hash),
  triad, library parameters or :data:`repro.simulation.engine.ENGINE_VERSION`
  changes the key, which *is* the invalidation mechanism -- stale entries are
  simply never looked up again (and can be purged with :meth:`clear`).
* **Packfile layout.**  Entries are appended as self-describing binary
  records (:mod:`repro.core.packfile`) to per-process *pack segments* under
  ``<root>/packs/``, each paired with an append-only JSONL index mapping
  ``key -> (offset, length)``.  A warm read is one seek + one read + one CRC
  check; ``disk_stats`` and ``prune`` walk the index, not the filesystem.
  Each put appends the record, flushes, then appends the index line and
  flushes: a record missing its index line is recovered by a tail scan on
  the next open, and a torn record fails its CRC and is ignored.  Segment
  names embed the writing process's pid plus a random token, so concurrent
  sessions never share a write file and readers pick up each other's
  appends by re-reading the grown index files.
* **One on-disk format.**  ``packs/*.pack`` + ``*.idx`` is the only layout
  a root is read in.  :data:`STORE_VERSION` ``= 2`` names that container
  layout and is recorded in ``<root>/format.json``, never hashed into keys.
  The one-JSON-file-per-entry layout of version 1 (two-hex subdirectories)
  is not read: such a root opens as a cold store, and its files are never
  counted, pruned or deleted.
* **Corruption tolerance.**  A record that fails its CRC or key check is
  quarantined (its bytes copied under ``quarantine/``, never silently
  discarded) and dropped from the index via a durable tombstone line, then
  treated as a miss; any OS-level error degrades to a miss as well, so a
  broken cache can never fail a sweep.  Real I/O errors are counted in
  :attr:`StoreStats.io_errors` so silent degradation is observable in
  ``store stats``, and :meth:`SweepResultStore.verify` offers an explicit
  fsck pass over every record (``store verify``) that also makes tail-scan
  recoveries durable.  All walks are ENOENT-tolerant: segments deleted by
  a concurrent session are simply skipped.  ``verify`` and ``prune``
  rewrite segments and are maintenance operations: run them from one
  session at a time (readers stay safe throughout -- a stale
  offset fails validation and reads as a miss, never as wrong data).
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import os
import pathlib
import weakref
from typing import Any, BinaryIO, Mapping, Sequence

import numpy as np

from repro.circuits.netlist import Netlist
from repro.core.packfile import (
    PackRecordError,
    decode_record,
    encode_blobs,
    encode_record,
    scan_records,
)
from repro.obs import clock, metrics
from repro.technology.library import StandardCellLibrary

#: Version of the *key schema*.  Part of every entry key: bumping it
#: invalidates all previously stored entries.  It is independent of the
#: container layout (:data:`STORE_VERSION`).
STORE_FORMAT_VERSION = 1

#: Version of the on-disk *container* layout (recorded in ``format.json``,
#: never part of entry keys).  2 = packfile; version 1 (one JSON file per
#: entry) is not read.
STORE_VERSION = 2

#: Environment variable selecting the default store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory holding the pack segments and their indexes.
PACKS_DIR = "packs"

#: Marker file recording the container layout version of a store root.
FORMAT_FILE = "format.json"

#: Pack segments rotate once they grow past this size, bounding the cost of
#: a segment rewrite during ``prune``/``verify``.
MAX_SEGMENT_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------------
# Fingerprints of the cache-key ingredients
# ---------------------------------------------------------------------------


#: Fingerprints of live netlists and libraries, by identity.  Both are
#: immutable once built, and every sweep keys on them: each warm request
#: would otherwise rehash them.
_FINGERPRINTS: weakref.WeakKeyDictionary[Any, str] = weakref.WeakKeyDictionary()


def netlist_fingerprint(netlist: Netlist) -> str:
    """Stable content hash of a netlist's structure.

    Covers the primary ports and every gate (type, input nets, output net) in
    topological order -- two netlists with the same fingerprint simulate
    identically, whatever generator built them.
    """
    fingerprint = _FINGERPRINTS.get(netlist)
    if fingerprint is None:
        fingerprint = _FINGERPRINTS[netlist] = _hash_netlist(netlist)
    return fingerprint


def _hash_netlist(netlist: Netlist) -> str:
    digest = hashlib.sha256()
    digest.update(f"nets={netlist.net_count}".encode())
    for port, net in sorted(netlist.primary_inputs.items()):
        digest.update(f"|in:{port}={net}".encode())
    for port, net in sorted(netlist.primary_outputs.items()):
        digest.update(f"|out:{port}={net}".encode())
    for gate in netlist.topological_gates:
        digest.update(
            f"|{gate.gate_type.value}:{','.join(map(str, gate.inputs))}>{gate.output}".encode()
        )
    return digest.hexdigest()


def library_fingerprint(library: StandardCellLibrary) -> str:
    """Stable content hash of a standard-cell library's parameters.

    Covers the technology parameter set and every cell's timing/power
    description, so a retuned library never reuses results computed with the
    old parameters.
    """
    fingerprint = _FINGERPRINTS.get(library)
    if fingerprint is None:
        fingerprint = _FINGERPRINTS[library] = _hash_library(library)
    return fingerprint


def _hash_library(library: StandardCellLibrary) -> str:
    digest = hashlib.sha256()
    digest.update(_canonical_json(dataclasses.asdict(library.technology)).encode())
    for name in library.cell_names:
        digest.update(_canonical_json(dataclasses.asdict(library.cell(name))).encode())
    return digest.hexdigest()


def operand_fingerprint(in1: np.ndarray, in2: np.ndarray) -> str:
    """Content hash of an explicit operand-pair stimulus."""
    digest = hashlib.sha256()
    for array in (in1, in2):
        data = np.ascontiguousarray(np.asarray(array, dtype=np.int64))
        digest.update(repr(data.shape).encode())
        digest.update(data.tobytes())
    return digest.hexdigest()


def _canonical_json(data: Any) -> str:
    """Deterministic JSON encoding used for hashing key components."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Array <-> bytes helpers (exact round-trips)
# ---------------------------------------------------------------------------


def pack_int64_array(values: np.ndarray) -> bytes:
    """Raw little-endian bytes of an int64 array (exact).

    The wire/storage form of a payload array field: workers and the
    packfile store exchange these bytes directly
    (:func:`repro.core.packfile.encode_blobs` renders them as base64 where
    JSON is unavoidable).
    """
    return np.ascontiguousarray(np.asarray(values, dtype="<i8")).tobytes()


def decode_int64_array(data: bytes | bytearray) -> np.ndarray:
    """Inverse of :func:`pack_int64_array` (a private, writable copy)."""
    return np.frombuffer(data, dtype="<i8").astype(np.int64, copy=True)


def pack_float64_array(values: np.ndarray) -> bytes:
    """Raw little-endian bytes of a float64 array (bit-exact).

    Used by the Monte Carlo payloads for per-sample statistics: the packing
    is byte-identical for byte-identical inputs, which is what makes
    serial-vs-sharded store entries comparable entry for entry.
    """
    return np.ascontiguousarray(np.asarray(values, dtype="<f8")).tobytes()


def decode_float64_array(data: bytes | bytearray) -> np.ndarray:
    """Inverse of :func:`pack_float64_array` (a private, writable copy)."""
    return np.frombuffer(data, dtype="<f8").astype(np.float64, copy=True)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


@metrics.bind_registry_fields
class StoreStats(metrics.RegistryView):
    """Hit/miss counters of one store instance (not persisted).

    ``io_errors`` counts OS-level failures that silently degraded an
    operation (an unwritable ``put``, an unreadable segment, a failed
    quarantine copy) -- *not* ordinary misses or files that vanished under
    a concurrent session, which are normal operation.

    The counters are views over a :class:`~repro.obs.metrics.MetricsRegistry`
    (namespace ``store``), shared with run reports and ``to_json``; the
    ``store.stats.hits += 1`` mutation surface of the former dataclass is
    unchanged.
    """

    _NAMESPACE = "store"
    _FIELDS = {
        "hits": 0,
        "misses": 0,
        "stores": 0,
        "corrupt": 0,
        "io_errors": 0,
    }


#: Subdirectory corrupt entries are moved into (never read as entries).
QUARANTINE_DIR = "quarantine"

#: Filename suffix of quarantined entries.
QUARANTINE_SUFFIX = ".quarantined"


@dataclasses.dataclass(frozen=True)
class StoreDiskStats:
    """On-disk footprint of a store directory.

    Attributes
    ----------
    entries:
        Number of stored result entries.
    total_bytes:
        Bytes occupied by the entry records.
    oldest_mtime / newest_mtime:
        Store-time range of the entries (Unix seconds), or ``None`` for an
        empty store.
    quarantined:
        Corrupt entries moved aside into the quarantine directory.
    """

    entries: int
    total_bytes: int
    oldest_mtime: float | None
    newest_mtime: float | None
    quarantined: int = 0


@dataclasses.dataclass(frozen=True)
class StoreVerifyReport:
    """Outcome of a :meth:`SweepResultStore.verify` fsck pass.

    Attributes
    ----------
    scanned:
        Entry records examined.
    valid:
        Entries that decoded cleanly and matched their key.
    quarantined:
        Corrupt entries moved into the quarantine directory by this pass.
    io_errors:
        Entries that could not be read (or quarantined) due to OS-level
        errors; entries that vanished concurrently are skipped and counted
        nowhere.
    """

    scanned: int
    valid: int
    quarantined: int
    io_errors: int


@dataclasses.dataclass(frozen=True)
class _Location:
    """Where one entry lives: ``packs/<segment>.pack[offset : offset+length]``."""

    segment: str
    offset: int
    length: int
    timestamp: float


def _format_payload() -> str:
    return _canonical_json({"store_version": STORE_VERSION}) + "\n"


class SweepResultStore:
    """Content-addressed result store rooted at one directory.

    Parameters
    ----------
    root:
        Directory holding the entries.  Created on first write; a missing
        directory reads as an empty store.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self._root = pathlib.Path(root)
        self.stats = StoreStats()
        self._loaded = False
        self._index: dict[str, _Location] = {}
        self._segments: dict[str, dict[str, _Location]] = {}
        self._coverage: dict[str, int] = {}
        self._idx_progress: dict[str, int] = {}
        self._recovered: set[str] = set()
        self._read_handles: dict[str, BinaryIO] = {}
        self._write_segment: str | None = None
        self._pack_handle: BinaryIO | None = None
        self._idx_handle: BinaryIO | None = None
        self._pack_size = 0

    @classmethod
    def default(cls) -> "SweepResultStore":
        """The store at ``$REPRO_CACHE_DIR`` (or ``~/.cache/repro/sweeps``)."""
        configured = os.environ.get(CACHE_DIR_ENV)
        if configured:
            return cls(configured)
        return cls(pathlib.Path.home() / ".cache" / "repro" / "sweeps")

    @property
    def root(self) -> pathlib.Path:
        """Root directory of the store."""
        return self._root

    @staticmethod
    def entry_key(components: Mapping[str, Any]) -> str:
        """Content-addressed key of one result entry.

        ``components`` must be a JSON-serialisable mapping fully describing
        the computation (circuit fingerprint, stimulus, triad, library
        fingerprint, engine version ...).  The key-schema version is mixed
        in so semantic changes invalidate everything at once.  The container
        layout (:data:`STORE_VERSION`) is deliberately *not* part of the
        key: keys name results, not how they are laid out on disk.
        """
        payload = dict(components)
        payload["store_format"] = STORE_FORMAT_VERSION
        return hashlib.sha256(_canonical_json(payload).encode()).hexdigest()

    # -- index bookkeeping --------------------------------------------------

    @property
    def _packs(self) -> pathlib.Path:
        return self._root / PACKS_DIR

    def _pack_path(self, segment: str) -> pathlib.Path:
        return self._packs / f"{segment}.pack"

    def _idx_path(self, segment: str) -> pathlib.Path:
        return self._packs / f"{segment}.idx"

    def _reindex(self, key: str) -> None:
        """Recompute the global view of ``key`` from the per-segment maps.

        Duplicate records of one key across segments hold identical payloads
        (content addressing), so any surviving copy is as good as another.
        """
        for seg_map in self._segments.values():
            location = seg_map.get(key)
            if location is not None:
                self._index[key] = location
                return
        self._index.pop(key, None)

    def _set_location(self, key: str, location: _Location) -> None:
        self._segments.setdefault(location.segment, {})[key] = location
        self._index[key] = location
        self._recovered.discard(key)
        end = location.offset + location.length
        if end > self._coverage.get(location.segment, 0):
            self._coverage[location.segment] = end

    def _drop_segment(self, segment: str) -> None:
        """Forget all in-memory state of one segment (it was rewritten)."""
        dropped = self._segments.pop(segment, {})
        for key in dropped:
            if self._index.get(key) is dropped[key]:
                self._reindex(key)
        self._coverage.pop(segment, None)
        self._idx_progress.pop(f"{segment}.idx", None)
        handle = self._read_handles.pop(segment, None)
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _apply_index_line(self, segment: str, line: str) -> None:
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                return
        except ValueError:
            return
        if "x" in record:
            key = record.get("x")
            seg_map = self._segments.get(segment)
            current = seg_map.get(key) if seg_map else None
            if current is not None and current.offset == record.get("o"):
                del seg_map[key]
                self._reindex(key)
            return
        try:
            key = record["k"]
            location = _Location(
                segment=segment,
                offset=int(record["o"]),
                length=int(record["l"]),
                timestamp=float(record["t"]),
            )
        except (KeyError, TypeError, ValueError):
            return
        self._set_location(key, location)

    def _read_index_file(self, path: pathlib.Path) -> None:
        segment = path.name[: -len(".idx")]
        progress = self._idx_progress.get(path.name, 0)
        try:
            size = path.stat().st_size
        except OSError:
            return
        if size < progress:
            # The segment was rewritten (prune/verify in another session):
            # restart from scratch.
            self._drop_segment(segment)
            progress = 0
        if size == progress:
            return
        try:
            with open(path, "rb") as handle:
                handle.seek(progress)
                data = handle.read(size - progress)
        except OSError:
            return
        # Only complete lines: a line still being appended is left for the
        # next refresh.
        end = data.rfind(b"\n")
        if end < 0:
            return
        for raw in data[: end + 1].splitlines():
            self._apply_index_line(segment, raw.decode("utf-8", errors="replace"))
        self._idx_progress[path.name] = progress + end + 1

    def _scan_pack_tail(self, path: pathlib.Path) -> None:
        """Recover records appended after the last index flush (crash tail)."""
        segment = path.name[: -len(".pack")]
        covered = self._coverage.get(segment, 0)
        try:
            stat = path.stat()
        except OSError:
            return
        if stat.st_size <= covered:
            return
        try:
            with open(path, "rb") as handle:
                handle.seek(covered)
                tail = handle.read(stat.st_size - covered)
        except OSError:
            return
        for offset, length, key, _payload in scan_records(tail):
            self._set_location(
                key,
                _Location(
                    segment=segment,
                    offset=covered + offset,
                    length=length,
                    timestamp=stat.st_mtime,
                ),
            )
            # Remember for verify(), which appends the missing index lines.
            self._recovered.add(key)

    def _refresh(self) -> None:
        """Fold on-disk growth (other sessions' appends) into the index."""
        self._loaded = True
        try:
            names = sorted(os.listdir(self._packs))
        except OSError:
            names = []
        for name in names:
            if name.endswith(".idx"):
                self._read_index_file(self._packs / name)
        for name in names:
            if name.endswith(".pack"):
                self._scan_pack_tail(self._packs / name)

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self._refresh()

    # -- write path ---------------------------------------------------------

    def _write_format_marker(self) -> None:
        marker = self._root / FORMAT_FILE
        if marker.exists():
            return
        temp = marker.with_name(f".{marker.name}.{os.getpid()}.tmp")
        temp.write_text(_format_payload(), encoding="utf-8")
        os.replace(temp, marker)

    def _close_writer(self) -> None:
        for handle in (self._pack_handle, self._idx_handle):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._pack_handle = None
        self._idx_handle = None
        self._write_segment = None
        self._pack_size = 0

    def _ensure_writer(self, incoming: int) -> None:
        """Open (or rotate) this session's private pack segment."""
        if (
            self._pack_handle is not None
            and self._pack_size > 0
            and self._pack_size + incoming > MAX_SEGMENT_BYTES
        ):
            self._close_writer()
        if self._pack_handle is not None:
            return
        self._packs.mkdir(parents=True, exist_ok=True)
        self._write_format_marker()
        while True:
            segment = f"seg-{os.getpid()}-{os.urandom(4).hex()}"
            try:
                pack = open(self._pack_path(segment), "xb")
            except FileExistsError:
                continue
            break
        try:
            idx = open(self._idx_path(segment), "ab")
        except OSError:
            pack.close()
            raise
        self._write_segment = segment
        self._pack_handle = pack
        self._idx_handle = idx
        self._pack_size = 0

    def _append_record(self, key: str, payload: Mapping[str, Any], timestamp: float) -> None:
        """Append one record + index line to this session's segment.

        Raises ``OSError`` on failure; callers decide how to degrade.
        """
        record = encode_record(key, payload)
        self._ensure_writer(len(record))
        assert self._pack_handle is not None and self._idx_handle is not None
        offset = self._pack_size
        self._pack_handle.write(record)
        self._pack_handle.flush()
        self._pack_size = offset + len(record)
        line = (
            _canonical_json(
                {"k": key, "o": offset, "l": len(record), "t": timestamp}
            )
            + "\n"
        ).encode("utf-8")
        self._idx_handle.write(line)
        self._idx_handle.flush()
        segment = self._write_segment
        assert segment is not None
        self._set_location(
            key,
            _Location(
                segment=segment, offset=offset, length=len(record), timestamp=timestamp
            ),
        )
        self._idx_progress[f"{segment}.idx"] = (
            self._idx_progress.get(f"{segment}.idx", 0) + len(line)
        )

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store an entry payload (crash-consistent append to a packfile)."""
        self._ensure_loaded()
        try:
            self._append_record(key, payload, clock.wall_time())
        except OSError:
            # Read-only or full filesystem: run uncached rather than fail,
            # but leave a trace in the counters.
            self._close_writer()
            self.stats.io_errors += 1
            return
        self.stats.stores += 1

    # -- read path ----------------------------------------------------------

    def _read_handle(self, segment: str) -> BinaryIO:
        handle = self._read_handles.get(segment)
        if handle is None:
            handle = open(self._pack_path(segment), "rb")
            self._read_handles[segment] = handle
        return handle

    def _quarantine_record(
        self, location: _Location, data: bytes | memoryview
    ) -> bool:
        """Copy a corrupt record's bytes into quarantine for diagnosis.

        The name is deterministic (segment + offset) so repeated detection
        of the same damage is idempotent.  Returns whether the bytes were
        preserved.
        """
        target = (
            self._root
            / QUARANTINE_DIR
            / f"{location.segment}@{location.offset}{QUARANTINE_SUFFIX}"
        )
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            temp.write_bytes(data)
            os.replace(temp, target)
            return True
        except OSError:
            self.stats.io_errors += 1
            return False

    def _drop_corrupt(
        self, key: str, location: _Location, data: bytes | memoryview
    ) -> None:
        self.stats.corrupt += 1
        self._quarantine_record(location, data)
        self._drop_corrupt_quietly(key, location)

    def _decode_chunk(
        self, key: str, location: _Location, data: bytes | memoryview
    ) -> dict[str, Any] | None:
        """Decode one record's bytes; ``None`` (+ bookkeeping) on damage."""
        try:
            found, payload, length = decode_record(data)
            if found != key or length != location.length:
                raise PackRecordError("record does not match its index entry")
        except PackRecordError:
            self._drop_corrupt(key, location, data)
            return None
        return payload

    def _read_location(self, key: str, location: _Location) -> dict[str, Any] | None:
        """Decode the record at ``location``; ``None`` (+ bookkeeping) on damage."""
        try:
            handle = self._read_handle(location.segment)
            handle.seek(location.offset)
            data = handle.read(location.length)
        except FileNotFoundError:
            # Segment removed by a concurrent clear/prune: a plain miss.
            self._drop_segment(location.segment)
            return None
        except OSError:
            self.stats.io_errors += 1
            return None
        return self._decode_chunk(key, location, data)

    def get(self, key: str) -> dict[str, Any] | None:
        """Fetch an entry payload, or ``None`` on miss.

        Payloads carry their binary array fields as raw ``bytes``
        (:func:`repro.core.packfile.encode_blobs` renders them as base64
        where JSON is needed).

        A corrupted record (CRC failure, key mismatch) is quarantined,
        dropped from the index and reported as a miss; OS-level errors also
        degrade to a miss -- counted in :attr:`StoreStats.io_errors` -- so a
        broken cache never fails the sweep.
        """
        self._ensure_loaded()
        location = self._index.get(key)
        if location is None:
            # Pick up appends from concurrent sessions before concluding.
            self._refresh()
            location = self._index.get(key)
        if location is None:
            self.stats.misses += 1
            return None
        payload = self._read_location(key, location)
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def get_many(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Fetch a batch of entries in one pass; misses are simply absent.

        Result-identical to calling :meth:`get` per key -- same payloads,
        same hit/miss/corruption accounting -- but each
        pack segment is visited once in offset order, and loaded wholesale
        when the batch covers most of it, instead of seeking per key.  This
        is the read path of warm sweeps and batch merges, where per-entry
        seeks dominate on multi-thousand-entry stores.
        """
        self._ensure_loaded()
        if any(key not in self._index for key in keys):
            # Pick up appends from concurrent sessions before concluding.
            self._refresh()
        by_segment: dict[str, list[tuple[str, _Location]]] = {}
        for key in keys:
            location = self._index.get(key)
            if location is None:
                self.stats.misses += 1
            else:
                by_segment.setdefault(location.segment, []).append(
                    (key, location)
                )
        result: dict[str, dict[str, Any]] = {}
        for segment, items in sorted(by_segment.items()):
            items.sort(key=lambda item: item[1].offset)
            data: memoryview | None = None
            wanted = sum(location.length for _, location in items)
            try:
                if wanted * 2 >= os.path.getsize(self._pack_path(segment)):
                    data = memoryview(self._pack_path(segment).read_bytes())
            except OSError:
                data = None
            for key, location in items:
                end = location.offset + location.length
                if data is not None and end <= len(data):
                    payload = self._decode_chunk(
                        key, location, data[location.offset : end]
                    )
                else:
                    payload = self._read_location(key, location)
                if payload is None:
                    self.stats.misses += 1
                else:
                    self.stats.hits += 1
                    result[key] = payload
        return result

    # -- maintenance --------------------------------------------------------

    def __len__(self) -> int:
        self._ensure_loaded()
        self._refresh()
        return len(self._index)

    def snapshot(self) -> dict[str, str]:
        """Canonical-JSON payloads of every entry, keyed by entry key.

        The canonical rendering is independent of segment layout and write
        order, which is what makes serial-vs-sharded comparisons exact: two
        stores holding the same results produce equal snapshots.  Corrupt
        or unreadable entries are skipped.
        """
        self._refresh()
        result: dict[str, str] = {}
        for key in list(self._index):
            location = self._index.get(key)
            if location is None:
                continue
            payload = self._read_location(key, location)
            if payload is not None:
                result[key] = _canonical_json(encode_blobs(payload))
        return result

    def clear(self) -> int:
        """Delete every entry (explicit invalidation); returns the count."""
        self._refresh()
        self._close_writer()
        removed = 0
        by_segment: dict[str, int] = collections.Counter(
            loc.segment for loc in self._index.values()
        )
        for segment, count in sorted(by_segment.items()):
            gone = True
            for path in (self._pack_path(segment), self._idx_path(segment)):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                except OSError:
                    self.stats.io_errors += 1
                    gone = False
            if gone:
                removed += count
            self._drop_segment(segment)
        # Segments holding only tombstones (or empty) would survive the loop
        # above: sweep the directory for leftovers.
        try:
            for name in os.listdir(self._packs):
                if name.endswith(".pack") or name.endswith(".idx"):
                    try:
                        (self._packs / name).unlink()
                    except OSError:
                        pass
        except OSError:
            pass
        self._index.clear()
        self._segments.clear()
        self._coverage.clear()
        self._idx_progress.clear()
        self._recovered.clear()
        return removed

    def quarantined_count(self) -> int:
        """Number of corrupt entries currently sitting in quarantine."""
        quarantine = self._root / QUARANTINE_DIR
        if not quarantine.is_dir():
            return 0
        return sum(1 for _ in quarantine.glob(f"*{QUARANTINE_SUFFIX}"))

    def disk_stats(self) -> StoreDiskStats:
        """Measure the store's on-disk footprint (``repro store stats``).

        O(index): entry counts, byte totals and the age range all come from
        the in-memory index -- no per-entry stat calls.
        """
        self._refresh()
        entries = len(self._index)
        total_bytes = sum(loc.length for loc in self._index.values())
        times = [loc.timestamp for loc in self._index.values()]
        quarantined = self.quarantined_count()
        if not entries:
            return StoreDiskStats(
                entries=0,
                total_bytes=0,
                oldest_mtime=None,
                newest_mtime=None,
                quarantined=quarantined,
            )
        return StoreDiskStats(
            entries=entries,
            total_bytes=total_bytes,
            oldest_mtime=min(times),
            newest_mtime=max(times),
            quarantined=quarantined,
        )

    def verify(self) -> StoreVerifyReport:
        """Fsck pass: validate every record, quarantining the corrupt ones.

        Each indexed record is decoded and checked against its key; corrupt
        ones have their bytes copied into ``quarantine/`` and are dropped
        via durable index tombstones, exactly as a read-path detection
        would.  Records recovered by the crash tail scan gain their missing
        index lines, making the recovery durable.  The store remains fully
        usable during and after the pass (``repro store verify``).
        """
        self._refresh()
        scanned = 0
        valid = 0
        quarantined = 0
        io_errors = 0
        by_segment: dict[str, list[tuple[str, _Location]]] = collections.defaultdict(list)
        for key, location in self._index.items():
            by_segment[location.segment].append((key, location))
        for segment in sorted(by_segment):
            entries = sorted(by_segment[segment], key=lambda item: item[1].offset)
            try:
                data = self._pack_path(segment).read_bytes()
            except FileNotFoundError:
                # Removed by a concurrent session: its entries are gone.
                self._drop_segment(segment)
                continue
            except OSError:
                scanned += len(entries)
                io_errors += len(entries)
                self.stats.io_errors += len(entries)
                continue
            for key, location in entries:
                scanned += 1
                chunk = data[location.offset : location.offset + location.length]
                try:
                    found, _payload, length = decode_record(chunk)
                    if found != key or length != location.length:
                        raise PackRecordError("record does not match its index entry")
                except PackRecordError:
                    before = self.stats.io_errors
                    if self._quarantine_record(location, chunk):
                        quarantined += 1
                    else:
                        io_errors += self.stats.io_errors - before
                    self.stats.corrupt += 1
                    self._drop_corrupt_quietly(key, location)
                    continue
                if key in self._recovered:
                    # Make the crash-tail recovery durable.
                    try:
                        with open(self._idx_path(segment), "ab") as handle:
                            line = (
                                _canonical_json(
                                    {
                                        "k": key,
                                        "o": location.offset,
                                        "l": location.length,
                                        "t": location.timestamp,
                                    }
                                )
                                + "\n"
                            ).encode("utf-8")
                            handle.write(line)
                            handle.flush()
                        self._idx_progress[f"{segment}.idx"] = (
                            self._idx_progress.get(f"{segment}.idx", 0) + len(line)
                        )
                        self._recovered.discard(key)
                    except OSError:
                        self.stats.io_errors += 1
                valid += 1
        return StoreVerifyReport(
            scanned=scanned,
            valid=valid,
            quarantined=quarantined,
            io_errors=io_errors,
        )

    def _drop_corrupt_quietly(self, key: str, location: _Location) -> None:
        """Tombstone + forget one entry without re-quarantining its bytes."""
        tombstone = (
            _canonical_json({"x": key, "o": location.offset}) + "\n"
        ).encode("utf-8")
        path = self._idx_path(location.segment)
        try:
            with open(path, "ab") as handle:
                handle.write(tombstone)
                handle.flush()
            self._idx_progress[path.name] = (
                self._idx_progress.get(path.name, 0) + len(tombstone)
            )
        except OSError:
            self.stats.io_errors += 1
        seg_map = self._segments.get(location.segment)
        if seg_map is not None:
            seg_map.pop(key, None)
        self._reindex(key)
        self._recovered.discard(key)

    def _rewrite_segment(self, segment: str, keep: list[tuple[str, _Location]]) -> bool:
        """Compact one segment down to ``keep`` (empty ``keep`` removes it).

        Surviving record bytes are copied verbatim (still CRC-protected), so
        a rewrite can never alter a payload.  The pack is replaced before
        the index; a crash in between leaves stale offsets that fail record
        validation and read as misses -- degraded, never wrong.
        """
        if segment == self._write_segment:
            self._close_writer()
        pack_path = self._pack_path(segment)
        idx_path = self._idx_path(segment)
        if not keep:
            ok = True
            for path in (pack_path, idx_path):
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                except OSError:
                    self.stats.io_errors += 1
                    ok = False
            self._drop_segment(segment)
            return ok
        try:
            data = pack_path.read_bytes()
        except OSError:
            self.stats.io_errors += 1
            return False
        keep = sorted(keep, key=lambda item: item[1].offset)
        chunks: list[bytes] = []
        lines: list[bytes] = []
        new_locations: dict[str, _Location] = {}
        offset = 0
        for key, location in keep:
            chunk = data[location.offset : location.offset + location.length]
            chunks.append(chunk)
            lines.append(
                (
                    _canonical_json(
                        {
                            "k": key,
                            "o": offset,
                            "l": location.length,
                            "t": location.timestamp,
                        }
                    )
                    + "\n"
                ).encode("utf-8")
            )
            new_locations[key] = _Location(
                segment=segment,
                offset=offset,
                length=location.length,
                timestamp=location.timestamp,
            )
            offset += location.length
        try:
            pack_temp = pack_path.with_name(f".{pack_path.name}.{os.getpid()}.tmp")
            idx_temp = idx_path.with_name(f".{idx_path.name}.{os.getpid()}.tmp")
            pack_temp.write_bytes(b"".join(chunks))
            idx_temp.write_bytes(b"".join(lines))
            os.replace(pack_temp, pack_path)
            os.replace(idx_temp, idx_path)
        except OSError:
            self.stats.io_errors += 1
            return False
        self._drop_segment(segment)
        for key, location in new_locations.items():
            self._set_location(key, location)
        self._idx_progress[f"{segment}.idx"] = sum(len(line) for line in lines)
        return True

    def prune(
        self,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> int:
        """Bound the store by deleting the oldest entries first.

        Entries are removed in ascending store-time order (key as a
        deterministic tie-break) until both limits hold; affected pack
        segments are compacted so the bytes are actually reclaimed.
        Returns the number of entries deleted.  With no limit given
        nothing is removed.
        """
        if max_entries is not None and max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if max_entries is None and max_bytes is None:
            return 0
        self._refresh()
        # (timestamp, key as tie-break, size), oldest first.
        candidates = sorted(
            (location.timestamp, key, location.length)
            for key, location in self._index.items()
        )
        remaining = len(candidates)
        remaining_bytes = sum(size for _ts, _key, size in candidates)
        victims: set[str] = set()
        for _ts, key, size in candidates:
            over_entries = max_entries is not None and remaining > max_entries
            over_bytes = max_bytes is not None and remaining_bytes > max_bytes
            if not over_entries and not over_bytes:
                break
            victims.add(key)
            remaining -= 1
            remaining_bytes -= size
        removed = 0
        by_segment: dict[str, list[tuple[str, _Location]]] = collections.defaultdict(list)
        for key, location in self._index.items():
            by_segment[location.segment].append((key, location))
        for segment in sorted(by_segment):
            entries = by_segment[segment]
            keep = [(key, loc) for key, loc in entries if key not in victims]
            if len(keep) == len(entries):
                continue
            if self._rewrite_segment(segment, keep):
                removed += len(entries) - len(keep)
        return removed



#: Default entry bound of a :class:`MemoryOverlayStore`.  Sized for whole
#: batches (tens of adders x 43-triad grids) while keeping a long-lived
#: session's memory bounded; least-recently-used entries evict first.
OVERLAY_MAX_ENTRIES = 4096


class MemoryOverlayStore:
    """In-memory read-through / write-through overlay over an optional store.

    A :class:`~repro.api.session.Session` shares one overlay across every
    job it runs: the first lookup of an entry reads the backing store (when
    present) and memoises the payload; every later lookup -- from the same
    job or from any other job of the same session/batch -- is served from
    memory.  Writes go to both layers, so persistence semantics are exactly
    those of the backing store.  With ``backing=None`` the overlay acts as a
    session-lifetime cache, which is what makes ``run_batch`` dedup work
    even for uncached sessions.

    The memory layer is an LRU bounded by ``max_entries`` so a long-lived
    session cannot grow without limit; an evicted entry is only a
    performance miss (it re-reads the backing store, or in the uncached
    case re-simulates), never a correctness issue.

    The overlay duck-types the ``get``/``get_many``/``put`` subset of
    :class:`SweepResultStore` that every sweep orchestrator uses.
    """

    def __init__(
        self,
        backing: SweepResultStore | None = None,
        max_entries: int = OVERLAY_MAX_ENTRIES,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self._backing = backing
        self._max_entries = max_entries
        self._memory: "collections.OrderedDict[str, dict[str, Any]]" = (
            collections.OrderedDict()
        )
        self.memory_hits = 0
        self.memory_misses = 0

    @property
    def backing(self) -> SweepResultStore | None:
        """The persistent store underneath (or ``None``)."""
        return self._backing

    @property
    def max_entries(self) -> int:
        """Capacity of the in-memory LRU tier."""
        return self._max_entries

    def __len__(self) -> int:
        """Entries currently held in the in-memory tier."""
        return len(self._memory)

    def snapshot(self) -> dict[str, int]:
        """Hot-tier accounting for monitoring surfaces (``/v1/stats``).

        ``hits``/``misses`` count lookups served from / falling through the
        memory tier (a miss may still be answered by the backing store);
        they are intentionally separate from the backing
        :class:`StoreStats`, which counts disk traffic only.
        """
        return {
            "entries": len(self._memory),
            "max_entries": self._max_entries,
            "hits": self.memory_hits,
            "misses": self.memory_misses,
        }

    def _remember(self, key: str, payload: dict[str, Any]) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self._max_entries:
            self._memory.popitem(last=False)

    def get(self, key: str) -> dict[str, Any] | None:
        """Fetch an entry, memoising backing-store hits."""
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            return cached
        self.memory_misses += 1
        if self._backing is None:
            return None
        payload = self._backing.get(key)
        if payload is not None:
            self._remember(key, payload)
        return payload

    def get_many(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Batch :meth:`get`: memory first, one backing batch for the rest."""
        result: dict[str, dict[str, Any]] = {}
        missing: list[str] = []
        for key in keys:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.memory_hits += 1
                result[key] = cached
            else:
                self.memory_misses += 1
                missing.append(key)
        if missing and self._backing is not None:
            for key, payload in self._backing.get_many(missing).items():
                self._remember(key, payload)
                result[key] = payload
        return result

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Store an entry in memory and (when present) the backing store."""
        self._remember(key, dict(payload))
        if self._backing is not None:
            self._backing.put(key, payload)
