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
* **Packfile layout (v2).**  Entries are appended as self-describing binary
  records (:mod:`repro.core.packfile`) to per-process *pack segments* under
  ``<root>/packs/``, each paired with an append-only JSONL index mapping
  ``key -> (offset, length)``.  A warm read is one seek + one read + one CRC
  check instead of a JSON parse of megabyte base64 strings; ``disk_stats``
  and ``prune`` walk the index, not the filesystem.  Each put appends the
  record, flushes, then appends the index line and flushes -- the same
  crash-consistency contract as the old atomic-rename files: a record
  missing its index line is recovered by a tail scan on the next open, and
  a torn record fails its CRC and is ignored.  Segment names embed the
  writing process's pid plus a random token, so concurrent sessions never
  share a write file and readers pick up each other's appends by re-reading
  the grown index files.
* **v1 compatibility.**  The previous layout (one atomic JSON document per
  entry fanned out over 256 two-hex subdirectories) is still read through:
  a key missing from the pack index falls back to the v1 file, with the old
  corruption handling intact.  :meth:`migrate` converts a v1 store in place
  (``repro store migrate``); entry *keys* are unchanged -- the hash still
  mixes :data:`STORE_FORMAT_VERSION` ``= 1`` -- so a migrated store keeps
  every warm hit.  :data:`STORE_VERSION` ``= 2`` names the container layout
  only and is recorded in ``<root>/format.json``, never hashed into keys.
* **Corruption tolerance.**  A record that fails its CRC or key check is
  quarantined (its bytes copied under ``quarantine/``, never silently
  discarded) and dropped from the index via a durable tombstone line, then
  treated as a miss; any OS-level error degrades to a miss as well, so a
  broken cache can never fail a sweep.  Real I/O errors are counted in
  :attr:`StoreStats.io_errors` so silent degradation is observable in
  ``store stats``, and :meth:`SweepResultStore.verify` offers an explicit
  fsck pass over every record (``store verify``) that also makes tail-scan
  recoveries durable.  All walks are ENOENT-tolerant: segments or legacy
  entries deleted by a concurrent session are simply skipped.  ``verify``
  and ``prune`` rewrite segments and are maintenance operations: run them
  from one session at a time (readers stay safe throughout -- a stale
  offset fails validation and reads as a miss, never as wrong data).
"""

from __future__ import annotations

import base64
import collections
import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Any, BinaryIO, Iterator, Mapping, Sequence

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
#: invalidates all previously stored entries.  The packfile migration kept
#: it at 1 on purpose -- v1 entries stay addressable after ``store migrate``.
STORE_FORMAT_VERSION = 1

#: Version of the on-disk *container* layout (recorded in ``format.json``,
#: never part of entry keys).  1 = one JSON file per entry; 2 = packfile.
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


def netlist_fingerprint(netlist: Netlist) -> str:
    """Stable content hash of a netlist's structure.

    Covers the primary ports and every gate (type, input nets, output net) in
    topological order -- two netlists with the same fingerprint simulate
    identically, whatever generator built them.
    """
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
# Array <-> JSON helpers (exact round-trips)
# ---------------------------------------------------------------------------


def pack_int64_array(values: np.ndarray) -> bytes:
    """Raw little-endian bytes of an int64 array (exact).

    The wire/storage form of a payload array field: workers and the
    packfile store exchange these bytes directly; :func:`encode_int64_array`
    is the same content wrapped in base64 for JSON contexts.
    """
    return np.ascontiguousarray(np.asarray(values, dtype="<i8")).tobytes()


def encode_int64_array(values: np.ndarray) -> str:
    """Base64 encoding of an int64 array (exact, little-endian)."""
    return base64.b64encode(pack_int64_array(values)).decode("ascii")


def decode_int64_array(data: str | bytes | bytearray) -> np.ndarray:
    """Inverse of :func:`encode_int64_array`.

    Accepts either the base64 text or the raw little-endian bytes it wraps:
    packfile reads (:func:`repro.core.packfile.decode_record`) hand the
    array fields over as raw bytes so the hot path never round-trips
    through base64.
    """
    raw = data if isinstance(data, (bytes, bytearray)) else base64.b64decode(data)
    return np.frombuffer(raw, dtype="<i8").astype(np.int64, copy=True)


def pack_float64_array(values: np.ndarray) -> bytes:
    """Raw little-endian bytes of a float64 array (bit-exact).

    Used by the Monte Carlo payloads for per-sample statistics: the packing
    is byte-identical for byte-identical inputs, which is what makes
    serial-vs-sharded store entries comparable entry for entry.
    """
    return np.ascontiguousarray(np.asarray(values, dtype="<f8")).tobytes()


def encode_float64_array(values: np.ndarray) -> str:
    """Base64 encoding of a float64 array (see :func:`pack_float64_array`)."""
    return base64.b64encode(pack_float64_array(values)).decode("ascii")


def decode_float64_array(data: str | bytes | bytearray) -> np.ndarray:
    """Inverse of :func:`encode_float64_array` (text or raw bytes, like
    :func:`decode_int64_array`)."""
    raw = data if isinstance(data, (bytes, bytearray)) else base64.b64decode(data)
    return np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=True)


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
        Bytes occupied by the entry records (pack records plus any
        unmigrated v1 entry files).
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
        Entry records examined (pack records plus v1 entry files).
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
class StoreMigrateReport:
    """Outcome of a :meth:`SweepResultStore.migrate` pass.

    Attributes
    ----------
    migrated:
        v1 entries repacked into the packfile layout (and their JSON files
        removed).
    quarantined:
        Corrupt v1 entries moved into the quarantine directory.
    io_errors:
        Entries left in place because reading or repacking them failed with
        an OS-level error (they remain readable through the v1 fallback).
    """

    migrated: int
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


def write_legacy_entry(
    root: str | os.PathLike[str], key: str, payload: Mapping[str, Any]
) -> pathlib.Path:
    """Write one entry in the *v1* one-JSON-file-per-entry layout.

    This is the old :meth:`SweepResultStore.put` kept as a fixture/test
    helper: migration tests and the ``tests/fixtures`` generator use it to
    build v1 stores on the previous release's layout.  Production code
    always writes packfiles.
    """
    root = pathlib.Path(root)
    # v1 entries are pure JSON: render any raw-bytes array fields as base64.
    document = encode_blobs(payload)
    document["key"] = key
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    temp.write_text(_canonical_json(document), encoding="utf-8")
    os.replace(temp, path)
    return path


def store_layout_version(root: str | os.PathLike[str]) -> int:
    """Container layout version of a store root.

    Reads ``format.json`` when present; otherwise a root holding v1 entry
    directories reports 1 and anything else (including an empty or missing
    root) reports the current :data:`STORE_VERSION`.
    """
    root = pathlib.Path(root)
    try:
        document = json.loads((root / FORMAT_FILE).read_text(encoding="utf-8"))
        return int(document["store_version"])
    except (OSError, ValueError, TypeError, KeyError):
        pass
    if any(_iter_legacy_files(root)):
        return 1
    return STORE_VERSION


def _iter_legacy_files(root: pathlib.Path) -> Iterator[pathlib.Path]:
    """v1 entry files under ``root`` (ENOENT-tolerant)."""
    try:
        subdirs = sorted(root.iterdir())
    except OSError:
        return
    for subdir in subdirs:
        name = subdir.name
        if len(name) != 2 or any(c not in "0123456789abcdef" for c in name):
            continue
        try:
            children = sorted(subdir.iterdir())
        except OSError:
            continue
        for path in children:
            if path.suffix == ".json" and not path.name.startswith("."):
                yield path


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
        self._legacy = False
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
        key: migrating a store must not lose warm hits.
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
        try:
            self._legacy = any(True for _ in _iter_legacy_files(self._root))
        except OSError:
            self._legacy = False

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

    def _legacy_path(self, key: str) -> pathlib.Path:
        return self._root / key[:2] / f"{key}.json"

    def _quarantine_legacy(self, path: pathlib.Path) -> bool:
        """Move a corrupt v1 entry aside (keeping its bytes for diagnosis)."""
        target = self._root / QUARANTINE_DIR / (path.name + QUARANTINE_SUFFIX)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            return True
        except FileNotFoundError:
            return True
        except OSError:
            pass
        # Quarantine failed (e.g. read-only directory): deleting is still
        # better than re-reading garbage forever.
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return True
        except OSError:
            self.stats.io_errors += 1
            return False

    def _legacy_get(self, key: str) -> dict[str, Any] | None:
        """v1 fallback read (counts hits/misses exactly like the old store)."""
        path = self._legacy_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.stats.misses += 1
            self.stats.io_errors += 1
            return None
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict) or payload.get("key") != key:
                raise ValueError("entry does not match its key")
        except (ValueError, TypeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._quarantine_legacy(path)
            return None
        self.stats.hits += 1
        # The embedded key is integrity metadata, not part of the payload:
        # strip it so cached payloads compare equal to freshly computed ones.
        payload.pop("key", None)
        return payload

    def get(self, key: str) -> dict[str, Any] | None:
        """Fetch an entry payload, or ``None`` on miss.

        Payloads served from pack records carry their binary array fields
        as raw ``bytes`` rather than base64 text (the array codec accepts
        both; :func:`repro.core.packfile.encode_blobs` restores the JSON
        form).  Entries served through the v1 fallback keep base64 text.

        A corrupted record (CRC failure, key mismatch) is quarantined,
        dropped from the index and reported as a miss; OS-level errors also
        degrade to a miss -- counted in :attr:`StoreStats.io_errors` -- so a
        broken cache never fails the sweep.  Keys absent from the pack index
        fall back to the v1 per-file layout when one is present.
        """
        self._ensure_loaded()
        location = self._index.get(key)
        if location is None:
            # Pick up appends from concurrent sessions before concluding.
            self._refresh()
            location = self._index.get(key)
        if location is None:
            if self._legacy:
                return self._legacy_get(key)
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
        same hit/miss/corruption accounting, same v1 fallback -- but each
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
        absent: list[str] = []
        for key in keys:
            location = self._index.get(key)
            if location is None:
                absent.append(key)
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
        for key in absent:
            if self._legacy:
                payload = self._legacy_get(key)
                if payload is not None:
                    result[key] = payload
            else:
                self.stats.misses += 1
        return result

    # -- maintenance --------------------------------------------------------

    def __len__(self) -> int:
        self._ensure_loaded()
        self._refresh()
        total = len(self._index)
        if self._legacy:
            total += sum(1 for _ in _iter_legacy_files(self._root))
        return total

    def entry_keys(self) -> list[str]:
        """Sorted keys of every stored entry (both layouts)."""
        self._refresh()
        keys = set(self._index)
        if self._legacy:
            keys.update(path.stem for path in _iter_legacy_files(self._root))
        return sorted(keys)

    def snapshot(self) -> dict[str, str]:
        """Canonical-JSON payloads of every entry, keyed by entry key.

        The canonical rendering is layout-independent, which is what makes
        before/after-migration (and serial-vs-sharded) comparisons exact:
        two stores holding the same results produce equal snapshots whatever
        container they use.  Corrupt or unreadable entries are skipped.
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
        if self._legacy:
            for path in _iter_legacy_files(self._root):
                key = path.stem
                if key in result:
                    continue
                try:
                    document = json.loads(path.read_text(encoding="utf-8"))
                    if not isinstance(document, dict) or document.get("key") != key:
                        continue
                except (OSError, ValueError, TypeError):
                    continue
                document.pop("key", None)
                result[key] = _canonical_json(document)
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
        for path in list(_iter_legacy_files(self._root)):
            try:
                path.unlink()
                removed += 1
            except FileNotFoundError:
                continue
            except OSError:
                self.stats.io_errors += 1
        self._index.clear()
        self._segments.clear()
        self._coverage.clear()
        self._idx_progress.clear()
        self._recovered.clear()
        self._legacy = False
        return removed

    def quarantined_count(self) -> int:
        """Number of corrupt entries currently sitting in quarantine."""
        quarantine = self._root / QUARANTINE_DIR
        if not quarantine.is_dir():
            return 0
        return sum(1 for _ in quarantine.glob(f"*{QUARANTINE_SUFFIX}"))

    def _legacy_stats(self) -> tuple[int, int, list[float]]:
        """(count, bytes, mtimes) of unmigrated v1 entries."""
        count = 0
        total = 0
        mtimes: list[float] = []
        for path in _iter_legacy_files(self._root):
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            except OSError:
                self.stats.io_errors += 1
                continue
            count += 1
            total += stat.st_size
            mtimes.append(stat.st_mtime)
        return count, total, mtimes

    def disk_stats(self) -> StoreDiskStats:
        """Measure the store's on-disk footprint (``repro store stats``).

        O(index) on the packfile layout: entry counts, byte totals and the
        age range all come from the in-memory index -- no per-entry stat
        calls.  Unmigrated v1 entries (if any) are still walked on disk.
        """
        self._refresh()
        entries = len(self._index)
        total_bytes = sum(loc.length for loc in self._index.values())
        times = [loc.timestamp for loc in self._index.values()]
        if self._legacy:
            legacy_count, legacy_bytes, legacy_mtimes = self._legacy_stats()
            entries += legacy_count
            total_bytes += legacy_bytes
            times.extend(legacy_mtimes)
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
        index lines, making the recovery durable.  Unmigrated v1 entries
        are verified with the v1 rules.  The store remains fully usable
        during and after the pass (``repro store verify``).
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
        if self._legacy:
            for path in sorted(_iter_legacy_files(self._root)):
                try:
                    text = path.read_text(encoding="utf-8")
                except FileNotFoundError:
                    continue
                except OSError:
                    scanned += 1
                    io_errors += 1
                    self.stats.io_errors += 1
                    continue
                scanned += 1
                key = path.stem
                try:
                    payload = json.loads(text)
                    if not isinstance(payload, dict) or payload.get("key") != key:
                        raise ValueError("entry does not match its key")
                except (ValueError, TypeError):
                    self.stats.corrupt += 1
                    if self._quarantine_legacy(path):
                        quarantined += 1
                    else:
                        io_errors += 1
                    continue
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
        # (timestamp, tie-break, size, kind, identity)
        candidates: list[tuple[float, str, int, str, Any]] = []
        for key, location in self._index.items():
            candidates.append(
                (location.timestamp, key, location.length, "pack", key)
            )
        if self._legacy:
            for path in _iter_legacy_files(self._root):
                try:
                    stat = path.stat()
                except FileNotFoundError:
                    continue
                except OSError:
                    self.stats.io_errors += 1
                    continue
                candidates.append(
                    (stat.st_mtime, str(path), stat.st_size, "legacy", path)
                )
        candidates.sort(key=lambda item: (item[0], item[1]))
        remaining = len(candidates)
        remaining_bytes = sum(item[2] for item in candidates)
        legacy_victims: list[pathlib.Path] = []
        pack_victims: set[str] = set()
        for _ts, _tie, size, kind, identity in candidates:
            over_entries = max_entries is not None and remaining > max_entries
            over_bytes = max_bytes is not None and remaining_bytes > max_bytes
            if not over_entries and not over_bytes:
                break
            if kind == "legacy":
                legacy_victims.append(identity)
            else:
                pack_victims.add(identity)
            remaining -= 1
            remaining_bytes -= size
        removed = 0
        for path in legacy_victims:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            except OSError:
                self.stats.io_errors += 1
                continue
            removed += 1
        by_segment: dict[str, list[tuple[str, _Location]]] = collections.defaultdict(list)
        for key, location in self._index.items():
            by_segment[location.segment].append((key, location))
        for segment in sorted(by_segment):
            entries = by_segment[segment]
            keep = [(key, loc) for key, loc in entries if key not in pack_victims]
            if len(keep) == len(entries):
                continue
            if self._rewrite_segment(segment, keep):
                removed += len(entries) - len(keep)
        return removed

    def migrate(self) -> StoreMigrateReport:
        """Repack every v1 JSON entry into the packfile layout, in place.

        Valid entries keep their keys (the key schema never changed) and
        their store times (the file mtime becomes the pack timestamp, so
        prune ordering survives migration); the JSON file is removed only
        after its record and index line are flushed, so a crash mid-migration
        loses nothing -- rerunning completes the job.  Corrupt v1 entries
        are quarantined exactly as a read would quarantine them; entries
        that cannot be repacked due to I/O errors stay in place and remain
        readable through the v1 fallback.  Exposed as ``repro store
        migrate``.
        """
        self._refresh()
        migrated = 0
        quarantined = 0
        io_errors = 0
        for path in sorted(_iter_legacy_files(self._root)):
            key = path.stem
            try:
                stat = path.stat()
                text = path.read_text(encoding="utf-8")
            except FileNotFoundError:
                continue
            except OSError:
                io_errors += 1
                self.stats.io_errors += 1
                continue
            try:
                document = json.loads(text)
                if not isinstance(document, dict) or document.get("key") != key:
                    raise ValueError("entry does not match its key")
            except (ValueError, TypeError):
                self.stats.corrupt += 1
                if self._quarantine_legacy(path):
                    quarantined += 1
                else:
                    io_errors += 1
                continue
            document.pop("key", None)
            try:
                self._append_record(key, document, stat.st_mtime)
            except OSError:
                # Leave the v1 file in place: still readable via fallback.
                self._close_writer()
                io_errors += 1
                self.stats.io_errors += 1
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            except OSError:
                # The pack copy exists and shadows the file; the leftover
                # JSON only wastes space until the next migrate/clear.
                io_errors += 1
                self.stats.io_errors += 1
            migrated += 1
            try:
                path.parent.rmdir()
            except OSError:
                pass
        try:
            self._root.mkdir(parents=True, exist_ok=True)
            self._write_format_marker()
        except OSError:
            self.stats.io_errors += 1
        self._legacy = any(True for _ in _iter_legacy_files(self._root))
        return StoreMigrateReport(
            migrated=migrated, quarantined=quarantined, io_errors=io_errors
        )


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

    def __len__(self) -> int:
        return len(self._memory)
