"""Binary record codec of the packfile result store.

The :class:`~repro.core.store.SweepResultStore` keeps result payloads in
append-only *pack segments*.  This module defines the self-describing
record format those segments are made of, plus the low-level
encode/decode/scan primitives; segment and index management live in
:mod:`repro.core.store`.

Record layout (all integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
         0     4  magic  b"RPK2"
         4     4  u32    record length (header through trailing CRC)
         8     4  u32    meta length
        12    64  ascii  entry key (SHA-256 hex)
        76     M  json   meta document
      76+M     B  raw    blob bytes, concatenated in meta order
    -4           u32    CRC-32 over everything before it

The meta document is ``{"payload": {...}, "blobs": [[field, nbytes], ...]}``:
the entry payload with its large array fields *removed* and listed as raw
blobs instead.  Which fields qualify is a fixed registry
(:data:`BINARY_FIELDS`): exactly the payload fields the sweep orchestrators
fill with raw ``pack_int64_array`` / ``pack_float64_array`` bytes.  Blob
bytes are written verbatim -- no megabyte-sized JSON strings to build or
parse -- and on decode they come back as the same *raw bytes*, which the
array codec in :mod:`repro.core.store` reads directly.  :func:`encode_blobs`
renders them as base64 where JSON is unavoidable (canonical snapshots).
Unknown fields, and registry fields that do not hold bytes, simply stay
inside the JSON meta, which keeps the format forward-compatible with new
payload shapes.

Corruption of any kind -- bad magic, implausible lengths, CRC mismatch,
garbled JSON, a key that does not match -- raises :class:`PackRecordError`
on decode, which is what the store's read path and ``verify`` fsck key
their quarantine handling on.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from typing import Any, Iterator, Mapping

#: Magic bytes opening every record ("RePro pacK, layout 2").
RECORD_MAGIC = b"RPK2"

#: Fixed-size record prefix: magic, record length, meta length.
_HEADER = struct.Struct("<4sII")

#: Trailing CRC-32.
_CRC = struct.Struct("<I")

#: Length of an entry key (SHA-256 hex digest).
KEY_LENGTH = 64

#: Payload fields stored as raw binary blobs instead of base64 JSON strings.
#: These are exactly the array-carrying fields the sweep orchestrators emit
#: (:mod:`repro.core.sweep` and :mod:`repro.variation.montecarlo`); any other
#: field travels inside the JSON meta unchanged.
BINARY_FIELDS = frozenset(
    {
        "latched_words",
        "ber_samples",
        "faulty_fraction_samples",
        "energy_samples",
        "static_energy_samples",
    }
)

#: Upper bound on a single record (1 GiB): lengths beyond it are treated as
#: corruption rather than attempted as allocations.
MAX_RECORD_BYTES = 1 << 30

#: Shared decoder for record meta (``json.loads`` on bytes would redo
#: encoding detection and whitespace scanning on every record).
_META_DECODER = json.JSONDecoder()


class PackRecordError(ValueError):
    """A pack record failed to decode (truncated, garbled, or mismatched)."""


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _blob_bytes(name: str, value: Any) -> bytes | None:
    """Raw bytes of a blob field, or ``None`` to keep it in the JSON meta."""
    if name in BINARY_FIELDS and isinstance(value, (bytes, bytearray)):
        return bytes(value)
    return None


def encode_record(key: str, payload: Mapping[str, Any]) -> bytes:
    """Serialise one entry into a self-describing binary record."""
    if len(key) != KEY_LENGTH:
        raise ValueError(f"entry keys are {KEY_LENGTH}-char hex digests")
    meta_payload: dict[str, Any] = {}
    blobs: list[tuple[str, bytes]] = []
    for name, value in payload.items():
        raw = _blob_bytes(name, value)
        if raw is None:
            meta_payload[name] = value
        else:
            blobs.append((name, raw))
    meta = _canonical_json(
        {
            "payload": meta_payload,
            "blobs": [[name, len(raw)] for name, raw in blobs],
        }
    ).encode("utf-8")
    body = b"".join([key.encode("ascii"), meta, *(raw for _, raw in blobs)])
    length = _HEADER.size + len(body) + _CRC.size
    head = _HEADER.pack(RECORD_MAGIC, length, len(meta))
    crc = zlib.crc32(head + body)
    return b"".join([head, body, _CRC.pack(crc)])


def encode_blobs(payload: Mapping[str, Any]) -> dict[str, Any]:
    """A copy of ``payload`` with raw-bytes blob fields as base64 text.

    Apply it wherever a decoded payload must render as JSON (canonical
    snapshots); every other field passes through untouched.
    """
    return {
        name: (
            base64.b64encode(value).decode("ascii")
            if name in BINARY_FIELDS and isinstance(value, (bytes, bytearray))
            else value
        )
        for name, value in payload.items()
    }


def decode_record(data: bytes | memoryview) -> tuple[str, dict[str, Any], int]:
    """Decode the record at the start of ``data``.

    Returns ``(key, payload, record_length)``.  ``data`` may extend past the
    record (a whole segment); only the first record is examined.  Passing a
    ``memoryview`` is the zero-copy path for bulk readers that hold a whole
    segment in memory -- nothing but the blob bytes themselves is copied out
    of it.  Blob fields come back as raw ``bytes`` (see :func:`encode_blobs`).

    Raises
    ------
    PackRecordError
        On any structural damage: short buffer, bad magic, implausible
        lengths, CRC mismatch, or a meta document that does not parse.
    """
    if len(data) < _HEADER.size + KEY_LENGTH + _CRC.size:
        raise PackRecordError("record truncated before header")
    magic, length, meta_length = _HEADER.unpack_from(data)
    if magic != RECORD_MAGIC:
        raise PackRecordError("bad record magic")
    if length > MAX_RECORD_BYTES or length < _HEADER.size + KEY_LENGTH + _CRC.size:
        raise PackRecordError("implausible record length")
    if length > len(data):
        raise PackRecordError("record truncated mid-body")
    if meta_length > length - _HEADER.size - KEY_LENGTH - _CRC.size:
        raise PackRecordError("implausible meta length")
    (crc,) = _CRC.unpack_from(data, length - _CRC.size)
    if zlib.crc32(memoryview(data)[: length - _CRC.size]) != crc:
        raise PackRecordError("record CRC mismatch")
    key_start = _HEADER.size
    meta_start = key_start + KEY_LENGTH
    try:
        key = bytes(data[key_start:meta_start]).decode("ascii")
        meta, _ = _META_DECODER.raw_decode(
            bytes(data[meta_start : meta_start + meta_length]).decode("utf-8")
        )
        payload = meta["payload"]
        blob_specs = meta["blobs"]
        if not isinstance(payload, dict) or not isinstance(blob_specs, list):
            raise PackRecordError("malformed record meta")
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as error:
        raise PackRecordError(f"unreadable record meta: {error}") from None
    position = meta_start + meta_length
    for spec in blob_specs:
        try:
            name, nbytes = spec
            nbytes = int(nbytes)
        except (TypeError, ValueError):
            raise PackRecordError("malformed blob descriptor") from None
        if nbytes < 0 or position + nbytes > length - _CRC.size:
            raise PackRecordError("blob overruns its record")
        payload[str(name)] = bytes(data[position : position + nbytes])
        position += nbytes
    if position != length - _CRC.size:
        raise PackRecordError("record has unaccounted trailing bytes")
    return key, payload, length


def scan_records(data: bytes, start: int = 0) -> Iterator[tuple[int, int, str, dict[str, Any]]]:
    """Walk valid records from ``start``; stop at the first damaged one.

    Yields ``(offset, length, key, payload)`` per record.  Used for index
    repair after a crash (the tail of a segment may hold records appended
    after the last index flush) and by the ``verify`` fsck: trailing garbage
    simply ends the scan, it never raises.
    """
    view = memoryview(data)
    offset = start
    while offset < len(view):
        try:
            key, payload, length = decode_record(view[offset:])
        except PackRecordError:
            return
        yield offset, length, key, payload
        offset += length
