"""Tests of the binary pack-record codec."""

import base64

import numpy as np
import pytest

from repro.core.packfile import (
    BINARY_FIELDS,
    PackRecordError,
    decode_record,
    encode_blobs,
    encode_record,
    scan_records,
)
from repro.core.store import pack_float64_array, pack_int64_array

KEY = "ab" * 32
OTHER = "cd" * 32


class TestRoundTrip:
    def test_plain_payload(self):
        payload = {"ber": 0.25, "nested": {"a": [1, 2]}, "s": "text"}
        record = encode_record(KEY, payload)
        key, decoded, length = decode_record(record)
        assert key == KEY
        assert decoded == payload
        assert length == len(record)

    def test_array_fields_decode_to_raw_bytes(self):
        payload = {
            "latched_words": pack_int64_array(np.arange(64, dtype=np.int64)),
            "ber_samples": pack_float64_array(np.linspace(0, 1, 33)),
            "summary": {"ber": 0.5},
        }
        _, decoded, _ = decode_record(encode_record(KEY, payload))
        # Blob fields come back as the same raw bytes (no base64 on the
        # read path)...
        assert decoded == payload
        assert isinstance(decoded["latched_words"], bytes)
        # ...and encode_blobs renders them as base64 text for JSON.
        assert encode_blobs(decoded) == {
            "latched_words": base64.b64encode(payload["latched_words"]).decode(),
            "ber_samples": base64.b64encode(payload["ber_samples"]).decode(),
            "summary": {"ber": 0.5},
        }

    def test_base64_text_in_a_blob_field_is_not_decoded(self):
        raw = np.arange(64, dtype="<i8").tobytes()
        text = base64.b64encode(raw).decode("ascii")
        record = encode_record(KEY, {"latched_words": text})
        assert record != encode_record(KEY, {"latched_words": raw})
        assert text.encode("ascii") in record  # kept as JSON text
        _, decoded, _ = decode_record(record)
        assert decoded == {"latched_words": text}

    def test_array_fields_are_stored_raw_not_base64(self):
        values = np.arange(256, dtype=np.int64)
        raw = pack_int64_array(values)
        encoded = base64.b64encode(raw).decode("ascii")
        record = encode_record(KEY, {"latched_words": raw})
        # The raw little-endian bytes are in the record; the base64 text is
        # not (that is the 4:3 size saving).
        assert values.astype("<i8").tobytes() in record
        assert encoded.encode("ascii") not in record
        assert len(record) < len(encoded) + 200

    def test_empty_array_field(self):
        payload = {"latched_words": pack_int64_array(np.array([], dtype=np.int64))}
        _, decoded, _ = decode_record(encode_record(KEY, payload))
        assert decoded == {"latched_words": b""}
        assert encode_blobs(decoded) == {"latched_words": ""}

    def test_non_canonical_base64_stays_in_json(self):
        # Anything that is not raw bytes is carried verbatim in the JSON meta.
        for value in ("not base64!!", "YWJjZA", "YWJjZA==", 3.5, None, ["x"]):
            payload = {"latched_words": value}
            _, decoded, _ = decode_record(encode_record(KEY, payload))
            assert decoded == payload

    def test_unknown_fields_stay_in_json(self):
        blob = base64.b64encode(b"12345678").decode("ascii")
        payload = {"mystery_field": blob}
        assert "mystery_field" not in BINARY_FIELDS
        record = encode_record(KEY, payload)
        assert blob.encode("ascii") in record  # kept as JSON text
        _, decoded, _ = decode_record(record)
        assert decoded == payload

    def test_rejects_malformed_keys(self):
        with pytest.raises(ValueError):
            encode_record("short", {})


class TestCorruptionDetection:
    def _record(self):
        return encode_record(
            KEY, {"latched_words": pack_int64_array(np.arange(32)), "n": 1}
        )

    def test_every_single_byte_flip_is_detected(self):
        record = self._record()
        for position in range(len(record)):
            damaged = bytearray(record)
            damaged[position] ^= 0xFF
            try:
                key, payload, _ = decode_record(bytes(damaged))
            except PackRecordError:
                continue
            # A flip that still decodes must not silently alter anything
            # (cannot happen with CRC-32 over a single-bit-pattern flip).
            raise AssertionError(f"undetected corruption at byte {position}")

    def test_truncation_is_detected_at_every_length(self):
        record = self._record()
        for cut in range(len(record)):
            with pytest.raises(PackRecordError):
                decode_record(record[:cut])

    def test_trailing_bytes_are_ignored(self):
        record = self._record()
        key, payload, length = decode_record(record + b"garbage after")
        assert key == KEY
        assert length == len(record)


class TestScan:
    def test_scans_concatenated_records(self):
        a = encode_record(KEY, {"n": 1})
        b = encode_record(OTHER, {"n": 2})
        found = list(scan_records(a + b))
        assert [(offset, key) for offset, _len, key, _p in found] == [
            (0, KEY),
            (len(a), OTHER),
        ]
        assert found[1][3] == {"n": 2}

    def test_stops_at_first_damage_without_raising(self):
        a = encode_record(KEY, {"n": 1})
        b = encode_record(OTHER, {"n": 2})
        damaged = bytearray(a + b)
        damaged[len(a) + 8] ^= 0xFF
        found = list(scan_records(bytes(damaged)))
        assert len(found) == 1
        assert found[0][2] == KEY

    def test_empty_and_garbage_inputs(self):
        assert list(scan_records(b"")) == []
        assert list(scan_records(b"random junk bytes")) == []

    def test_scan_from_offset(self):
        a = encode_record(KEY, {"n": 1})
        b = encode_record(OTHER, {"n": 2})
        found = list(scan_records(a + b, start=len(a)))
        assert [key for _o, _l, key, _p in found] == [OTHER]
