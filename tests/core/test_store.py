"""Tests of the content-addressed sweep result store (packfile layout)."""

import base64
import dataclasses
import json

import numpy as np
import pytest

from repro.circuits.adders import build_adder
from repro.core import store as store_module
from repro.obs import clock as obs_clock
from repro.core.packfile import encode_blobs
from repro.core.store import (
    FORMAT_FILE,
    PACKS_DIR,
    QUARANTINE_DIR,
    QUARANTINE_SUFFIX,
    STORE_VERSION,
    SweepResultStore,
    decode_float64_array,
    decode_int64_array,
    library_fingerprint,
    netlist_fingerprint,
    operand_fingerprint,
    pack_float64_array,
    pack_int64_array,
)
from repro.technology.fdsoi28 import FDSOI28_LVT
from repro.technology.library import DEFAULT_LIBRARY, StandardCellLibrary


def _pack_files(store):
    return sorted((store.root / PACKS_DIR).glob("*.pack"))


def _idx_files(store):
    return sorted((store.root / PACKS_DIR).glob("*.idx"))


def _index_lines(store):
    """All add-lines of all index files, in file order."""
    lines = []
    for path in _idx_files(store):
        for raw in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(raw)
            if "k" in record:
                record["segment"] = path.name[: -len(".idx")]
                lines.append(record)
    return lines


def _corrupt_record(store, key):
    """Flip a byte inside ``key``'s record body on disk."""
    for line in _index_lines(store):
        if line["k"] == key:
            path = store.root / PACKS_DIR / (line["segment"] + ".pack")
            data = bytearray(path.read_bytes())
            data[line["o"] + 20] ^= 0xFF
            path.write_bytes(bytes(data))
            return line
    raise AssertionError(f"key {key} not found in any index")


class TestFingerprints:
    def test_netlist_fingerprint_is_stable(self):
        a = netlist_fingerprint(build_adder("rca", 8).netlist)
        b = netlist_fingerprint(build_adder("rca", 8).netlist)
        assert a == b

    def test_netlist_fingerprint_separates_architectures_and_widths(self):
        prints = {
            netlist_fingerprint(build_adder(arch, width).netlist)
            for arch, width in (("rca", 8), ("rca", 16), ("bka", 8), ("bka", 16))
        }
        assert len(prints) == 4

    def test_library_fingerprint_is_stable(self):
        assert library_fingerprint(DEFAULT_LIBRARY) == library_fingerprint(
            StandardCellLibrary()
        )

    def test_library_fingerprint_tracks_parameter_changes(self):
        retuned = StandardCellLibrary(
            tech=dataclasses.replace(FDSOI28_LVT, vt0=FDSOI28_LVT.vt0 * 1.01)
        )
        assert library_fingerprint(retuned) != library_fingerprint(DEFAULT_LIBRARY)

    def test_fingerprints_are_hashed_once_per_object(self, monkeypatch):
        netlist = build_adder("rca", 8).netlist
        library = StandardCellLibrary()
        first = (netlist_fingerprint(netlist), library_fingerprint(library))

        def rehash(_):
            raise AssertionError("a memoized fingerprint was hashed again")

        monkeypatch.setattr(store_module, "_hash_netlist", rehash)
        monkeypatch.setattr(store_module, "_hash_library", rehash)
        assert (netlist_fingerprint(netlist), library_fingerprint(library)) == first

    def test_operand_fingerprint_tracks_content_and_shape(self):
        in1 = np.arange(100)
        in2 = np.arange(100)[::-1].copy()
        base = operand_fingerprint(in1, in2)
        assert base == operand_fingerprint(in1.copy(), in2.copy())
        assert base != operand_fingerprint(in2, in1)
        changed = in1.copy()
        changed[3] += 1
        assert base != operand_fingerprint(changed, in2)

    def test_int64_array_round_trip(self):
        values = np.array([0, 1, -5, 2**62, -(2**62)], dtype=np.int64)
        assert np.array_equal(decode_int64_array(pack_int64_array(values)), values)

    def test_float64_array_round_trip_is_bit_exact(self):
        values = np.array(
            [0.0, -0.0, 1e-300, np.pi, np.nextafter(1.0, 2.0), 7.25e12]
        )
        decoded = decode_float64_array(pack_float64_array(values))
        assert decoded.dtype == np.float64
        assert np.array_equal(
            decoded.view(np.uint64), values.view(np.uint64)
        )

    def test_float64_encoding_is_deterministic(self):
        values = np.random.default_rng(0).random(32)
        assert pack_float64_array(values) == pack_float64_array(values.copy())

    @pytest.mark.parametrize(
        "pack, decode",
        [
            (pack_int64_array, decode_int64_array),
            (pack_float64_array, decode_float64_array),
        ],
    )
    def test_decoders_take_raw_bytes_only(self, pack, decode):
        # The base64 text form of an array is not a decoder input: nothing
        # hands one over since the per-entry JSON layout was removed.
        text = base64.b64encode(pack(np.arange(4))).decode("ascii")
        with pytest.raises(TypeError):
            decode(text)


class TestEntryKeys:
    def test_key_is_deterministic_and_order_insensitive(self):
        a = SweepResultStore.entry_key({"x": 1, "y": {"a": 2.5, "b": "s"}})
        b = SweepResultStore.entry_key({"y": {"b": "s", "a": 2.5}, "x": 1})
        assert a == b

    def test_key_changes_with_any_component(self):
        base = {"circuit": "f" * 64, "engine_version": 2, "triad": {"vdd": 0.8}}
        key = SweepResultStore.entry_key(base)
        assert key != SweepResultStore.entry_key({**base, "engine_version": 3})
        assert key != SweepResultStore.entry_key({**base, "circuit": "0" * 64})
        assert key != SweepResultStore.entry_key({**base, "triad": {"vdd": 0.7}})

    def test_key_distinguishes_close_floats(self):
        a = SweepResultStore.entry_key({"tclk": 2.8e-10})
        b = SweepResultStore.entry_key({"tclk": 2.8000000001e-10})
        assert a != b

    def test_keys_do_not_depend_on_the_container_version(self):
        # STORE_VERSION names the on-disk layout only; keys name results.
        key = SweepResultStore.entry_key({"n": 1})
        assert key == SweepResultStore.entry_key({"n": 1})
        payload = {"n": 1, "store_format": store_module.STORE_FORMAT_VERSION}
        import hashlib

        expected = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        assert key == expected


class TestSweepResultStore:
    def test_round_trip(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": 1})
        assert store.get(key) is None
        store.put(key, {"ber": 0.25, "bitwise_error": [0.0, 0.5]})
        fetched = SweepResultStore(tmp_path).get(key)
        assert fetched == {"ber": 0.25, "bitwise_error": [0.0, 0.5]}

    def test_binary_array_fields_round_trip_byte_identically(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "arrays"})
        words = np.arange(500, dtype=np.int64)
        samples = np.random.default_rng(1).random(64)
        payload = {
            "summary": {"ber": 0.5},
            "latched_words": pack_int64_array(words),
            "ber_samples": pack_float64_array(samples),
        }
        store.put(key, payload)
        fetched = SweepResultStore(tmp_path).get(key)
        # Warm reads hand the array fields back as the same raw bytes --
        # never re-encoded to base64 -- and the codec decodes them bit-exactly.
        assert isinstance(fetched["latched_words"], bytes)
        assert np.array_equal(decode_int64_array(fetched["latched_words"]), words)
        assert np.array_equal(
            decode_float64_array(fetched["ber_samples"]), samples
        )
        # The payload is byte-identical to the input: warm entries compare
        # equal to fresh computations.
        assert fetched == payload

    def test_non_canonical_base64_field_survives_verbatim(self, tmp_path):
        # A blob-eligible field holding text rather than bytes stays in the
        # JSON meta as the literal string, never rewritten through a decode.
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "odd"})
        payload = {"latched_words": "not base64!!", "energy_samples": 12.5}
        store.put(key, payload)
        assert SweepResultStore(tmp_path).get(key) == payload

    def test_missing_directory_reads_empty(self, tmp_path):
        store = SweepResultStore(tmp_path / "does-not-exist")
        assert len(store) == 0
        assert store.get("ab" + "0" * 62) is None

    def test_corrupted_record_is_dropped_and_recomputed(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": 2})
        store.put(key, {"ber": 0.5})
        _corrupt_record(store, key)
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.corrupt == 1
        # The entry can be rewritten and read again afterwards.
        fresh.put(key, {"ber": 0.5})
        assert fresh.get(key) == {"ber": 0.5}

    def test_record_under_wrong_key_is_rejected(self, tmp_path):
        # Forge an index line that points a different key at a valid record:
        # the record embeds its own key, so the lookup is a corruption, not
        # a hit.
        store = SweepResultStore(tmp_path)
        key_a = store.entry_key({"n": "a"})
        key_b = store.entry_key({"n": "b"})
        store.put(key_a, {"ber": 0.5})
        (line,) = _index_lines(store)
        idx = store.root / PACKS_DIR / (line["segment"] + ".idx")
        forged = dict(line)
        forged.pop("segment")
        forged["k"] = key_b
        with open(idx, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(forged, sort_keys=True) + "\n")
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(key_b) is None
        assert fresh.stats.corrupt == 1
        assert fresh.get(key_a) == {"ber": 0.5}

    def test_clear_and_len(self, tmp_path):
        store = SweepResultStore(tmp_path)
        for n in range(5):
            store.put(store.entry_key({"n": n}), {"n": n})
        assert len(store) == 5
        assert store.clear() == 5
        assert len(store) == 0

    def test_stats_count_hits_and_misses(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": 3})
        store.get(key)
        store.put(key, {"v": 1})
        store.get(key)
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.stores == 1

    def test_entries_live_in_pack_segments(self, tmp_path):
        store = SweepResultStore(tmp_path)
        for n in range(3):
            store.put(store.entry_key({"n": n}), {"n": n})
        packs = _pack_files(store)
        assert len(packs) == 1  # one writer = one segment
        assert packs[0].read_bytes().startswith(b"RPK2")
        # No per-entry JSON files anywhere.
        assert not list(store.root.glob("*/*.json"))
        marker = json.loads((store.root / FORMAT_FILE).read_text(encoding="utf-8"))
        assert marker == {"store_version": STORE_VERSION}

    def test_segments_rotate_at_the_size_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "MAX_SEGMENT_BYTES", 4096)
        store = SweepResultStore(tmp_path)
        keys = [store.entry_key({"n": n}) for n in range(8)]
        for key in keys:
            store.put(key, {"pad": "x" * 1024})
        assert len(_pack_files(store)) > 1
        fresh = SweepResultStore(tmp_path)
        assert all(fresh.get(key) == {"pad": "x" * 1024} for key in keys)

    def test_snapshot_and_entry_keys(self, tmp_path):
        store = SweepResultStore(tmp_path)
        keys = sorted(store.entry_key({"n": n}) for n in range(3))
        for n, key in enumerate(sorted(keys)):
            store.put(key, {"n": n})
        assert sorted(store.snapshot()) == keys
        snapshot = store.snapshot()
        assert set(snapshot) == set(keys)
        for text in snapshot.values():
            json.loads(text)

    def test_unwritable_root_degrades_to_uncached(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        store = SweepResultStore(blocker / "sub")
        key = store.entry_key({"n": 5})
        store.put(key, {"v": 1})  # must not raise
        assert store.get(key) is None

    def test_default_store_honours_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        store = SweepResultStore.default()
        assert store.root == tmp_path / "env-cache"


class _TickingClock:
    """Deterministic, strictly increasing stand-in for time.time()."""

    def __init__(self):
        self.now = 1_000_000.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def ticking_clock(monkeypatch):
    clock = _TickingClock()
    monkeypatch.setattr(obs_clock, "wall_time", clock)
    return clock


class TestDiskStatsAndPrune:
    def _fill(self, store, count, payload_size=0):
        for index in range(count):
            key = SweepResultStore.entry_key({"index": index})
            store.put(key, {"index": index, "pad": "x" * payload_size})

    def test_disk_stats_empty_store(self, tmp_path):
        stats = SweepResultStore(tmp_path / "absent").disk_stats()
        assert stats.entries == 0
        assert stats.total_bytes == 0
        assert stats.oldest_mtime is None and stats.newest_mtime is None

    def test_disk_stats_counts_entries_and_bytes(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 5)
        stats = store.disk_stats()
        assert stats.entries == 5 == len(store)
        assert stats.total_bytes > 0
        assert stats.oldest_mtime is not None
        assert stats.newest_mtime >= stats.oldest_mtime

    def test_disk_stats_is_o_index_not_o_entries(self, tmp_path, monkeypatch):
        """10k-entry synthetic store: no per-entry filesystem calls."""
        store = SweepResultStore(tmp_path)
        count = 10_000
        for index in range(count):
            store.put(
                SweepResultStore.entry_key({"index": index}), {"index": index}
            )
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == count  # loads the index

        import os as os_module

        calls = {"stat": 0}
        real_stat = os_module.stat

        def counting_stat(*args, **kwargs):
            calls["stat"] += 1
            return real_stat(*args, **kwargs)

        monkeypatch.setattr(os_module, "stat", counting_stat)
        stats = fresh.disk_stats()
        monkeypatch.undo()
        assert stats.entries == count
        assert stats.total_bytes > 0
        # O(segments + directory listings), nowhere near O(entries).
        assert calls["stat"] < 100

    def test_prune_max_entries_keeps_newest(self, tmp_path, ticking_clock):
        store = SweepResultStore(tmp_path)
        keys = []
        for index in range(4):
            key = SweepResultStore.entry_key({"index": index})
            store.put(key, {"index": index})
            keys.append(key)
        removed = store.prune(max_entries=2)
        assert removed == 2
        assert store.get(keys[0]) is None and store.get(keys[1]) is None
        assert store.get(keys[2]) is not None and store.get(keys[3]) is not None
        # The survivors also survive a fresh index load.
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(keys[2]) is not None and fresh.get(keys[3]) is not None
        assert len(fresh) == 2

    def test_prune_max_bytes(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 6, payload_size=100)
        total = store.disk_stats().total_bytes
        store.prune(max_bytes=total // 2)
        assert store.disk_stats().total_bytes <= total // 2
        assert store.disk_stats().entries > 0

    def test_prune_reclaims_pack_bytes_on_disk(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 6, payload_size=2000)
        before = sum(path.stat().st_size for path in _pack_files(store))
        store.prune(max_entries=2)
        after = sum(path.stat().st_size for path in _pack_files(store))
        assert after < before / 2

    def test_prune_without_limits_is_a_no_op(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 3)
        assert store.prune() == 0
        assert store.disk_stats().entries == 3

    def test_prune_to_zero_clears_everything(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 3)
        assert store.prune(max_entries=0) == 3
        assert store.disk_stats().entries == 0
        assert not _pack_files(store)

    def test_prune_rejects_negative_limits(self, tmp_path):
        store = SweepResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.prune(max_entries=-1)
        with pytest.raises(ValueError):
            store.prune(max_bytes=-1)

    def test_prune_empty_store_is_a_no_op(self, tmp_path):
        store = SweepResultStore(tmp_path / "never-written")
        assert store.prune(max_entries=5) == 0
        assert store.prune(max_bytes=1) == 0
        assert store.prune(max_entries=0, max_bytes=0) == 0
        assert not (tmp_path / "never-written").exists()

    def test_prune_max_bytes_smaller_than_one_entry_clears_everything(
        self, tmp_path
    ):
        store = SweepResultStore(tmp_path)
        self._fill(store, 3, payload_size=50)
        removed = store.prune(max_bytes=1)
        assert removed == 3
        assert store.disk_stats().entries == 0
        assert store.disk_stats().total_bytes == 0

    def test_prune_max_bytes_zero_clears_everything(self, tmp_path):
        store = SweepResultStore(tmp_path)
        self._fill(store, 4)
        assert store.prune(max_bytes=0) == 4
        assert store.disk_stats().entries == 0


class TestQuarantine:
    def test_corrupt_record_moves_aside_instead_of_vanishing(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "q1"})
        store.put(key, {"ber": 0.5})
        line = _corrupt_record(store, key)
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(key) is None
        quarantine = store.root / QUARANTINE_DIR
        (moved,) = sorted(quarantine.glob(f"*{QUARANTINE_SUFFIX}"))
        # The quarantined file preserves the damaged record bytes verbatim.
        assert moved.stat().st_size == line["l"]
        assert fresh.quarantined_count() == 1

    def test_quarantined_entries_are_invisible_to_lookups_and_stats(
        self, tmp_path
    ):
        store = SweepResultStore(tmp_path)
        good = store.entry_key({"n": "good"})
        bad = store.entry_key({"n": "bad"})
        store.put(good, {"v": 1})
        store.put(bad, {"v": 2})
        _corrupt_record(store, bad)
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(bad) is None  # quarantines
        assert len(fresh) == 1
        stats = fresh.disk_stats()
        assert stats.entries == 1
        assert stats.quarantined == 1
        assert fresh.get(good) == {"v": 1}

    def test_quarantine_is_durable_across_sessions(self, tmp_path):
        # The drop is recorded as an index tombstone: a later session
        # misses without re-detecting (or re-quarantining) the damage.
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "q3"})
        store.put(key, {"v": 1})
        _corrupt_record(store, key)
        first = SweepResultStore(tmp_path)
        assert first.get(key) is None
        assert first.stats.corrupt == 1
        second = SweepResultStore(tmp_path)
        assert second.get(key) is None
        assert second.stats.corrupt == 0
        assert second.quarantined_count() == 1

    def test_quarantined_entry_can_be_rewritten(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "q2"})
        store.put(key, {"v": 1})
        _corrupt_record(store, key)
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(key) is None
        fresh.put(key, {"v": 2})
        assert fresh.get(key) == {"v": 2}
        assert SweepResultStore(tmp_path).get(key) == {"v": 2}


class TestVerify:
    def test_clean_store_verifies_clean(self, tmp_path):
        store = SweepResultStore(tmp_path)
        for n in range(4):
            store.put(store.entry_key({"n": n}), {"n": n})
        report = store.verify()
        assert report.scanned == 4
        assert report.valid == 4
        assert report.quarantined == 0
        assert report.io_errors == 0

    def test_missing_directory_verifies_empty(self, tmp_path):
        report = SweepResultStore(tmp_path / "never-written").verify()
        assert report.scanned == 0
        assert report.valid == 0

    def test_corrupt_records_are_quarantined_by_the_pass(self, tmp_path):
        store = SweepResultStore(tmp_path)
        keys = [store.entry_key({"n": n}) for n in range(3)]
        for key in keys:
            store.put(key, {"k": key[:4]})
        _corrupt_record(store, keys[1])
        fresh = SweepResultStore(tmp_path)
        report = fresh.verify()
        assert report.scanned == 3
        assert report.valid == 2
        assert report.quarantined == 1
        assert fresh.quarantined_count() == 1
        # The pass leaves the store usable: the survivors still read back.
        assert fresh.get(keys[0]) is not None
        assert fresh.get(keys[1]) is None

    def test_record_under_wrong_key_is_corrupt(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key_a = store.entry_key({"n": "a"})
        key_b = store.entry_key({"n": "b"})
        store.put(key_a, {"v": 1})
        (line,) = _index_lines(store)
        idx = store.root / PACKS_DIR / (line["segment"] + ".idx")
        forged = dict(line)
        forged.pop("segment")
        forged["k"] = key_b
        with open(idx, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(forged, sort_keys=True) + "\n")
        report = SweepResultStore(tmp_path).verify()
        assert report.valid == 1
        assert report.quarantined == 1

    def test_unreadable_segment_counts_io_errors(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "dir"})
        store.put(key, {"v": 1})
        (pack,) = _pack_files(store)
        # A directory where the pack should be: read_bytes raises
        # IsADirectoryError (an OSError that is not FileNotFoundError),
        # which works even when the tests run as root and chmod 000 is
        # ineffective.
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 1  # index loads fine
        pack.unlink()
        pack.mkdir()
        report = fresh.verify()
        assert report.scanned == 1
        assert report.io_errors == 1
        assert fresh.stats.io_errors == 1


class TestIoErrorObservability:
    def test_unwritable_put_counts_an_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        store = SweepResultStore(blocker / "sub")
        store.put(store.entry_key({"n": 1}), {"v": 1})
        assert store.stats.io_errors == 1
        assert store.stats.stores == 0

    def test_unreadable_segment_get_is_a_counted_miss(self, tmp_path):
        store = SweepResultStore(tmp_path)
        key = store.entry_key({"n": "dir"})
        store.put(key, {"v": 1})
        (pack,) = _pack_files(store)
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 1
        pack.unlink()
        pack.mkdir()
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1
        assert fresh.stats.io_errors == 1

    def test_plain_miss_is_not_an_io_error(self, tmp_path):
        store = SweepResultStore(tmp_path)
        assert store.get(store.entry_key({"n": 9})) is None
        assert store.stats.misses == 1
        assert store.stats.io_errors == 0


class TestCrashConsistency:
    """The append protocol survives crashes at every point."""

    def _fill(self, store, count):
        keys = [store.entry_key({"n": n}) for n in range(count)]
        for n, key in enumerate(keys):
            store.put(key, {"n": n})
        return keys

    def test_records_missing_index_lines_are_recovered(self, tmp_path):
        # Crash between the pack flush and the index flush: the tail scan
        # finds the orphaned records on the next open.
        store = SweepResultStore(tmp_path)
        keys = self._fill(store, 5)
        (idx,) = _idx_files(store)
        lines = idx.read_bytes().splitlines(keepends=True)
        idx.write_bytes(b"".join(lines[:2]))
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 5
        assert all(fresh.get(key) == {"n": n} for n, key in enumerate(keys))

    def test_verify_makes_tail_recovery_durable(self, tmp_path):
        store = SweepResultStore(tmp_path)
        keys = self._fill(store, 4)
        (idx,) = _idx_files(store)
        lines = idx.read_bytes().splitlines(keepends=True)
        idx.write_bytes(b"".join(lines[:1]))
        fresh = SweepResultStore(tmp_path)
        report = fresh.verify()
        assert report.valid == 4
        # The index file regained the missing lines: a third session loads
        # everything without scanning the pack tail.
        assert len(idx.read_bytes().splitlines()) == 4
        third = SweepResultStore(tmp_path)
        assert all(third.get(key) is not None for key in keys)

    def test_torn_trailing_record_is_ignored(self, tmp_path):
        # Crash mid-append: the partial record fails its CRC and the store
        # carries on with every complete entry.
        store = SweepResultStore(tmp_path)
        keys = self._fill(store, 3)
        (pack,) = _pack_files(store)
        data = pack.read_bytes()
        pack.write_bytes(data + data[: len(data) // 3])
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 3
        assert all(fresh.get(key) is not None for key in keys)
        assert fresh.verify().valid == 3

    def test_partial_index_line_is_left_for_the_writer(self, tmp_path):
        store = SweepResultStore(tmp_path)
        keys = self._fill(store, 2)
        (idx,) = _idx_files(store)
        with open(idx, "ab") as handle:
            handle.write(b'{"k": "incomplete')  # no newline: still in flight
        fresh = SweepResultStore(tmp_path)
        assert len(fresh) == 2
        assert all(fresh.get(key) is not None for key in keys)


class TestConcurrentSessions:
    """Stores on the same root owned by different sessions/processes."""

    def test_second_session_sees_first_sessions_appends(self, tmp_path):
        reader = SweepResultStore(tmp_path)
        assert len(reader) == 0  # index loaded while empty
        writer = SweepResultStore(tmp_path)
        key = writer.entry_key({"n": 1})
        writer.put(key, {"v": 1})
        # The reader refreshes its index and finds the foreign append.
        assert reader.get(key) == {"v": 1}

    def test_sessions_never_share_a_write_segment(self, tmp_path):
        a = SweepResultStore(tmp_path)
        b = SweepResultStore(tmp_path)
        a.put(a.entry_key({"s": "a"}), {"v": 1})
        b.put(b.entry_key({"s": "b"}), {"v": 2})
        assert len(_pack_files(a)) == 2

    def test_get_tolerates_concurrent_clear(self, tmp_path):
        writer = SweepResultStore(tmp_path)
        key = writer.entry_key({"n": 1})
        writer.put(key, {"v": 1})
        reader = SweepResultStore(tmp_path)
        assert len(reader) == 1
        writer.clear()
        # The segment vanished under the reader: a plain miss, not an error.
        assert reader.get(key) is None
        assert reader.stats.io_errors == 0

    def test_index_reload_after_foreign_rewrite(self, tmp_path, ticking_clock):
        writer = SweepResultStore(tmp_path)
        keys = [writer.entry_key({"n": n}) for n in range(4)]
        for n, key in enumerate(keys):
            writer.put(key, {"n": n})
        reader = SweepResultStore(tmp_path)
        assert len(reader) == 4
        # Another session compacts the segment (prune): the reader notices
        # the shrunken index file and rebuilds its view from scratch.
        other = SweepResultStore(tmp_path)
        assert other.prune(max_entries=2) == 2
        assert len(reader) == 2
        assert reader.get(keys[3]) == {"n": 3}
        assert reader.get(keys[0]) is None
        assert reader.stats.corrupt == 0


class TestLeftoverV1Root:
    """A root still holding v1 per-entry JSON files opens as a cold store.

    Nothing reads, counts, prunes or deletes those files: they are inert
    bytes until their owner deletes the two-hex directories.
    """

    def _seed_v1_files(self, root, count):
        """Write ``count`` entries the way the v1 layout laid them out."""
        keys = []
        for n in range(count):
            key = SweepResultStore.entry_key({"n": n})
            document = encode_blobs(
                {"n": n, "latched_words": pack_int64_array(np.arange(n + 4))}
            )
            document["key"] = key
            path = root / key[:2] / f"{key}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(document, sort_keys=True, separators=(",", ":")),
                encoding="utf-8",
            )
            keys.append(key)
        return keys

    def _v1_bytes(self, root):
        return {
            path.relative_to(root): path.read_bytes()
            for path in sorted(root.glob("*/*.json"))
        }

    def test_v1_entries_read_as_misses(self, tmp_path):
        keys = self._seed_v1_files(tmp_path, 3)
        store = SweepResultStore(tmp_path)
        assert all(store.get(key) is None for key in keys)
        assert store.get_many(keys) == {}
        assert store.stats.hits == 0
        assert store.stats.misses == 6
        assert store.stats.corrupt == 0
        assert len(store) == 0
        assert store.snapshot() == {}

    def test_disk_stats_count_only_pack_entries(self, tmp_path):
        self._seed_v1_files(tmp_path, 3)
        store = SweepResultStore(tmp_path)
        empty = store.disk_stats()
        assert (empty.entries, empty.total_bytes) == (0, 0)
        assert empty.oldest_mtime is None
        key = store.entry_key({"n": "new"})
        store.put(key, {"v": 1})
        (pack,) = _pack_files(store)
        stats = SweepResultStore(tmp_path).disk_stats()
        assert stats.entries == 1
        assert stats.total_bytes == pack.stat().st_size

    def test_put_and_get_work_beside_v1_files(self, tmp_path):
        keys = self._seed_v1_files(tmp_path, 2)
        store = SweepResultStore(tmp_path)
        store.put(keys[0], {"n": "fresh"})
        fresh = SweepResultStore(tmp_path)
        assert fresh.get(keys[0]) == {"n": "fresh"}
        assert fresh.get(keys[1]) is None
        assert sorted(fresh.snapshot()) == [keys[0]]
        assert fresh.verify().scanned == 1

    def test_prune_clear_and_verify_leave_v1_files_untouched(
        self, tmp_path, ticking_clock
    ):
        self._seed_v1_files(tmp_path, 3)
        before = self._v1_bytes(tmp_path)
        assert len(before) == 3
        store = SweepResultStore(tmp_path)
        for n in range(3):
            store.put(store.entry_key({"pack": n}), {"pack": n})
        assert store.verify().scanned == 3
        assert store.prune(max_entries=1) == 2
        assert self._v1_bytes(tmp_path) == before
        assert store.clear() == 1
        assert self._v1_bytes(tmp_path) == before
        assert store.quarantined_count() == 0

    def test_first_put_writes_the_format_marker_beside_v1_files(self, tmp_path):
        self._seed_v1_files(tmp_path, 2)
        before = self._v1_bytes(tmp_path)
        assert not (tmp_path / FORMAT_FILE).exists()
        store = SweepResultStore(tmp_path)
        store.put(store.entry_key({"n": "new"}), {"v": 1})
        marker = json.loads((tmp_path / FORMAT_FILE).read_text(encoding="utf-8"))
        assert marker == {"store_version": STORE_VERSION}
        assert self._v1_bytes(tmp_path) == before
