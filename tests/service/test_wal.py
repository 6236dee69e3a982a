"""Unit tests for the write-ahead log: checksums, torn tails, snapshots."""

import json
import zlib

import pytest

from repro.errors import WalError
from repro.service.wal import (
    FileWalStore,
    MemoryWalStore,
    WriteAheadLog,
    canonical,
    decode_line,
    durable_records,
    encode_record,
    read_log,
    read_snapshot,
    record_body,
    reset_log_after_compaction,
    split_log_suffix,
    write_snapshot,
)


def records(count):
    return [{"type": "step", "batch": [], "i": i} for i in range(count)]


class TestRecordCodec:
    def test_roundtrip(self):
        record = {"type": "vote", "value": 1}
        assert decode_line(encode_record(record)) == record

    def test_tampered_payload_rejected(self):
        line = encode_record({"type": "vote", "value": 1})
        tampered = line.replace('"value":1', '"value":0')
        assert tampered != line
        assert decode_line(tampered) is None

    def test_partial_line_rejected(self):
        line = encode_record({"type": "step", "batch": []})
        for cut in (1, len(line) // 2, len(line) - 2):
            assert decode_line(line[:cut]) is None


class TestReadLog:
    def test_reads_valid_records_in_order(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store, fsync=False)
        wal.append_all(records(3))
        result = read_log(store)
        assert [r["i"] for r in result.records] == [0, 1, 2]
        assert result.valid_lines == 3
        assert not result.torn_tail

    def test_torn_tail_recovers_valid_prefix(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store, fsync=False)
        wal.append_all(records(3))
        store.tear_tail(keep_bytes=10)
        result = read_log(store)
        assert [r["i"] for r in result.records] == [0, 1]
        assert result.torn_tail

    def test_valid_record_after_invalid_line_is_corruption(self):
        store = MemoryWalStore()
        store.append_line("garbage")
        store.append_line(encode_record({"type": "step", "batch": []}))
        with pytest.raises(WalError):
            read_log(store)

    def test_open_repairing_truncates_torn_tail(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store, fsync=False)
        wal.append_all(records(2))
        store.append_line('{"c": 0, "r": {"type"')  # partial append
        result = wal.open_repairing()
        assert result.torn_tail
        wal.append({"type": "step", "batch": [], "i": 2})
        clean = read_log(store)
        assert not clean.torn_tail
        assert [r["i"] for r in clean.records] == [0, 1, 2]


class TestFileStore:
    def test_appends_survive_reopen(self, tmp_path):
        store = FileWalStore(tmp_path / "node0")
        WriteAheadLog(store).append_all(records(4))
        store.close()
        again = FileWalStore(tmp_path / "node0")
        assert [r["i"] for r in read_log(again).records] == [0, 1, 2, 3]
        again.close()

    def test_torn_tail_repair_persists(self, tmp_path):
        store = FileWalStore(tmp_path / "node0")
        WriteAheadLog(store).append_all(records(2))
        with open(store.log_path, "a") as f:
            f.write(encode_record({"type": "step", "batch": []})[:11])
        store.close()

        damaged = FileWalStore(tmp_path / "node0")
        assert WriteAheadLog(damaged).open_repairing().torn_tail
        damaged.close()
        clean = FileWalStore(tmp_path / "node0")
        result = read_log(clean)
        clean.close()
        assert not result.torn_tail
        assert result.valid_lines == 2

    def test_snapshot_roundtrip(self, tmp_path):
        store = FileWalStore(tmp_path / "node0")
        write_snapshot(store, records(5), digest="d" * 64, taken_at_step=5)
        doc = read_snapshot(store)
        assert doc["taken_at_step"] == 5
        assert len(doc["records"]) == 5
        # Compaction truncates the log down to its marker record.
        heads = [decode_line(line) for line in store.read_lines()]
        assert heads == [{"type": "compact", "at": 5}]
        store.close()


class TestSnapshots:
    def test_corrupted_snapshot_rejected(self):
        store = MemoryWalStore()
        write_snapshot(store, records(2), digest="x", taken_at_step=2)
        envelope = json.loads(store.read_snapshot())
        envelope["d"]["taken_at_step"] = 99
        store.write_snapshot(json.dumps(envelope))
        with pytest.raises(WalError):
            read_snapshot(store)

    def test_missing_snapshot_is_none(self):
        assert read_snapshot(MemoryWalStore()) is None

    def test_durable_records_is_snapshot_plus_suffix(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store, fsync=False)
        wal.append_all(records(3))
        write_snapshot(
            store, read_log(store).records, digest="x", taken_at_step=3
        )
        wal.append({"type": "step", "batch": [], "i": 3})
        combined = durable_records(store)
        assert [r["i"] for r in combined.records] == [0, 1, 2, 3]


def _undo_truncation(store, pre_lines):
    """Reconstruct the disk a SIGKILL inside the compaction window leaves:
    the snapshot is durably replaced, but the log was never truncated."""
    store.truncate_lines(0)
    for line in pre_lines:
        store.append_line(line)


class TestCompactionWindow:
    def test_split_log_suffix_strips_matching_marker(self):
        snapshot = {"taken_at_step": 5}
        tail = [{"type": "compact", "at": 5}, {"type": "recover"}]
        suffix, has_marker = split_log_suffix(snapshot, tail)
        assert has_marker
        assert suffix == [{"type": "recover"}]
        suffix, has_marker = split_log_suffix(snapshot, [])
        assert not has_marker
        assert suffix == []

    def test_stale_precompaction_log_is_discarded(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store, fsync=False)
        wal.append_all(records(3))
        pre_lines = store.read_lines()
        write_snapshot(
            store, read_log(store).records, digest="x", taken_at_step=3
        )
        _undo_truncation(store, pre_lines)
        # Every stale log record is already inside the snapshot; nothing
        # may be replayed twice.
        combined = durable_records(store)
        assert [r["i"] for r in combined.records] == [0, 1, 2]

    def test_stale_marker_of_previous_snapshot_is_discarded(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store, fsync=False)
        wal.append_all(records(3))
        write_snapshot(
            store, read_log(store).records, digest="x", taken_at_step=3
        )
        wal.append({"type": "step", "batch": [], "i": 3})
        pre_lines = store.read_lines()  # [marker@3, step 3]
        write_snapshot(store, records(4), digest="x", taken_at_step=4)
        _undo_truncation(store, pre_lines)
        combined = durable_records(store)
        assert [r["i"] for r in combined.records] == [0, 1, 2, 3]

    def test_repair_reestablishes_marker(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store, fsync=False)
        wal.append_all(records(2))
        pre_lines = store.read_lines()
        write_snapshot(
            store, read_log(store).records, digest="x", taken_at_step=2
        )
        _undo_truncation(store, pre_lines)
        reset_log_after_compaction(store, taken_at_step=2)
        heads = [decode_line(line) for line in store.read_lines()]
        assert heads == [{"type": "compact", "at": 2}]
        # Post-repair appends land after the marker and survive reads.
        wal.append({"type": "step", "batch": [], "i": 2})
        combined = durable_records(store)
        assert [r["i"] for r in combined.records] == [0, 1, 2]

    def test_window_crash_on_file_store(self, tmp_path):
        store = FileWalStore(tmp_path / "node0")
        wal = WriteAheadLog(store)
        wal.append_all(records(3))
        pre_lines = store.read_lines()
        write_snapshot(
            store, read_log(store).records, digest="x", taken_at_step=3
        )
        _undo_truncation(store, pre_lines)
        store.close()
        again = FileWalStore(tmp_path / "node0")
        combined = durable_records(again)
        again.close()
        assert [r["i"] for r in combined.records] == [0, 1, 2]


# What the files have always held: ``json.dumps`` of the whole frame with
# sorted keys.  The writer now assembles the same bytes from record texts
# it serialised once; these pin that it is the same bytes.
AWKWARD_RECORDS = [
    {"type": "init", "config": {"pid": 0, "n": 3, "vote": 1, "variant": "commit"}},
    {"type": "step"},
    {
        "type": "step",
        "batch": [[1, 0, 3, [{"kind": "go", "coins": [1, 0, 1]}]],
                  [2, 1, 0, {"g": [[7, [{"kind": "vote", "vote": 1}]]]}]],
    },
    {"type": "decision", "value": 1, "origin": "transfer", "txn": 12},
    {"type": "step", "z": "ünï \"quoted\" \\ \n", "a": 1.5, "m": None, "b": [True, False, {}]},
    {"type": "close", "txn": 3, "value": 0, "origin": "process"},
]  # fmt: skip


def json_dumps_line(record):
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8"))
    return json.dumps({"c": crc, "r": record}, sort_keys=True, separators=(",", ":")) + "\n"


def json_dumps_snapshot(records, digest, taken_at_step):
    doc = {
        "schema": "repro.wal-snapshot v1",
        "taken_at_step": taken_at_step,
        "digest": digest,
        "records": records,
    }
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8"))
    return json.dumps({"c": crc, "d": doc}, sort_keys=True, separators=(",", ":"))


class TestByteIdentity:
    @pytest.mark.parametrize("record", AWKWARD_RECORDS)
    def test_line_equals_the_json_dumps_form(self, record):
        assert encode_record(record) == json_dumps_line(record)
        assert record_body(encode_record(record)) == canonical(record)

    def test_append_returns_the_canonical_text_it_wrote(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store)
        bodies = [wal.append(record) for record in AWKWARD_RECORDS]
        assert bodies == [canonical(record) for record in AWKWARD_RECORDS]
        assert store.read_lines() == [json_dumps_line(r) for r in AWKWARD_RECORDS]

    @pytest.mark.parametrize("as_text", [False, True, "mixed"])
    def test_snapshot_equals_the_json_dumps_form(self, as_text):
        given = [
            canonical(record)
            if as_text is True or (as_text == "mixed" and index % 2)
            else record
            for index, record in enumerate(AWKWARD_RECORDS)
        ]
        store = MemoryWalStore()
        write_snapshot(store, given, digest="ab" * 32, taken_at_step=41)
        assert store.read_snapshot() == json_dumps_snapshot(
            AWKWARD_RECORDS, "ab" * 32, 41
        )
        assert read_snapshot(store)["records"] == AWKWARD_RECORDS

    def test_empty_history_snapshot(self):
        store = MemoryWalStore()
        write_snapshot(store, [], digest="x", taken_at_step=0)
        assert store.read_snapshot() == json_dumps_snapshot([], "x", 0)


class TestAppendSyncSplit:
    def test_append_does_not_sync_and_sync_covers_every_append(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store)
        for record in records(5):
            wal.append(record)
        assert store.syncs == 0 and wal.unsynced == 5 and store.unsynced == 5
        wal.sync()
        assert store.syncs == 1 and wal.unsynced == 0 and store.unsynced == 0
        wal.sync()  # nothing new: no second fsync
        assert store.syncs == 1

    def test_fsync_off_never_touches_the_store(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store, fsync=False)
        wal.append_all(records(3))
        wal.sync()
        assert store.syncs == 0 and wal.unsynced == 0

    def test_file_store_fsyncs_only_in_sync(self, tmp_path, monkeypatch):
        calls = []
        real_sync = FileWalStore.sync
        monkeypatch.setattr(
            FileWalStore, "sync", lambda self: (calls.append(1), real_sync(self))
        )
        store = FileWalStore(tmp_path / "node0")
        wal = WriteAheadLog(store)
        for record in records(4):
            wal.append(record)
        assert calls == []
        wal.sync()
        assert calls == [1]
        store.close()
        assert [r["i"] for r in read_log(FileWalStore(tmp_path / "node0")).records] == [0, 1, 2, 3]  # fmt: skip


class TestPowerCut:
    def test_loses_exactly_what_was_appended_after_the_last_sync(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store)
        wal.append_all(records(3))
        wal.append({"type": "step", "batch": [], "i": 3})
        wal.append({"type": "step", "batch": [], "i": 4})
        store.power_cut()
        assert [r["i"] for r in read_log(store).records] == [0, 1, 2]
        store.power_cut()  # idempotent
        assert len(store.read_lines()) == 3

    def test_never_synced_log_is_lost_whole(self):
        store = MemoryWalStore()
        WriteAheadLog(store, fsync=False).append_all(records(3))
        store.power_cut()
        assert store.read_lines() == []

    def test_compaction_survives_a_cut_at_any_point_after_the_replace(self):
        store = MemoryWalStore()
        wal = WriteAheadLog(store)
        wal.append_all(records(3))
        wal.append({"type": "close", "txn": 1, "value": 1, "origin": "process"})
        history = read_log(store).records  # the close record is unsynced
        write_snapshot(store, history, digest="x", taken_at_step=3)
        wal.append({"type": "step", "batch": [], "i": 9})  # next pass, no sync
        store.power_cut()
        combined = durable_records(store)
        assert combined.records == history  # close record included
        heads = [decode_line(line) for line in store.read_lines()]
        assert heads == [{"type": "compact", "at": 3}]
