"""Append-only, checksummed, fsync'd write-ahead logs and snapshots.

Each service node owns one WAL (``log.jsonl``) and one snapshot slot
(``snapshot.json``).  The log is the node's durable truth: every record
is one JSON line ``{"c": <crc32>, "r": <record>}`` where the checksum
covers the record's canonical JSON form.  Durability is per pass of the
node's run loop, not per record: a pass appends its records
(:meth:`WriteAheadLog.append`), makes them durable with one
:meth:`WriteAheadLog.sync`, and only then lets anything they imply be
seen (acknowledgements, protocol messages, client replies; the list is
in :mod:`repro.service.node`).  So an acknowledged message, an
acknowledged submission and a reported decision are durable by
construction, at one fsync per pass.

Record vocabulary (``repro.wal v1``):

* ``init`` — the node's protocol configuration (pid, n, t, K, vote,
  tape seed, program variant);
* ``step`` — one state-machine step: the batch of delivered envelopes
  ``[sender, incarnation, seq, [payloads...]]`` (empty for idle ticks —
  idle ticks advance the protocol clock, so replay must reproduce
  them; decided nodes stop stepping on idle ticks, keeping the log
  bounded);
* ``vote`` / ``coins`` / ``round`` — observability records derived from
  traffic; no longer written (the log holds replay inputs, and replay
  derives these from ``step`` records), still accepted and skipped so
  older WAL directories recover unchanged;
* ``decision`` — the decided value with its origin (``process`` for a
  locally decided value, ``transfer`` for one adopted from a peer's
  state transfer);
* ``recover`` — appended each time the node restarts and replays,
  carrying the new incarnation number;
* ``submit`` — the transaction was released to the coordinator (TCP
  service; replay resumes a submitted run without waiting again);
* ``compact`` — the first record of a freshly compacted log, carrying
  the snapshot's ``taken_at_step``; it marks the log as *newer* than
  the snapshot (see below) and is skipped by replay.

**Torn tails.**  A SIGKILL can land mid-``write``; the reader treats any
trailing undecodable or checksum-failing line as a torn tail: it returns
the valid prefix and flags the truncation, and opening the log for
append first truncates the store back to that prefix.  The writer emits
ASCII only, so a line holding anything else (bytes that are not even
UTF-8 included) is invalid like any other torn line, and the file store
truncates by byte offset, never by decoding the tail.  A valid line
*after* an invalid one is structural corruption and raises
:class:`~repro.errors.WalError` — that is not a crash artifact.

**Snapshots** compact the replay inputs: the generator-based state
machine cannot be pickled mid-run, so a snapshot is the canonical record
prefix (init + steps + decisions) rewritten into one atomically-replaced
checksummed file, plus a digest of the replayed state for integrity
checking.  After a snapshot the log is truncated; recovery is
``replay(snapshot records + log suffix)``.

Compaction is **two** durable operations — replace ``snapshot.json``,
then truncate ``log.jsonl`` — and a kill can land between them, leaving
a log whose every record is already inside the snapshot (nothing new
can be appended in the window; compaction is synchronous).  The ``compact``
marker record disambiguates: truncation immediately re-seeds the log
with a marker carrying the snapshot's ``taken_at_step``, so a log whose
head is *not* the current snapshot's marker is the stale pre-compaction
log and :func:`split_log_suffix` discards it instead of replaying its
records twice (or tripping over its duplicate ``init``).  Recovery
re-establishes the marker before appending anything
(:func:`reset_log_after_compaction`), so the invariant survives repeated
kills in the window.

**Durability scope.**  Synced appends and snapshot replacement are
fsync'd, and :class:`FileWalStore` additionally fsyncs the WAL
*directory* after creating ``log.jsonl`` and after the snapshot rename,
so the guarantee covers whole-machine crashes, not just process kills,
on POSIX filesystems with standard ordering semantics.  Records a
compaction appends (``close``) need no sync of their own: the snapshot
that replaces the log contains them.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.errors import WalError
from repro.telemetry import registry as telemetry
from repro.telemetry.log import get_logger

_log = get_logger("service.wal")

#: Schema tag of the log record stream.
WAL_SCHEMA = "repro.wal v1"
#: Schema tag of the snapshot document.
SNAPSHOT_SCHEMA = "repro.wal-snapshot v1"

#: Record types the reader accepts.
RECORD_TYPES = (
    "init",
    "step",
    "vote",
    "coins",
    "round",
    "decision",
    "recover",
    "submit",
    "compact",
    "close",
)


def canonical(record: dict[str, Any]) -> str:
    """The canonical JSON text of a record (or snapshot document): what
    its checksum covers, and the form a snapshot stores records in."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_record(record: dict[str, Any]) -> str:
    """One checksummed JSONL line for ``record`` (newline included)."""
    body = canonical(record)
    # The sorted-key form of ``{"c": crc, "r": record}``, around the body
    # already serialised for the checksum.
    return '{"c":%d,"r":%s}\n' % (zlib.crc32(body.encode("utf-8")), body)


def record_body(line: str) -> str:
    """The canonical record text inside one :func:`encode_record` line."""
    return line[line.index('"r":') + 4 : -2]


def decode_line(line: str) -> dict[str, Any] | None:
    """The record in one line, or ``None`` if the line is invalid.

    Invalid covers truncated JSON, a missing checksum, a checksum
    mismatch, an unknown record type and any non-ASCII character (the
    writer's JSON escapes everything else) — everything a torn write can
    produce.
    """
    if not line.isascii():
        return None
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict) or "c" not in doc or "r" not in doc:
        return None
    record = doc["r"]
    if not isinstance(record, dict):
        return None
    if zlib.crc32(canonical(record).encode("utf-8")) != doc["c"]:
        return None
    if record.get("type") not in RECORD_TYPES:
        return None
    return record


# -- storage backends ---------------------------------------------------------


class WalStore:
    """Storage backend of one node's log + snapshot slot.

    Two implementations: :class:`FileWalStore` (real durability — the
    deployable service) and :class:`MemoryWalStore` (campaign trials:
    the store object survives the simulated process kill, modelling the
    disk, while the node object holding everything volatile does not).
    """

    def read_lines(self) -> list[str]:
        raise NotImplementedError

    def append_line(self, line: str) -> None:
        raise NotImplementedError

    def sync(self) -> None:
        """Flush appended lines to durable storage (fsync)."""
        raise NotImplementedError

    def truncate_lines(self, keep: int) -> None:
        """Drop everything after the first ``keep`` lines (tail repair)."""
        raise NotImplementedError

    def reset_log(self) -> None:
        """Empty the log (called after a snapshot compaction)."""
        self.truncate_lines(0)

    def write_snapshot(self, text: str) -> None:
        raise NotImplementedError

    def read_snapshot(self) -> str | None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemoryWalStore(WalStore):
    """An in-process store: a list of lines plus a snapshot slot.

    It also models the disk's write cache: lines appended since the last
    :meth:`sync` are what :meth:`power_cut` takes away.
    """

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._snapshot: str | None = None
        self._synced = 0
        self.syncs = 0

    def read_lines(self) -> list[str]:
        return list(self._lines)

    def append_line(self, line: str) -> None:
        self._lines.append(line)

    def sync(self) -> None:
        self.syncs += 1
        self._synced = len(self._lines)

    @property
    def unsynced(self) -> int:
        """Lines a power cut would lose."""
        return len(self._lines) - self._synced

    def power_cut(self) -> None:
        """Lose every line appended after the last sync: what a machine
        crash does and a process kill does not (the operating system
        keeps what was written).  The snapshot slot is replaced
        atomically and durably, so it stays."""
        del self._lines[self._synced :]

    def truncate_lines(self, keep: int) -> None:
        del self._lines[keep:]
        self._synced = len(self._lines)  # the file store fsyncs here

    def tear_tail(self, keep_bytes: int) -> None:
        """Truncate the final line mid-bytes (test/fault-injection aid)."""
        if self._lines:
            self._lines[-1] = self._lines[-1][:keep_bytes]

    def write_snapshot(self, text: str) -> None:
        self._snapshot = text

    def read_snapshot(self) -> str | None:
        return self._snapshot


class FileWalStore(WalStore):
    """The on-disk store: ``log.jsonl`` + ``snapshot.json`` in one dir."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log_path = self.directory / "log.jsonl"
        self.snapshot_path = self.directory / "snapshot.json"
        self._handle = None

    def _open(self):
        if self._handle is None or self._handle.closed:
            created = not self.log_path.exists()
            self._handle = open(self.log_path, "a", encoding="utf-8")
            if created:
                # The new directory entry must be durable too, or a
                # machine crash can lose the whole (fsync'd) log file.
                self._sync_directory()
        return self._handle

    def _sync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without O_RDONLY dirs
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without directory fsync
            pass
        finally:
            os.close(fd)

    def _read_bytes(self) -> bytes:
        return self.log_path.read_bytes() if self.log_path.exists() else b""

    def read_lines(self) -> list[str]:
        # A torn write can leave bytes that are not UTF-8; they decode to
        # U+FFFD, which no valid (ASCII) line holds.
        return [
            raw.decode("utf-8", "replace")
            for raw in self._read_bytes().splitlines()
        ]

    def append_line(self, line: str) -> None:
        handle = self._open()
        handle.write(line)
        handle.flush()

    def sync(self) -> None:
        handle = self._open()
        handle.flush()
        os.fsync(handle.fileno())

    def truncate_lines(self, keep: int) -> None:
        self.close()
        if not self.log_path.exists():
            return
        # The same line split as read_lines, so ``keep`` counts the same
        # lines; by byte offset, so an undecodable tail cannot stop it.
        lines = self._read_bytes().splitlines(keepends=True) if keep else []
        with open(self.log_path, "r+b") as f:
            f.truncate(sum(map(len, lines[:keep])))
            f.flush()
            os.fsync(f.fileno())

    def write_snapshot(self, text: str) -> None:
        # Atomic replace: the old snapshot stays valid until the new one
        # is durably on disk, so a kill mid-snapshot loses nothing.
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.snapshot_path)
        # Persist the rename itself: without a directory fsync a power
        # loss can roll the directory entry back to the old snapshot.
        self._sync_directory()

    def read_snapshot(self) -> str | None:
        if not self.snapshot_path.exists():
            return None
        return self.snapshot_path.read_text(encoding="utf-8")

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None


# -- the log ------------------------------------------------------------------


@dataclass
class WalReadResult:
    """Outcome of reading one log: the valid records and tail health."""

    records: list[dict[str, Any]] = field(default_factory=list)
    valid_lines: int = 0
    torn_tail: bool = False


def read_log(store: WalStore) -> WalReadResult:
    """Read a store's log, recovering from a torn tail.

    Raises:
        WalError: when a valid record follows an invalid line —
            mid-file corruption a crash cannot produce.
    """
    result = WalReadResult()
    lines = store.read_lines()
    bad_at: int | None = None
    for index, line in enumerate(lines):
        record = decode_line(line)
        if record is None:
            if not line.strip() and index == len(lines) - 1:
                continue  # trailing blank line, not a record
            if bad_at is None:
                bad_at = index
            continue
        if bad_at is not None:
            raise WalError(
                f"valid record at line {index + 1} after invalid line "
                f"{bad_at + 1}: mid-log corruption, not a torn tail"
            )
        result.records.append(record)
        result.valid_lines += 1
    if bad_at is not None:
        result.torn_tail = True
        _log.warning(
            "torn WAL tail: recovering from record %d, discarding %d "
            "invalid trailing line(s)",
            result.valid_lines,
            len(lines) - bad_at,
        )
        if telemetry.enabled():
            telemetry.count(
                "wal_torn_tails_total",
                help="torn WAL tails recovered on open",
            )
    return result


class WriteAheadLog:
    """Appender over a :class:`WalStore` with a configurable fsync policy.

    Appending and making durable are two calls: :meth:`append` any number
    of records, then :meth:`sync` once.  Nothing a record implies may be
    shown to anyone before the ``sync`` that follows it returns.

    Args:
        store: the storage backend.
        fsync: ``True`` makes :meth:`sync` fsync the store (the
            durability the recovery proofs assume); ``False`` leaves
            syncing to the OS — campaign trials on in-memory stores use
            this since the "disk" is process memory anyway.
    """

    def __init__(self, store: WalStore, fsync: bool = True) -> None:
        self.store = store
        self.fsync = fsync
        self.appended = 0
        #: Records appended since the last :meth:`sync`.
        self.unsynced = 0

    def open_repairing(self) -> WalReadResult:
        """Read the log and truncate any torn tail before appending."""
        result = read_log(self.store)
        if result.torn_tail:
            self.store.truncate_lines(result.valid_lines)
        return result

    def append(self, record: dict[str, Any]) -> str:
        """Write ``record`` to the store, not yet durable; returns its
        canonical text (what a snapshot stores)."""
        # Framed in one place, encode_record; the text is read back from
        # the line rather than serialised a second time.
        line = encode_record(record)
        self.store.append_line(line)
        self.appended += 1
        self.unsynced += 1
        if telemetry.enabled():
            telemetry.count(
                "wal_records_total",
                help="WAL records appended, by type",
                type=record.get("type", "unknown"),
            )
        return record_body(line)

    def sync(self) -> None:
        """Make every record appended so far durable: one store sync
        however many there are, none when there is nothing new."""
        if not self.unsynced:
            return
        self.unsynced = 0
        if self.fsync:
            started = time.perf_counter()
            self.store.sync()
            if telemetry.enabled():
                telemetry.observe(
                    "wal_fsync_seconds",
                    time.perf_counter() - started,
                    help="seconds per WAL fsync",
                )

    def append_all(self, records: Iterable[dict[str, Any]]) -> None:
        """Append ``records`` and make them durable together."""
        for record in records:
            self.append(record)
        self.sync()

    def close(self) -> None:
        self.store.close()


# -- snapshots ----------------------------------------------------------------


def compaction_marker(taken_at_step: int) -> dict[str, Any]:
    """The record that heads a freshly compacted log.

    Its ``at`` field names the snapshot it belongs to, so a reader can
    tell a post-compaction log (head = the current snapshot's marker)
    from the stale pre-compaction log a kill in the compaction window
    leaves behind (head = anything else).
    """
    return {"type": "compact", "at": taken_at_step}


def reset_log_after_compaction(store: WalStore, taken_at_step: int) -> None:
    """Truncate the log and durably re-seed it with the compaction marker.

    Called by :func:`write_snapshot` right after the snapshot replace,
    and again by recovery whenever the marker is missing — a kill
    between the replace and this truncation (or mid-marker-append)
    leaves the old log behind, and this repair is idempotent.
    """
    store.reset_log()
    store.append_line(encode_record(compaction_marker(taken_at_step)))
    store.sync()


def write_snapshot(
    store: WalStore,
    records: list[dict[str, Any] | str],
    digest: str,
    taken_at_step: int,
) -> None:
    """Compact ``records`` into the snapshot slot and truncate the log.

    ``records`` must be the node's *complete* canonical record history
    (its replay inputs), each a record or the canonical text
    :meth:`WriteAheadLog.append` returned for it; ``digest`` is the
    replayed-state digest at ``taken_at_step`` for recovery-time
    integrity checking.  The truncated log is re-seeded with the
    snapshot's compaction marker so a kill at any instant of this
    sequence is recoverable (see :func:`split_log_suffix`).
    """
    # The sorted-key form of the document and of its checksummed
    # envelope, joined from record texts that are already canonical: the
    # history is serialised once, when appended, not again per snapshot.
    body = '{"digest":%s,"records":[%s],"schema":%s,"taken_at_step":%s}' % (
        json.dumps(digest),
        ",".join(
            r if isinstance(r, str) else canonical(r) for r in records
        ),
        json.dumps(SNAPSHOT_SCHEMA),
        json.dumps(taken_at_step),
    )
    store.write_snapshot(
        '{"c":%d,"d":%s}' % (zlib.crc32(body.encode("utf-8")), body)
    )
    reset_log_after_compaction(store, taken_at_step)
    if telemetry.enabled():
        telemetry.count(
            "wal_snapshots_total", help="snapshot compactions written"
        )


def read_snapshot(store: WalStore) -> dict[str, Any] | None:
    """Load and verify the snapshot document, if one exists.

    Raises:
        WalError: on a checksum-failing or schema-mismatched snapshot —
            atomic replacement means a torn snapshot cannot exist, so
            any damage here is real corruption.
    """
    text = store.read_snapshot()
    if text is None:
        return None
    try:
        envelope = json.loads(text)
        doc = envelope["d"]
        crc = envelope["c"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise WalError("unreadable snapshot document") from exc
    if zlib.crc32(canonical(doc).encode("utf-8")) != crc:
        raise WalError("snapshot checksum mismatch")
    if doc.get("schema") != SNAPSHOT_SCHEMA:
        raise WalError(
            f"unsupported snapshot schema {doc.get('schema')!r} "
            f"(expected {SNAPSHOT_SCHEMA!r})"
        )
    return doc


def split_log_suffix(
    snapshot: dict[str, Any], log_records: list[dict[str, Any]]
) -> tuple[list[dict[str, Any]], bool]:
    """``(suffix, has_marker)``: the log records that extend ``snapshot``.

    A log whose head is the snapshot's own compaction marker genuinely
    continues it; the marker is stripped and the rest returned.  Any
    other non-empty log is the *stale* pre-compaction log left by a kill
    between the snapshot replace and the log truncation — every record
    in it is already inside the snapshot (compaction is synchronous, so
    nothing new lands in the window) — and is discarded.  ``has_marker``
    is ``False`` for both the stale and the empty-log case; recovery
    must then call :func:`reset_log_after_compaction` before appending.
    """
    if log_records:
        head = log_records[0]
        if (
            head.get("type") == "compact"
            and head.get("at") == snapshot["taken_at_step"]
        ):
            return log_records[1:], True
    return [], False


def durable_records(store: WalStore) -> WalReadResult:
    """A node's full replay input: snapshot records + log suffix."""
    snapshot = read_snapshot(store)
    log = read_log(store)
    if snapshot is None:
        return log
    suffix, _has_marker = split_log_suffix(snapshot, log.records)
    return WalReadResult(
        records=list(snapshot["records"]) + suffix,
        valid_lines=log.valid_lines,
        torn_tail=log.torn_tail,
    )
