"""Versioned, checksummed on-disk checkpoints for the streaming runtime.

A shard's durable state is **two files' worth**: small *snapshot* files
holding the executor's live window state, and one append-only *output
log* holding what the executor has emitted — so a checkpoint costs the
live state plus the output since the previous one, never the stream's
history (a report that grows with the stream is written once, not once
per checkpoint).

A snapshot is one :meth:`~repro.runtime.streaming.StreamingExecutor.
snapshot_state` payload wrapped in a fixed binary container — the same
schema-versioned-header discipline as the columnar wire format's ``RPEB``
frame (:mod:`repro.events.columnar`):

====== ===== =========================================================
offset bytes field
====== ===== =========================================================
0      4     magic ``RPCP`` (snapshot) / ``RPOL`` (output-log record)
4      1     container version (:data:`VERSION`)
5      1     flags (reserved, 0)
6      2     reserved (0)
8      8     checkpoint epoch (big-endian; bumped per worker respawn)
16     8     sequence number of the last batch folded into the snapshot
24     8     payload length
32     16    BLAKE2b-128 digest (snapshot: of the payload; log record:
             of the 32 header bytes before it and the payload)
48     ...   payload (opaque snapshot pickle / output delta)
====== ===== =========================================================

Snapshot files are **atomic**: the blob is written to a temp file in the
checkpoint directory, flushed and fsynced, then ``os.replace``\\ d over
the final name.  A per-shard ``.latest`` pointer file — updated with the
same atomic dance — names the last good checkpoint; readers fall back to
a directory scan (newest valid first) when the pointer is stale or its
target corrupt, so a crash at any instant leaves either the previous
checkpoint or the new one readable, never neither.

The output log (``shardNNN.log``) is a sequence of records in the same
header layout, one per snapshot, carrying the output the executor
appended since its previous snapshot.  The write order makes it safe:
**log append -> fsync -> snapshot rename -> pointer -> prune**.  A
snapshot ``(epoch, seq)`` is *covered* by the log prefix that ends with
the record of the same ``seq``; because the record is durable before the
snapshot becomes visible, every visible snapshot is covered, and at most
the **last** record of the log can be uncovered (appended, snapshot never
renamed) or torn.  Readers take the records of ``seq <=`` the snapshot's
and ignore what follows; a writer cuts that tail off before its first
append.  A record that fails to verify *inside* the covered prefix is a
:class:`~repro.errors.CheckpointError`, never a silently shorter report.
(reprolint RL009 enforces both write shapes statically: write-temp +
fsync + rename everywhere, open-append + fsync in :func:`_append_log`
alone.)

:class:`CheckpointStore` owns one shard's files; :class:`AsyncCheckpoint
Writer` moves the fsync latency off the worker's hot path onto a single
background thread (checkpoints are ordered per shard, so one thread is
exactly the right amount of concurrency) and acks each durable write —
``(epoch, seq, nbytes)``, snapshot plus log bytes — back to the driver,
which uses the acks to trim its replay buffer.
"""

from __future__ import annotations

import hashlib
import os
import queue
import struct
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

from repro.errors import CheckpointError

__all__ = [
    "AsyncCheckpointWriter",
    "Checkpoint",
    "CheckpointStore",
    "KEEP",
    "LOG_MAGIC",
    "MAGIC",
    "TEMP_SUFFIX",
    "VERSION",
    "pack_checkpoint",
    "pack_log_record",
    "unpack_checkpoint",
]

#: Container magic, doubling as a human-readable file signature.
MAGIC = b"RPCP"
#: Magic of one output-log record (same header layout as the container).
LOG_MAGIC = b"RPOL"
#: Container format version (header layout + digest algorithm).
VERSION = 1
#: Suffix of in-progress writes; a surviving ``*.tmp`` file is always
#: garbage (the atomic rename never happened) and is safe to delete.
TEMP_SUFFIX = ".tmp"
#: File suffix of finished checkpoints.
CHECKPOINT_SUFFIX = ".ckpt"
#: File suffix of a shard's append-only output log.
LOG_SUFFIX = ".log"
#: Snapshots a shard keeps: the newest and the one before it, the
#: fallback when the newest turns out torn.
KEEP = 2

#: magic, version, flags, reserved, epoch, seq, payload length — the 32
#: header bytes in front of the digest — and the whole 48-byte header.
_TAGS = struct.Struct(">4sBBHQQQ")
_HEADER = struct.Struct(_TAGS.format + "16s")


def _digest(payload: bytes, tags: bytes = b"") -> bytes:
    # A snapshot container digests its payload alone (its file name repeats
    # epoch and seq); a log record's tags decide which snapshots it belongs
    # to, so its digest covers the 32 header bytes in front of it too.
    digest = hashlib.blake2b(tags, digest_size=16)
    digest.update(payload)
    return digest.digest()


def pack_checkpoint(epoch: int, seq: int, payload: bytes) -> bytes:
    """Wrap a snapshot payload in the versioned, checksummed container."""
    header = _HEADER.pack(MAGIC, VERSION, 0, 0, epoch, seq, len(payload), _digest(payload))
    return header + payload


def unpack_checkpoint(blob: bytes) -> "Checkpoint":
    """Parse and verify a container; raises :class:`CheckpointError`."""
    if len(blob) < _HEADER.size:
        raise CheckpointError(
            f"checkpoint truncated: {len(blob)} bytes < {_HEADER.size}-byte header"
        )
    magic, version, _flags, _reserved, epoch, seq, length, digest = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r} (want {MAGIC!r})")
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint container version {version} (want {VERSION})"
        )
    payload = blob[_HEADER.size :]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint truncated: header promises {length} payload bytes, "
            f"found {len(payload)}"
        )
    if _digest(payload) != digest:
        raise CheckpointError("checkpoint payload digest mismatch (corrupt or torn write)")
    return Checkpoint(epoch=epoch, seq=seq, payload=payload)


def pack_log_record(epoch: int, seq: int, delta: bytes) -> bytes:
    """Frame one output delta as a length-prefixed, checksummed log record."""
    tags = _TAGS.pack(LOG_MAGIC, VERSION, 0, 0, epoch, seq, len(delta))
    return tags + _digest(delta, tags) + delta


@dataclass(frozen=True)
class Checkpoint:
    """One verified checkpoint: its identity tags plus the snapshot payload."""

    #: Worker incarnation that wrote the snapshot (respawns bump it).
    epoch: int
    #: Driver-assigned sequence number of the last batch folded in.
    seq: int
    #: The opaque :meth:`StreamingExecutor.snapshot_state` payload.
    payload: bytes
    #: The output deltas the log holds up to ``seq``, one per record, in
    #: order — the second argument of :meth:`StreamingExecutor.restore_state`.
    output: tuple[bytes, ...] = ()


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    """Write-temp + fsync + rename: the crash-safe replacement of ``path``."""
    temp = path.with_name(path.name + TEMP_SUFFIX)
    with open(temp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)


def _append_log(path: Path, record: bytes) -> None:
    """Open-append + fsync: the one sanctioned in-place checkpoint write.

    Safe without a rename because nothing reads a record before the
    snapshot it belongs to is renamed in: a torn append is an uncovered
    tail, which readers ignore and the next writer cuts off.
    """
    with open(path, "ab") as handle:
        handle.write(record)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by fsyncing its directory (best-effort per FS)."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    except OSError:  # pragma: no cover - some filesystems reject dir fsync
        pass
    finally:
        os.close(descriptor)


class CheckpointStore:
    """One shard's checkpoint files inside a shared checkpoint directory.

    File names order lexicographically by ``(epoch, seq)`` thanks to the
    zero padding, so "newest" never needs header reads.  :data:`KEEP`
    bounds the snapshot footprint: after every successful write all but the
    newest ``KEEP`` snapshots of the shard are pruned.  The output log is
    never pruned — it *is* the report the run will return.

    One instance serves one writer incarnation.  A resuming one calls
    :meth:`latest` first, which remembers where the records it handed out
    end (the start of the log when there was no snapshot to restore); the
    first :meth:`write` cuts the log back to that position — the dead
    predecessor's uncovered or torn last record — before appending.  A
    previous *run's* files are not this mechanism's business: whoever
    reuses a directory calls :meth:`clear` first (the driver does, at the
    start of every run).
    """

    def __init__(self, directory: str | os.PathLike, shard_id: int) -> None:
        self.directory = Path(directory)
        self.shard_id = shard_id
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Kill-point hook (:mod:`repro.runtime.faultpoints`) of the shard
        #: worker that owns this store; called with the name of the site
        #: inside :meth:`write`.
        self.fault: Optional[Callable[[str], None]] = None
        #: Seq of the last log record the owner's state covers, and the
        #: byte offset :meth:`latest` found the log must be cut back to
        #: before the next append (None: nothing to cut).
        self._log_seq = -1
        self._log_cut: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Naming
    # ------------------------------------------------------------------ #
    @property
    def _prefix(self) -> str:
        return f"shard{self.shard_id:03d}"

    @property
    def _pointer_path(self) -> Path:
        return self.directory / f"{self._prefix}.latest"

    @property
    def _log_path(self) -> Path:
        return self.directory / f"{self._prefix}{LOG_SUFFIX}"

    def _checkpoint_path(self, epoch: int, seq: int) -> Path:
        return self.directory / (
            f"{self._prefix}-e{epoch:08d}-s{seq:012d}{CHECKPOINT_SUFFIX}"
        )

    def _candidates(self) -> list[Path]:
        """Finished checkpoint files of this shard, newest first."""
        pattern = f"{self._prefix}-e*{CHECKPOINT_SUFFIX}"
        return sorted(self.directory.glob(pattern), key=lambda p: p.name, reverse=True)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def write(self, epoch: int, seq: int, payload: bytes, delta: bytes = b"") -> int:
        """Durably store one snapshot and the output ``delta`` it covers;
        returns the bytes written (log record plus snapshot container).

        Ordering matters for crash safety: the log record is appended and
        fsynced first, then the snapshot lands (atomic, fsynced), then the
        pointer moves to it, and pruning runs last — at every instant the
        pointer names a complete snapshot whose output is in the log, and
        a crash between steps costs at most an uncovered last record
        (ignored by readers, cut off by the next writer) and some garbage
        that the next write's prune collects.
        """
        if seq <= self._log_seq:
            raise CheckpointError(
                f"checkpoint seq {seq} does not advance past {self._log_seq}: "
                "the output log orders records by seq"
            )
        if self._log_cut is not None:
            try:
                os.truncate(self._log_path, self._log_cut)
            except FileNotFoundError:
                pass
            self._log_cut = None
        record = pack_log_record(epoch, seq, delta)
        _append_log(self._log_path, record)
        self._log_seq = seq
        if self.fault is not None:
            self.fault("post-log-pre-snapshot")
        blob = pack_checkpoint(epoch, seq, payload)
        path = self._checkpoint_path(epoch, seq)
        _atomic_write_bytes(path, blob)
        _atomic_write_bytes(self._pointer_path, path.name.encode("utf-8"))
        _fsync_directory(self.directory)
        self._prune(path.name)
        return len(record) + len(blob)

    def _prune(self, pointed: str) -> None:
        for stale in self._candidates()[KEEP:]:
            if stale.name == pointed:  # pragma: no cover - KEEP >= 1 shields it
                continue
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort garbage collection
                pass

    def clear(self) -> None:
        """Delete every file of this shard: a previous run's leftovers.

        The driver calls it once at the start of a run, before any writer
        exists.  Nothing resumes across runs (the replay tail lives in the
        driver's memory), and a stale snapshot is worse than none: a worker
        that died before its first checkpoint would be "restored" into the
        previous run's state.
        """
        for path in self.directory.glob(f"{self._prefix}[-.]*"):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    def clean_temporaries(self) -> int:
        """Delete orphaned in-progress files (crash debris); returns count.

        Only safe while no writer is active for this shard — the driver
        calls it during recovery, after the shard's worker (and with it
        the worker's async writer thread) is known dead.
        """
        removed = 0
        for temp in self.directory.glob(f"{self._prefix}*{TEMP_SUFFIX}"):
            try:
                temp.unlink()
                removed += 1
            except OSError:  # pragma: no cover - already gone
                pass
        return removed

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def latest(self) -> Optional[Checkpoint]:
        """The newest *valid* checkpoint with the output the log holds for
        it (the records of ``seq <=`` its own), or None when none exists.

        The ``.latest`` pointer is tried first; a missing, stale or
        corrupt target falls back to scanning the directory newest-first
        and returning the first snapshot whose digest verifies — the
        "last-good" guarantee that makes torn writes recoverable.  A log
        that does not verify up to the snapshot's record raises
        :class:`CheckpointError`: the output is part of the report, and a
        shorter one must never pass for the real thing.
        """
        snapshot = self._newest_snapshot()
        if snapshot is None:
            # Whatever the log holds (a predecessor that died on its first
            # checkpoint, record appended, snapshot never renamed) is uncovered.
            self._log_cut = 0
            return None
        deltas, self._log_cut = self._read_log(snapshot.seq)
        self._log_seq = snapshot.seq
        return replace(snapshot, output=tuple(deltas))

    def latest_seq(self) -> Optional[int]:
        """Seq of the newest valid snapshot, without reading the log —
        all the driver's replay trim needs."""
        snapshot = self._newest_snapshot()
        return None if snapshot is None else snapshot.seq

    def _newest_snapshot(self) -> Optional[Checkpoint]:
        ordered: list[Path] = []
        try:
            pointed = self._pointer_path.read_text(encoding="utf-8").strip()
        except OSError:
            pointed = ""
        if pointed and "/" not in pointed:
            ordered.append(self.directory / pointed)
        for candidate in self._candidates():
            if not ordered or candidate != ordered[0]:
                ordered.append(candidate)
        for candidate in ordered:
            try:
                blob = candidate.read_bytes()
            except OSError:
                continue
            try:
                return unpack_checkpoint(blob)
            except CheckpointError:
                continue
        return None

    def _read_log(self, seq: int) -> tuple[list[bytes], int]:
        """The deltas of the log records up to the one tagged ``seq``, and
        the byte offset just past it.

        Raises :class:`CheckpointError` when the log ends, or stops
        verifying, before that record — whatever follows it is the
        uncovered tail and is not even looked at.
        """
        deltas: list[bytes] = []
        offset = 0
        try:
            log = self._log_path.read_bytes()
        except FileNotFoundError:
            log = b""
        reached = -1
        while offset + _HEADER.size <= len(log):
            magic, version, _flags, _reserved, _epoch, record_seq, length, digest = (
                _HEADER.unpack_from(log, offset)
            )
            start = offset + _HEADER.size
            delta = log[start : start + length]
            if (
                magic != LOG_MAGIC
                or version != VERSION
                or not reached < record_seq <= seq
                or len(delta) != length
                or _digest(delta, log[offset : offset + _TAGS.size]) != digest
            ):
                break
            deltas.append(delta)
            offset = start + length
            if record_seq == seq:
                return deltas, offset
            reached = record_seq
        raise CheckpointError(
            f"output log of shard {self.shard_id} is corrupt or truncated at byte "
            f"{offset}, before the record of checkpoint seq {seq}"
        )


class AsyncCheckpointWriter:
    """Serialize checkpoint writes onto one background thread.

    Snapshots are taken synchronously (the executor's state must not move
    while it is pickled) but the expensive part — framing, log append,
    write, fsyncs, rename — happens here, off the event path.  One
    thread per shard is exactly the needed concurrency: checkpoints of a
    shard are ordered, and cross-shard parallelism comes from the worker
    processes themselves.

    ``ack`` (when given) is a pipe-like object whose ``send`` receives
    ``(epoch, seq, nbytes)`` after each *durable* write; the driver trims
    its replay buffer on these acks, so they are only ever sent once the
    checkpoint they describe can actually be restored.
    """

    def __init__(self, store: CheckpointStore, ack=None) -> None:
        self._store = store
        self._ack = ack
        self._queue: "queue.Queue[Optional[tuple[int, int, bytes, bytes]]]" = queue.Queue()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._drain,
            name=f"repro-ckpt-{store.shard_id:03d}",
            daemon=True,
        )
        self._thread.start()

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            epoch, seq, payload, delta = item
            try:
                nbytes = self._store.write(epoch, seq, payload, delta)
            except Exception as error:
                # Surfaced to the submitter on its next submit()/close():
                # the writer thread has no driver channel of its own.
                self._error = error
                return
            if self._ack is not None:
                try:
                    self._ack.send((epoch, seq, nbytes))
                except OSError:  # pragma: no cover - driver side already gone
                    return

    def submit(self, epoch: int, seq: int, payload: bytes, delta: bytes = b"") -> None:
        """Queue one snapshot and the output delta it covers for durable
        writing (raises prior failures)."""
        if self._error is not None:
            raise CheckpointError(
                f"checkpoint writer failed: {self._error!r}"
            ) from self._error
        self._queue.put((epoch, seq, payload, delta))

    def close(self) -> None:
        """Drain pending writes, stop the thread, re-raise any failure."""
        self._queue.put(None)
        self._thread.join()
        if self._error is not None:
            raise CheckpointError(
                f"checkpoint writer failed: {self._error!r}"
            ) from self._error

    def abort(self) -> None:
        """Best-effort shutdown for error paths; never raises."""
        self._queue.put(None)
        self._thread.join(timeout=5.0)
