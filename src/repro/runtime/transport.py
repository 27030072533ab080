"""Shared-memory slab transport for the sharded runtime.

Every batch the driver ships to a shard worker is one framed columnar
buffer (:meth:`repro.events.block.EventBlock.to_bytes`).  With the pickle
transport those bytes ride the worker's input queue: serialized by the
queue's feeder thread and copied through a pipe.  This module replaces the
copy with a **ring of reusable shared-memory slabs** per (driver, worker)
channel:

* the driver writes the frame into a free slab of the ring — one
  ``memcpy``-shaped write into the mapped segment;
* the hand-off through the bounded input queue is just ``("slab", seq,
  index, nbytes)`` — a few dozen bytes instead of the whole batch;
* the worker parses a block straight out of the mapped slab (typed columns
  are C-speed ``frombytes`` reads) and then *acks* the slab index back over
  a pipe, recycling it for the driver's next acquire;
* a batch that outgrows the slab (or the end-of-stream residual) falls back
  to ``("raw", seq, payload)`` through the queue — same framed bytes, no
  slab, exactly what the pickle transport ships for every batch.

Crash and teardown discipline (the "no leaked segments" contract, checked
by the transport tests and a CI sweep of ``/dev/shm``):

* the **driver** owns the segment: it creates it, and unlinks it in
  ``ShardedStreamingExecutor._shutdown`` on every path — clean finish,
  worker crash, driver-side error.  A ``weakref.finalize`` guard unlinks
  even if an executor is dropped mid-run without ``finish()``;
* **workers** only attach.  On interpreters without ``track=False``
  (< 3.13) the attach is explicitly unregistered from the worker's
  ``resource_tracker``, which would otherwise unlink the live segment when
  the first worker exits (the well-known premature-cleanup hazard);
* a driver killed hard (``SIGKILL``) leaves cleanup to its resource
  tracker process, which outlives it precisely for this purpose.

Segment names carry the ``repro-ring-`` prefix so humans (and the CI leak
check) can attribute stray segments at a glance.
"""

from __future__ import annotations

import os
import secrets
import weakref
from multiprocessing import shared_memory
from typing import Callable, Optional

from repro.errors import ExecutionError

__all__ = ["SlabReader", "SlabRing", "TRANSPORTS", "attach_segment"]

#: Transport names the sharded executor accepts.
TRANSPORTS = ("pickle", "shm")

#: Recognizable prefix of every ring segment (``/dev/shm/repro-ring-*``).
SEGMENT_PREFIX = "repro-ring-"

#: Default slab payload capacity.  A 512-event batch of the simulators'
#: numeric payloads encodes to a few tens of KiB; oversized batches fall
#: back to the queue, so the cap trades /dev/shm footprint for fallback
#: frequency rather than correctness.
DEFAULT_SLAB_BYTES = 256 * 1024


def _unlink_quietly(
    segment: shared_memory.SharedMemory, owner_pid: Optional[int] = None
) -> None:
    # Fork-started workers inherit the driver's ring objects, finalizers
    # included; only the creating process may unlink, or the first worker
    # to exit would tear the live segment out from under the rest.
    if owner_pid is not None and os.getpid() != owner_pid:
        return
    try:
        segment.close()
    except OSError:  # pragma: no cover - close is best-effort on teardown
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except OSError:  # pragma: no cover - already reclaimed elsewhere
        pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting cleanup ownership.

    On 3.13+ ``track=False`` skips resource-tracker registration outright.
    Before that, attaching registers the name with the resource tracker —
    but shard workers share the *driver's* tracker process (the fd is
    inherited through ``Process`` under both fork and spawn), whose name
    cache is a set: the duplicate registration is a no-op and the driver's
    single ``unlink`` balances it.  Crucially the worker must **not**
    unregister on exit — with a shared tracker that would strip the
    driver's registration and forfeit crash cleanup.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class SlabRing:
    """Driver-side ring of reusable slabs over one shared-memory segment.

    One ring serves one (driver, worker) channel.  Slab indices cycle
    through three states: *free* (driver-owned), *in flight* (referenced by
    a queued message), *acked* (the worker sent the index back over the ack
    pipe after decoding).  ``slots`` exceeds the channel's queue bound, so
    an acquire normally never waits; when it must (worker mid-decode with
    the queue full), it polls the ack pipe and re-checks liveness through
    the caller's hook instead of deadlocking on a dead worker.
    """

    def __init__(self, context, *, slots: int, slab_bytes: int) -> None:
        if slots < 1 or slab_bytes < 1:
            raise ExecutionError(
                f"slab ring needs positive geometry, got slots={slots}, "
                f"slab_bytes={slab_bytes}"
            )
        self.slots = slots
        self.slab_bytes = slab_bytes
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        self._segment = shared_memory.SharedMemory(
            name=name, create=True, size=slots * slab_bytes
        )
        #: Last-resort cleanup if the executor is dropped without finish();
        #: the normal paths unlink explicitly via close().  Registered
        #: immediately after creation: anything that can raise in between
        #: (a failing Pipe() constructor, historically) would leak the
        #: fresh segment.
        self._finalizer = weakref.finalize(
            self, _unlink_quietly, self._segment, os.getpid()
        )
        self.name = self._segment.name
        self._free = list(range(slots))
        #: Last slab index the worker acked (None before the first ack).
        #: Crash forensics: a dead worker's :class:`~repro.errors.
        #: WorkerCrashError` carries it to localize the death relative to
        #: the in-flight batches.
        self.last_acked: Optional[int] = None
        #: Worker -> driver slab recycling channel.  A pipe, not a queue: the
        #: payload is one small int and the worker's send never meaningfully
        #: blocks, so the queue's feeder-thread machinery buys nothing.
        self.ack_recv, self.ack_send = context.Pipe(duplex=False)

    def _recycle(self, slab: int) -> None:
        self.last_acked = slab
        self._free.append(slab)

    def _drain_acks(self) -> None:
        while self.ack_recv.poll():
            self._recycle(self.ack_recv.recv())

    def acquire(
        self, *, poll_seconds: float, on_stall: Callable[[], None]
    ) -> int:
        """Pop a free slab index, waiting on worker acks when none is free.

        ``on_stall`` runs once per ``poll_seconds`` of waiting; callers use
        it to distinguish "worker slow" (still alive: keep polling) from
        "worker dead" (exit-code inspection: raise a typed
        :class:`~repro.errors.WorkerCrashError` — carrying
        :attr:`last_acked` — or trigger recovery) so a dead worker's
        unacked slabs cannot wedge the driver.
        """
        self._drain_acks()
        while not self._free:
            if self.ack_recv.poll(poll_seconds):
                self._recycle(self.ack_recv.recv())
            else:
                on_stall()
            self._drain_acks()
        return self._free.pop()

    def write(self, slab: int, payload: bytes) -> None:
        """Copy a framed batch into ``slab`` (caller checked the size)."""
        offset = slab * self.slab_bytes
        self._segment.buf[offset : offset + len(payload)] = payload

    def fits(self, payload: bytes) -> bool:
        return len(payload) <= self.slab_bytes

    def close(self) -> None:
        """Tear the channel down and unlink the segment (idempotent)."""
        self._finalizer.detach()
        for end in (self.ack_recv, self.ack_send):
            try:
                end.close()
            except OSError:  # pragma: no cover - already closed by context
                pass
        _unlink_quietly(self._segment)


class SlabReader:
    """Worker-side view of a ring: decode from the mapped slab, then ack."""

    def __init__(self, name: str, slab_bytes: int, ack_send) -> None:
        self._segment = attach_segment(name)
        self._slab_bytes = slab_bytes
        self._ack_send = ack_send

    def view(self, slab: int, nbytes: int) -> memoryview:
        """The slab's payload bytes, straight out of the mapped segment."""
        offset = slab * self._slab_bytes
        return self._segment.buf[offset : offset + nbytes]

    def ack(self, slab: int) -> None:
        """Recycle the slab (call only after decoding copied the data out)."""
        self._ack_send.send(slab)

    def close(self) -> None:
        try:
            self._segment.close()
        except OSError:  # pragma: no cover - close is best-effort on exit
            pass


def validate_transport(transport: str) -> str:
    if transport not in TRANSPORTS:
        raise ExecutionError(
            f"unknown transport {transport!r}; choose one of {', '.join(TRANSPORTS)}"
        )
    return transport


def ring_slots(max_inflight: int) -> int:
    """Ring size for a channel bounded at ``max_inflight`` queued batches.

    At most ``max_inflight`` messages sit in the queue plus one being
    decoded by the worker; one extra slot keeps the driver's acquire from
    synchronizing with the ack of the oldest in-flight slab.
    """
    return max_inflight + 2
