"""Shared-memory slab ring: a transport no executor runs.

Pool mode ships every batch as one ``("raw", seq, frame)`` queue message
(:mod:`repro.runtime.sharding`).  This module has the same standing as
:mod:`repro.core.kernels_numpy`: the end-to-end harness probes
``SlabRing.acquire/write`` and ``SlabReader.view/ack`` for its transport
rates, so the ring stays, with its own unit and teardown tests, until that
probe is retired (docs/DESIGN.md, "Transport").

A ring is one shared-memory segment cut into reusable slabs:

* the writer copies a frame into a free slab of the ring;
* the reader parses it straight out of the mapped slab and *acks* the
  slab index back over a pipe, recycling it for the writer's next acquire.

Teardown discipline (the "no leaked segments" contract, checked by the
transport tests and a CI sweep of ``/dev/shm``):

* the **creator** owns the segment and unlinks it in :meth:`SlabRing.close`.
  A ``weakref.finalize`` guard unlinks even if a ring is dropped unclosed;
* **readers** only attach, without adopting cleanup ownership
  (:func:`attach_segment`), so a reader process exiting never unlinks the
  live segment (the well-known premature-cleanup hazard);
* a creator killed hard (``SIGKILL``) leaves cleanup to its resource
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

__all__ = ["SlabReader", "SlabRing", "attach_segment"]

#: Recognizable prefix of every ring segment (``/dev/shm/repro-ring-*``).
SEGMENT_PREFIX = "repro-ring-"


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
    """Writer-side ring of reusable slabs over one shared-memory segment.

    One ring serves one (writer, reader) channel.  Slab indices cycle
    through three states: *free* (writer-owned), *in flight* (written, not
    yet acked), *acked* (the reader sent the index back over the ack pipe
    after decoding).  When no slab is free, an acquire polls the ack pipe
    and re-checks liveness through the caller's hook instead of
    deadlocking on a dead reader.
    """

    def __init__(self, context, *, slots: int, slab_bytes: int) -> None:
        if slots < 1 or slab_bytes < 1:
            raise ExecutionError(
                f"slab ring needs positive geometry, got slots={slots}, "
                f"slab_bytes={slab_bytes}"
            )
        self.slab_bytes = slab_bytes
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        self._segment = shared_memory.SharedMemory(
            name=name, create=True, size=slots * slab_bytes
        )
        #: Last-resort cleanup if the ring is dropped without close();
        #: the normal paths unlink explicitly via close().  Registered
        #: immediately after creation: anything that can raise in between
        #: (a failing Pipe() constructor, historically) would leak the
        #: fresh segment.
        self._finalizer = weakref.finalize(
            self, _unlink_quietly, self._segment, os.getpid()
        )
        self.name = self._segment.name
        self._free = list(range(slots))
        #: Reader -> writer slab recycling channel.  A pipe, not a queue: the
        #: payload is one small int and the reader's send never meaningfully
        #: blocks, so the queue's feeder-thread machinery buys nothing.
        self.ack_recv, self.ack_send = context.Pipe(duplex=False)

    def _drain_acks(self) -> None:
        while self.ack_recv.poll():
            self._free.append(self.ack_recv.recv())

    def acquire(
        self, *, poll_seconds: float, on_stall: Callable[[], None]
    ) -> int:
        """Pop a free slab index, waiting on reader acks when none is free.

        ``on_stall`` runs once per ``poll_seconds`` of waiting; callers use
        it to tell a slow reader (keep polling) from a dead one (raise), so
        a dead reader's unacked slabs cannot wedge the writer.
        """
        self._drain_acks()
        while not self._free:
            if self.ack_recv.poll(poll_seconds):
                self._free.append(self.ack_recv.recv())
            else:
                on_stall()
            self._drain_acks()
        return self._free.pop()

    def write(self, slab: int, payload: bytes) -> None:
        """Copy a framed batch into ``slab`` (at most ``slab_bytes`` long)."""
        offset = slab * self.slab_bytes
        self._segment.buf[offset : offset + len(payload)] = payload

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
    """Reader-side view of a ring: decode from the mapped slab, then ack."""

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

