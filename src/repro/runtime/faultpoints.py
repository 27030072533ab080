"""Env-gated kill points for fault-injection testing of shard workers.

The recovery machinery's oracle is "kill a worker at the worst possible
instant, recover, and the merged report is byte-identical to the
uninterrupted run".  That needs deterministic deaths *inside* the worker
process at named points of its loop — which no external killer can time
reliably.  This module plants those points:

* the worker resolves a hook once at startup from the
  :data:`FAULTLINE_ENV` environment variable — ``None`` when unset, so
  the production hot path pays a single ``if hook is not None`` per
  batch and nothing else;
* a spec is ``;``-separated triggers of the form
  ``point[@shard][:nth][:mode][:e<epoch>|:eany]``: *point* names the
  kill site, *@shard* restricts to one shard id (default: any), *nth*
  is the 1-based hit count that fires (default 1), *mode* is ``exit``
  (``os._exit(70)``, the "clean-ish" death that skips all cleanup) or
  ``kill`` (``SIGKILL`` to self — nothing runs afterwards, not even
  atexit), and the epoch selector restricts the trigger to one worker
  incarnation — default ``e0``, the original worker, so that the
  supervised respawn (which re-resolves the very same spec) does not
  re-kill itself forever; ``eany`` arms every incarnation (restart-loop
  and max_restarts-exhaustion tests).

Example: ``REPRO_FAULTLINE="post-close-pre-ack@1:3:kill"`` SIGKILLs
shard 1 the third time its *original* worker reaches the
post-close-pre-ack site.

The kill sites (see ``_shard_worker_main``; ``post-log-pre-snapshot`` sits
on the worker's checkpoint writer thread, in ``CheckpointStore.write``):

* ``pre-fold`` — batch decoded (and, on shm, the slab acked) but no
  event of it folded yet;
* ``mid-batch-decode`` — between decoding a slab/raw payload and acking
  or folding it (the unacked-slab reclamation case);
* ``post-close-pre-ack`` — after folding a batch (window closes
  included) but before the checkpoint covering it is acked;
* ``post-log-pre-snapshot`` — a checkpoint's output-log record is
  appended and fsynced, the snapshot that covers it not yet renamed in
  (the uncovered-log-tail case);
* ``pre-report`` — everything folded, sentinel seen, death just before
  the final report ships;
* ``mid-report`` — death halfway through sending that report: the worker
  puts the length header and the first half of the message on its pipe by
  hand (:func:`tear_message`) and dies — the message no reader can finish.

Used by :mod:`tools.faultline` (the orchestration harness) and the
recovery test matrix; never set in production.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import ExecutionError

__all__ = [
    "FAULTLINE_ENV",
    "KILL_POINTS",
    "FaultTrigger",
    "parse_faultline",
    "resolve_fault_hook",
    "tear_message",
]

#: Environment variable carrying the kill-point spec.
FAULTLINE_ENV = "REPRO_FAULTLINE"

#: Exit status of ``mode=exit`` deaths (distinct from real error paths).
FAULT_EXIT_CODE = 70

#: The planted kill sites, in worker-loop order.
KILL_POINTS = (
    "pre-fold",
    "mid-batch-decode",
    "post-close-pre-ack",
    "post-log-pre-snapshot",
    "pre-report",
    "mid-report",
)

_MODES = ("exit", "kill")


@dataclass
class FaultTrigger:
    """One armed kill: fire ``mode`` at the ``nth`` hit of ``point``."""

    point: str
    shard: Optional[int]
    nth: int = 1
    mode: str = "exit"
    #: Worker incarnation the trigger arms in (None: every incarnation).
    epoch: Optional[int] = 0
    hits: int = field(default=0, compare=False)

    def fire(self) -> None:
        if self.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(FAULT_EXIT_CODE)


def parse_faultline(spec: str) -> list[FaultTrigger]:
    """Parse a :data:`FAULTLINE_ENV` spec string into triggers."""
    triggers: list[FaultTrigger] = []
    for raw in spec.split(";"):
        item = raw.strip()
        if not item:
            continue
        parts = item.split(":")
        head, tail = parts[0], parts[1:]
        if "@" in head:
            point, shard_text = head.split("@", 1)
            try:
                shard: Optional[int] = int(shard_text)
            except ValueError as error:
                raise ExecutionError(
                    f"faultline spec {item!r}: bad shard id {shard_text!r}"
                ) from error
        else:
            point, shard = head, None
        if point not in KILL_POINTS:
            raise ExecutionError(
                f"faultline spec {item!r}: unknown kill point {point!r} "
                f"(choose one of {', '.join(KILL_POINTS)})"
            )
        nth = 1
        mode = "exit"
        epoch: Optional[int] = 0
        for extra in tail:
            if extra in _MODES:
                mode = extra
                continue
            if extra == "eany":
                epoch = None
                continue
            if extra.startswith("e") and extra[1:].isdigit():
                epoch = int(extra[1:])
                continue
            try:
                nth = int(extra)
            except ValueError as error:
                raise ExecutionError(
                    f"faultline spec {item!r}: {extra!r} is neither a hit "
                    f"count, a mode ({', '.join(_MODES)}) nor an epoch "
                    f"selector (e<N>, eany)"
                ) from error
            if nth < 1:
                raise ExecutionError(f"faultline spec {item!r}: nth must be >= 1")
        triggers.append(
            FaultTrigger(point=point, shard=shard, nth=nth, mode=mode, epoch=epoch)
        )
    return triggers


def tear_message(connection, message: object) -> None:
    """Leave ``message`` half-sent on ``connection``, as a sender killed
    inside ``Connection.send`` does: the 4-byte length header, then the
    first half of the pickle.  The ``mid-report`` site's last act."""
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    torn = struct.pack("!i", len(payload)) + payload[: len(payload) // 2]
    while torn:
        torn = torn[os.write(connection.fileno(), torn) :]


def resolve_fault_hook(shard_id: int, epoch: int = 0) -> Optional[Callable[..., None]]:
    """The shard's kill-point hook, or None when fault injection is off.

    Resolved once per worker incarnation at startup; the returned callable
    is invoked with the site name at every planted point and dies when an
    armed trigger's hit count is reached — after running the site's
    ``last_act``, if it passed one (what the worker gets done before a
    death *inside* an operation).
    """
    spec = os.environ.get(FAULTLINE_ENV)
    if not spec:
        return None
    triggers = [
        trigger
        for trigger in parse_faultline(spec)
        if (trigger.shard is None or trigger.shard == shard_id)
        and (trigger.epoch is None or trigger.epoch == epoch)
    ]
    if not triggers:
        return None

    def hook(point: str, last_act: Optional[Callable[[], None]] = None) -> None:
        for trigger in triggers:
            if trigger.point == point:
                trigger.hits += 1
                if trigger.hits == trigger.nth:
                    if last_act is not None:
                        last_act()
                    trigger.fire()

    return hook
