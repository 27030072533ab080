"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so that callers
can distinguish library failures from programming errors with a single
``except`` clause.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all exceptions raised by the repro library."""


class SchemaError(ReproError):
    """An event does not conform to its declared schema."""


class StreamError(ReproError):
    """A stream violates an invariant (e.g. events arrive out of order)."""


class PatternError(ReproError):
    """A pattern expression is malformed or unsupported."""


class QueryParseError(PatternError):
    """The textual query could not be parsed."""


class PredicateError(ReproError):
    """A predicate references an unknown attribute or is malformed."""


class WindowError(ReproError):
    """A window specification is invalid (e.g. non-positive size)."""


class TemplateError(ReproError):
    """A query cannot be compiled into a finite-state template."""


class SharingError(ReproError):
    """An invalid sharing configuration was requested."""


class ExecutionError(ReproError):
    """The runtime executor hit an unrecoverable condition."""


class WorkerCrashError(ExecutionError):
    """A shard worker process died without delivering its report.

    Raised by the sharded driver when exit-code classification says the
    worker cannot report anymore (``os._exit``, a signal such as
    ``SIGKILL``) and recovery is disabled or exhausted.  Distinguishes
    "worker dead" from "worker slow": a slow worker keeps its process
    alive and the driver keeps waiting, while a dead one surfaces here
    with everything the driver knows about the death attached.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_id: int,
        exit_code: Optional[int] = None,
        worker_traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        #: Shard whose worker died.
        self.shard_id = shard_id
        #: ``Process.exitcode`` (negative: killed by that signal number).
        self.exit_code = exit_code
        #: The worker's formatted traceback when one surfaced before death.
        self.worker_traceback = worker_traceback


class OutOfOrderError(StreamError, ExecutionError):
    """An event violated the arrival-order contract of its consumer.

    Historically the same condition raised :class:`StreamError` at the
    stream boundary and :class:`ExecutionError` inside the executors and
    shared-window engines; this type unifies them (multiple inheritance
    keeps every existing ``except`` clause working) so callers can handle
    "your stream is disordered" as one condition wherever it surfaces.
    Raised by the order guards in :mod:`repro.runtime.reorder` and — when
    an event falls behind the allowed-lateness watermark under the
    ``"raise"`` policy — by the reorder buffer itself.
    """


class CheckpointError(ExecutionError):
    """A checkpoint could not be written, read or restored.

    Covers container-level corruption (bad magic, version or checksum)
    and restore-time mismatches (a snapshot taken for a different
    workload or executor configuration).
    """


class WorkloadError(ReproError):
    """A workload of queries is invalid (e.g. empty or inconsistent)."""


class DatasetError(ReproError):
    """A dataset generator received invalid configuration."""


class BenchmarkError(ReproError):
    """A benchmark harness was configured incorrectly."""
