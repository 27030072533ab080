"""HAMLET core: shared online event trend aggregation (Sections 3.3 and 4.2).

The pieces:

* :mod:`repro.core.expression` — symbolic snapshot expressions: the
  intermediate aggregate of an event in a *shared* graphlet is a linear
  combination of snapshots whose per-query values live in the snapshot table.
* :mod:`repro.core.snapshot` — snapshots and the snapshot table
  (Definitions 8 and 9).
* :mod:`repro.core.graphlet` — graphlets: runs of same-type events processed
  either shared (one expression per event for all queries) or non-shared
  (one resolved vector per event per query) (Definitions 6 and 7).
* :mod:`repro.core.hamlet_graph` — the HAMLET graph: all graphlets plus the
  per-type accumulators that feed new graphlet-level snapshots.
* :mod:`repro.core.engine` — the executor (Algorithm 1) that buffers bursts,
  asks the sharing optimizer for a decision per burst, and splits/merges
  graphlets accordingly.
"""

from repro.core.engine import HamletEngine
from repro.core.expression import SnapshotCoefficient, SnapshotExpression
from repro.core.graphlet import Graphlet, HamletNode
from repro.core.hamlet_graph import HamletGraph, TypeAccumulator
from repro.core.kernels import KernelBackend, PythonKernelBackend
from repro.core.snapshot import Snapshot, SnapshotTable

__all__ = [
    "Graphlet",
    "HamletEngine",
    "HamletGraph",
    "HamletNode",
    "KernelBackend",
    "PythonKernelBackend",
    "Snapshot",
    "SnapshotCoefficient",
    "SnapshotExpression",
    "SnapshotTable",
    "TypeAccumulator",
]
