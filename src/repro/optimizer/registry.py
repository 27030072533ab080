"""Named sharing-optimizer policies and their resolution.

The runtime layers (streaming executor, sharded driver, CLI, benchmarks)
select a per-burst sharing policy by name only, so that a policy choice
always crosses a process boundary as a plain string — shard workers
rebuild their own optimizer instances from the name, which keeps the
spawn start method picklable and the per-shard decision state
independent:

* ``"dynamic"`` — the HAMLET optimizer: benefit-model decision per burst;
* ``"always"`` — static plan that shares every burst (Figures 12–13's
  *static overhead* comparison point);
* ``"never"`` — static plan that never shares (per-query processing);
* ``"static"`` — decide once, on the first burst, and keep that plan.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SharingError
from repro.optimizer.decisions import DynamicSharingOptimizer, SharingOptimizer
from repro.optimizer.static import (
    AlwaysShareOptimizer,
    NeverShareOptimizer,
    StaticPlanOptimizer,
)

__all__ = ["OPTIMIZER_POLICIES", "OptimizerSpec", "resolve_optimizer_factory"]

#: Zero-argument factories keyed by policy name.
OPTIMIZER_POLICIES: dict[str, Callable[[], SharingOptimizer]] = {
    "dynamic": DynamicSharingOptimizer,
    "always": AlwaysShareOptimizer,
    "never": NeverShareOptimizer,
    "static": StaticPlanOptimizer,
}

#: What callers may pass: nothing or a policy name.
OptimizerSpec = Optional[str]


def resolve_optimizer_factory(
    spec: OptimizerSpec,
) -> Optional[Callable[[], SharingOptimizer]]:
    """Resolve a policy name to its zero-argument factory (or ``None``).

    ``None`` means *no adaptive decisions*: the runtime keeps its static
    compile-time plan and pays no burst-segmentation overhead.  Anything
    but ``None`` or a name in :data:`OPTIMIZER_POLICIES` — a factory
    included — raises :class:`~repro.errors.SharingError`.
    """
    if spec is None:
        return None
    if isinstance(spec, str) and spec in OPTIMIZER_POLICIES:
        return OPTIMIZER_POLICIES[spec]
    raise SharingError(
        f"optimizer must be None or a policy name "
        f"({', '.join(sorted(OPTIMIZER_POLICIES))}), got {spec!r}"
    )
