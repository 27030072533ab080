"""Dynamic versus static sharing on a bursty stock stream (Figures 12–13 story).

A diverse workload of trend aggregation queries over simulated stock trades
shares the Trade+ / UpTick+ sub-patterns, but the queries disagree on
predicates, so sharing is only sometimes beneficial.  The example runs the
same workload three times — with HAMLET's dynamic per-burst decisions, with a
static "always share" plan, and with sharing disabled — and prints the
latency, throughput, memory and snapshot counts side by side.

Run with:  python examples/stock_dynamic_sharing.py
"""

from __future__ import annotations

from repro.bench.workloads import diverse_stock_workload
from repro.core import HamletEngine
from repro.datasets import StockGenerator
from repro.optimizer import AlwaysShareOptimizer, DynamicSharingOptimizer, NeverShareOptimizer
from repro.runtime import WorkloadExecutor


def run_policy(name: str, optimizer_factory, workload, stream) -> dict:
    """Run the workload with one sharing policy and collect the key numbers."""
    executor = WorkloadExecutor(workload, lambda: HamletEngine(optimizer_factory()))
    report = executor.run(stream)
    engine = executor._shared_engine
    snapshots = engine.total_snapshots_created() if isinstance(engine, HamletEngine) else 0
    stats = report.optimizer_statistics
    return {
        "policy": name,
        "latency_ms": report.metrics.average_latency * 1e3,
        "throughput": report.metrics.throughput_engine,
        "memory": report.metrics.peak_memory_units,
        "snapshots": snapshots,
        "shared_fraction": stats.shared_fraction if stats else 0.0,
        "totals": report.totals,
    }


def main() -> None:
    workload = diverse_stock_workload(num_queries=12)
    stream = StockGenerator(events_per_minute=600, seed=17).generate(duration_seconds=120.0)
    print(f"Workload: {len(workload)} queries over {len(stream)} stock events.\n")

    runs = [
        run_policy("dynamic (HAMLET)", DynamicSharingOptimizer, workload, stream),
        run_policy("static always-share", AlwaysShareOptimizer, workload, stream),
        run_policy("never share (GRETA-style)", NeverShareOptimizer, workload, stream),
    ]

    header = f"{'policy':<28} {'latency ms':>11} {'events/s':>10} {'memory':>8} {'snapshots':>10} {'shared':>7}"
    print(header)
    print("-" * len(header))
    for run in runs:
        print(
            f"{run['policy']:<28} {run['latency_ms']:>11.3f} {run['throughput']:>10.0f} "
            f"{run['memory']:>8.0f} {run['snapshots']:>10d} {run['shared_fraction']:>6.0%}"
        )

    # All policies must agree on the query results — sharing only changes how
    # the aggregates are computed, never their values.
    baseline = runs[0]["totals"]
    for run in runs[1:]:
        for name, value in baseline.items():
            assert abs(run["totals"][name] - value) < 1e-6, (name, run["policy"])
    print("\nAll three policies produced identical aggregates "
          f"for all {len(baseline)} queries.")


if __name__ == "__main__":
    main()
