"""Ridesharing trip analytics: the workload of Figure 1 over a simulated stream.

Three queries monitor ride trips per district:

* q1 — trips where the driver kept travelling but never picked the rider up
  (SEQ(Request, Travel+, NOT Pickup)),
* q2 — completed Pool trips (SEQ(Pool, Travel+, Dropoff)) with the total
  travelled duration,
* q3 — cancelled trips in slow-moving traffic
  (SEQ(Request, Travel+, Cancel) with Travel.speed < 10).

All three share the expensive Travel+ Kleene sub-pattern; HAMLET decides at
runtime, per burst of Travel events, whether sharing pays off.

Run with:  python examples/ridesharing_analytics.py
"""

from __future__ import annotations

from repro import parse_query
from repro.core import HamletEngine
from repro.datasets import RidesharingGenerator
from repro.greta import GretaEngine
from repro.runtime import WorkloadExecutor


def build_workload():
    """The Figure 1 workload expressed in the textual query language."""
    q1 = parse_query(
        """
        RETURN COUNT(*)
        PATTERN SEQ(Request, Travel+, NOT Pickup)
        WHERE [driver, rider]
        GROUP BY district
        WITHIN 300 SLIDE 300
        """,
        name="stuck-trips",
    )
    q2 = parse_query(
        """
        RETURN SUM(Travel.duration)
        PATTERN SEQ(Pool, Travel+, Dropoff)
        WHERE [driver, rider]
        GROUP BY district
        WITHIN 300 SLIDE 300
        """,
        name="pool-trip-duration",
    )
    q3 = parse_query(
        """
        RETURN COUNT(*)
        PATTERN SEQ(Request, Travel+, Cancel)
        WHERE [driver, rider] AND Travel.speed < 10
        GROUP BY district
        WITHIN 300 SLIDE 300
        """,
        name="slow-cancellations",
    )
    return [q1, q2, q3]


def main() -> None:
    workload = build_workload()
    # A small fleet (few drivers/riders) makes the [driver, rider] equivalence
    # predicates of Figure 1 actually match within the five-minute windows.
    generator = RidesharingGenerator(
        events_per_minute=600, seed=42, districts=4, drivers=5, riders=5,
        slow_traffic_fraction=0.5,
    )
    stream = generator.generate(duration_seconds=300.0)
    print(f"Generated {len(stream)} ridesharing events over 5 minutes.")

    hamlet = WorkloadExecutor(workload, HamletEngine).run(stream)
    greta = WorkloadExecutor(workload, GretaEngine).run(stream)

    print("\nPer-query aggregates (summed over districts and windows):")
    for query in workload:
        print(f"  {query.name:<22} HAMLET={hamlet.result_for(query):12.1f}  "
              f"GRETA={greta.result_for(query):12.1f}")

    print("\nExecution metrics:")
    print(f"  HAMLET: latency={hamlet.metrics.average_latency * 1e3:8.2f} ms/window, "
          f"throughput={hamlet.metrics.throughput_engine:9.0f} events/s, "
          f"peak memory={hamlet.metrics.peak_memory_units} units")
    print(f"  GRETA : latency={greta.metrics.average_latency * 1e3:8.2f} ms/window, "
          f"throughput={greta.metrics.throughput_engine:9.0f} events/s, "
          f"peak memory={greta.metrics.peak_memory_units} units")

    stats = hamlet.optimizer_statistics
    if stats is not None:
        print(f"\nHAMLET sharing decisions: {stats.decisions} "
              f"(shared {stats.shared_fraction:.0%} of bursts, "
              f"{stats.merges} merges, {stats.splits} splits)")


if __name__ == "__main__":
    main()
