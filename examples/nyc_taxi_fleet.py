"""Fleet monitoring over a simulated NYC taxi stream (the Figure 11 setting).

Twelve queries track trip trends per pickup zone — all sharing the Travel+
Kleene sub-pattern — at an arrival rate where the non-shared online engine
(GRETA) starts falling behind while HAMLET's shared execution keeps the
latency flat.  The example also demonstrates a mixed workload: one MAX query
is routed to the GRETA path automatically because extremum aggregates cannot
ride on shared snapshot expressions.

Run with:  python examples/nyc_taxi_fleet.py
"""

from __future__ import annotations

import math

from repro import Query, Window, kleene, max_of, seq
from repro.bench.workloads import nyc_taxi_workload
from repro.core import HamletEngine
from repro.datasets import NycTaxiGenerator
from repro.greta import GretaEngine
from repro.runtime import WorkloadExecutor


def build_workload():
    """Ten sharable COUNT(*) queries plus one MAX query over trip prices."""
    workload = nyc_taxi_workload(10, window=Window.minutes(1))
    workload.add(
        Query.build(
            seq("Pickup", kleene("Travel")),
            aggregate=max_of("Travel", "price"),
            group_by=("pickup_zone",),
            window=Window.minutes(1),
            name="max-travel-price",
        )
    )
    return workload


def main() -> None:
    workload = build_workload()
    stream = NycTaxiGenerator(events_per_minute=1000, seed=11, zones=4).generate(60.0)
    print(f"Workload: {len(workload)} queries, stream: {len(stream)} events in one minute.\n")

    hamlet = WorkloadExecutor(workload, HamletEngine).run(stream)
    greta = WorkloadExecutor(workload, GretaEngine).run(stream)

    print(f"{'engine':<8} {'latency ms/window':>18} {'throughput ev/s':>16} {'peak memory':>12}")
    for name, report in (("HAMLET", hamlet), ("GRETA", greta)):
        print(
            f"{name:<8} {report.metrics.average_latency * 1e3:>18.2f} "
            f"{report.metrics.throughput_engine:>16.0f} {report.metrics.peak_memory_units:>12d}"
        )

    ratio = (
        greta.metrics.average_latency / hamlet.metrics.average_latency
        if hamlet.metrics.average_latency
        else float("inf")
    )
    print(f"\nHAMLET is {ratio:.1f}x faster than non-shared GRETA on this configuration.")

    print("\nSample results (summed over zones and windows):")
    for query in list(workload)[:3] + [workload["max-travel-price"]]:
        # Trend counts grow exponentially with the events per window, so the
        # engines are compared with a relative tolerance (they sum identical
        # terms in different orders).
        assert math.isclose(
            hamlet.result_for(query), greta.result_for(query), rel_tol=1e-9, abs_tol=1e-9
        )
        print(f"  {query.name:<22} {hamlet.result_for(query):14.4g}")


if __name__ == "__main__":
    main()
