"""PYTHONHASHSEED-variation regression test for the sharded runtime.

The sharded driver's determinism contract is that results are
bit-identical across *interpreter hash seeds*: group-hash routing goes
through :func:`repro.runtime.sharding.stable_shard_hash` (BLAKE2b), not
the seed-randomized builtin ``hash``, and no result path iterates an
unordered set.  reprolint's RL001/RL006 guard those properties
statically; this test guards them end to end by running the same
workload in two subprocesses pinned to different ``PYTHONHASHSEED``
values and asserting byte-identical serialized ExecutionReports —
totals, per-partition results *in order*, and the per-shard routing
assignment.

String group keys are the load-bearing detail: ``hash("g1")`` differs
between the two subprocesses, so any builtin-hash routing or set-ordered
merge shows up as a diff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Runs in a fresh interpreter; prints one canonical JSON document built
#: from the ExecutionReport, covering result values, partition order, and
#: shard routing.
_SCRIPT = """
import json
import random

from repro.events import Event
from repro.query import Query, Window, count_events, kleene, seq, sum_of
from repro.runtime import ShardRouter, run_sharded

rng = random.Random(7)
events = []
for index in range(240):
    type_name = rng.choice(("A", "B", "C"))
    events.append(
        Event(
            type_name,
            float(index),
            {"v": float(rng.randint(0, 5)), "g": "g%d" % rng.randint(1, 5)},
        )
    )

window = Window(24.0, 6.0)
workload = [
    Query.build(
        seq("A", kleene("B")),
        group_by=("g",),
        window=window,
        aggregate=count_events("B"),
        name="q_count",
    ),
    Query.build(
        seq("C", kleene("B")),
        group_by=("g",),
        window=window,
        aggregate=sum_of("B", "v"),
        name="q_sum",
    ),
]

# One ungrouped query more leaves no common GROUP BY: the router shards
# that workload by execution unit.
ungrouped = Query.build(seq("A", kleene("C")), window=window, name="q_all")
document = {}
for mode, queries in (("group", workload), ("unit", workload + [ungrouped])):
    report = run_sharded(queries, events, shards=4, workers=0)
    assert ShardRouter(queries, 4).mode == mode
    document[mode] = {
        "totals": sorted(report.totals.items()),
        "partitions": [
            [
                repr((partition.group_key, partition.window_index)),
                sorted(partition.results.items()),
            ]
            for partition in report.partition_results
        ],
        "shards": [
            [shard.shard_id, shard.events, sorted(shard.report.totals.items())]
            for shard in report.shards
        ],
    }
print(json.dumps(document, sort_keys=True))
"""


def _run_with_hash_seed(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, f"PYTHONHASHSEED={seed} run failed:\n{result.stderr}"
    return result.stdout


def test_sharded_reports_identical_across_hash_seeds():
    first = _run_with_hash_seed("0")
    second = _run_with_hash_seed("1")
    assert first == second, "sharded ExecutionReport varies with PYTHONHASHSEED"

    # Sanity: the run produced real results (not vacuously-equal empties).
    document = json.loads(first)
    grouped = {"q_count", "q_sum"}
    for mode, names in (("group", grouped), ("unit", grouped | {"q_all"})):
        totals = dict(document[mode]["totals"])
        assert set(totals) == names
        assert all(value > 0 for value in totals.values())
        assert document[mode]["partitions"]
    # Both routing modes agree on the results of the queries they share.
    unit_totals = dict(document["unit"]["totals"])
    assert all(unit_totals[name] == value for name, value in document["group"]["totals"])
    # Group routing actually spread work across shards (exercises
    # stable_shard_hash, the invariant under test).
    group_shards = [entry for entry in document["group"]["shards"] if entry[1] > 0]
    assert len(group_shards) >= 2
