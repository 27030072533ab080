"""Kill/restart soak for the fault-tolerant sharded runtime.

``python benchmarks/soak.py`` drives minutes-scale synthetic traffic
through the checkpointed, supervised :class:`~repro.runtime.sharding.
ShardedStreamingExecutor`, feeding each round one event at a time and
SIGKILLing a random live shard worker at seeded **event counts** — no
cooperation from the workers, no planted kill points: pure external
violence, found the way an operator would find the victims (the
``repro-shard-*`` children of this process).  Counting events instead of
seconds is what keeps the soak from being vacuous: however fast a round
runs, it schedules at least two kills, and a round in which none landed
fails.  After every round it asserts the soak contract:

* the merged report is **bit-identical** (canonical serialization, see
  :func:`faultline.canonical_report`) to an uninterrupted in-process run
  of the same round's stream;
* at least one kill landed on a live worker, and it was recovered from;
* the driver's RSS stays under a **flat ceiling**: recovery must not
  accumulate state — the replay buffer is bounded, dead incarnations'
  channels are reclaimed — so memory at the end of the soak looks like
  memory at the start;
* zero leaked ``/dev/shm/repro-ring-*`` segments and zero orphaned
  checkpoint ``*.tmp`` files once everything is torn down.

Every round runs under a hard deadline (:data:`ROUND_DEADLINE_SECONDS`):
a driver that hangs is killed with every thread's traceback on stderr,
never left to wedge the job.  Time-boxed by ``--seconds`` (default 90):
rounds repeat, each with its own seeded kill schedule, until the budget
is spent.  ``--transport both`` splits the budget between the pickle and
shm transports.  Exit status 0 on a fully green soak, 1 on any violation.

This is the *soak tier* (see docs/TESTING.md): too slow for the default
pytest run, wired into CI as its own time-boxed job.
"""

from __future__ import annotations

import argparse
import faulthandler
import glob
import multiprocessing
import os
import random
import signal
import sys
import time
from typing import Optional, Sequence

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

from repro.events.event import Event
from repro.query import Query, Window, kleene, seq
from repro.runtime import ShardedStreamingExecutor

from faultline import canonical_report, checkpoint_temp_files

#: Driver-RSS growth allowed over a soak before "flat ceiling" is judged
#: violated.  Generous: Python heaps fragment and arenas are sticky; the
#: failure mode hunted here is *unbounded* growth (a replay buffer or
#: channel leak scales with restart count), which blows through this in
#: any minutes-scale run.
DEFAULT_RSS_CEILING_MIB = 256.0

#: Hard deadline of one round (a few thousand events plus a handful of
#: recoveries: seconds).  Past it the process dumps every thread's
#: traceback and exits — a driver hang is a failure, not a wedged job.
ROUND_DEADLINE_SECONDS = 60.0


def _workload(window: Window) -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=window, name="skq1"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=window, name="skq2"),
    ]


def _stream(size: int, seed: int, groups: int) -> list[Event]:
    rng = random.Random(seed)
    events = []
    for index in range(size):
        type_name = rng.choices(("A", "B", "C"), weights=(1, 3, 1))[0]
        events.append(
            Event(type_name, float(index) * 0.25, {"g": float(rng.randint(1, groups))})
        )
    return events


def _rss_mib() -> float:
    """The driver's resident set size, in MiB (Linux /proc)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return 0.0


def _kill_schedule(
    rng: random.Random, events: int, min_gap: float, max_gap: float
) -> list[int]:
    """Event counts after which a kill lands: gaps are seeded draws from
    ``[min_gap, max_gap]``, as fractions of the round.  ``max_gap < 0.5``
    (checked by the parser) makes that at least two per round; the last
    one may fall on the final event, just ahead of ``finish()``."""
    schedule: list[int] = []
    at = 0
    while True:
        at += max(1, round(rng.uniform(min_gap, max_gap) * events))
        if at > events:
            return schedule
        schedule.append(at)


def _kill_live_worker(rng: random.Random) -> bool:
    """SIGKILL one seeded-random live shard worker of this process; False
    when there was none to kill."""
    live = sorted(
        (
            child
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")
        ),
        key=lambda child: child.name,
    )
    if not live:
        return False
    try:
        os.kill(rng.choice(live).pid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


def _soak_transport(
    transport: str,
    *,
    deadline: float,
    workers: int,
    events: int,
    base_seed: int,
    checkpoint_dir: str,
    kill_gap: tuple[float, float],
    verbose: bool,
) -> tuple[int, int, int, float]:
    """Soak one transport until ``deadline``; returns
    (rounds, total kills, total restarts, peak driver RSS MiB)."""
    window = Window(16.0, 4.0)
    rounds = kills = restarts = 0
    peak_rss = _rss_mib()
    while time.perf_counter() < deadline:
        seed = base_seed + rounds
        stream = _stream(events, seed, groups=8)
        baseline = canonical_report(
            ShardedStreamingExecutor(_workload(window), workers=0, shards=workers).run(
                stream
            )
        )
        executor = ShardedStreamingExecutor(
            _workload(window),
            workers=workers,
            batch_size=64,
            transport=transport,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=4,
            max_restarts=10_000,
        )
        rng = random.Random(seed)
        schedule = _kill_schedule(rng, len(stream), *kill_gap)
        round_kills = 0
        faulthandler.dump_traceback_later(ROUND_DEADLINE_SECONDS, exit=True)
        try:
            for count, event in enumerate(stream, 1):
                executor.process(event)
                if schedule and count == schedule[0]:
                    del schedule[0]
                    round_kills += _kill_live_worker(rng)
                    peak_rss = max(peak_rss, _rss_mib())
            report = executor.finish()
        finally:
            faulthandler.cancel_dump_traceback_later()
        rounds += 1
        kills += round_kills
        round_restarts = report.recovery.restarts if report.recovery else 0
        restarts += round_restarts
        peak_rss = max(peak_rss, _rss_mib())
        identical = canonical_report(report) == baseline
        if verbose or not identical:
            print(
                f"  [{transport}] round {rounds}: identical={identical} "
                f"kills={round_kills} restarts={round_restarts} "
                f"replayed={report.recovery.replayed_batches if report.recovery else 0} "
                f"rss={peak_rss:.0f}MiB"
            )
        if not identical:
            raise AssertionError(
                f"soak round {rounds} ({transport}): recovered report is NOT "
                f"bit-identical to the uninterrupted run (seed {seed})"
            )
        if not (round_kills and round_restarts):
            raise AssertionError(
                f"soak round {rounds} ({transport}): {round_kills} kills landed, "
                f"{round_restarts} restarts — the round proved nothing (seed {seed})"
            )
    return rounds, kills, restarts, peak_rss


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="soak",
        description="Randomized kill/restart soak of the fault-tolerant sharded runtime.",
    )
    parser.add_argument(
        "--seconds", type=float, default=90.0, help="total soak budget (default: 90)"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="shard worker processes (default: 2)"
    )
    parser.add_argument(
        "--events", type=int, default=4000, help="events per round (default: 4000)"
    )
    parser.add_argument("--seed", type=int, default=7, help="base seed (default: 7)")
    parser.add_argument(
        "--transport",
        choices=("pickle", "shm", "both"),
        default="both",
        help="transport(s) to soak (default: both, splitting the budget)",
    )
    parser.add_argument(
        "--kill-min-gap",
        type=float,
        default=0.15,
        help="minimum gap between kills, as a fraction of a round's events "
        "(default: 0.15)",
    )
    parser.add_argument(
        "--kill-max-gap",
        type=float,
        default=0.45,
        help="maximum gap between kills, same unit; must stay under 0.5 so "
        "every round schedules at least two (default: 0.45)",
    )
    parser.add_argument(
        "--rss-ceiling-mib",
        type=float,
        default=DEFAULT_RSS_CEILING_MIB,
        help=f"allowed driver RSS growth (default: {DEFAULT_RSS_CEILING_MIB:.0f})",
    )
    parser.add_argument(
        "--no-memory-check",
        action="store_true",
        help="skip the flat-memory-ceiling assertion",
    )
    parser.add_argument("--verbose", action="store_true", help="print every round")
    arguments = parser.parse_args(argv)
    if arguments.workers < 1:
        parser.error("--workers must be >= 1 (the soak needs processes to kill)")
    if not 0.0 < arguments.kill_min_gap <= arguments.kill_max_gap < 0.5:
        parser.error("kill gaps must satisfy 0 < min <= max < 0.5 (>= 2 kills a round)")

    import tempfile

    transports = (
        ["pickle", "shm"] if arguments.transport == "both" else [arguments.transport]
    )
    started = time.perf_counter()
    start_rss = _rss_mib()
    budget_each = arguments.seconds / len(transports)
    total_rounds = total_kills = total_restarts = 0
    peak_rss = start_rss
    ok = True
    for transport in transports:
        deadline = time.perf_counter() + budget_each
        with tempfile.TemporaryDirectory(prefix=f"soak-ckpt-{transport}-") as ckpt_dir:
            try:
                rounds, kills, restarts, rss = _soak_transport(
                    transport,
                    deadline=deadline,
                    workers=arguments.workers,
                    events=arguments.events,
                    base_seed=arguments.seed,
                    checkpoint_dir=ckpt_dir,
                    kill_gap=(arguments.kill_min_gap, arguments.kill_max_gap),
                    verbose=arguments.verbose,
                )
            except AssertionError as error:
                print(f"SOAK FAILURE: {error}")
                ok = False
                break
            leaked_tmp = checkpoint_temp_files(ckpt_dir)
            if leaked_tmp:
                print(f"SOAK FAILURE: orphaned checkpoint temp files: {leaked_tmp}")
                ok = False
            total_rounds += rounds
            total_kills += kills
            total_restarts += restarts
            peak_rss = max(peak_rss, rss)
            print(
                f"[{transport}] {rounds} rounds, {kills} kills, "
                f"{restarts} restarts — all bit-identical"
            )
    leaked_shm = sorted(glob.glob("/dev/shm/repro-ring-*"))
    if leaked_shm:
        print(f"SOAK FAILURE: leaked shared-memory segments: {leaked_shm}")
        ok = False
    if total_restarts < 1 and ok:
        print("SOAK FAILURE: no worker restart happened — nothing was proven")
        ok = False
    growth = peak_rss - start_rss
    if not arguments.no_memory_check and growth > arguments.rss_ceiling_mib:
        print(
            f"SOAK FAILURE: driver RSS grew {growth:.0f}MiB "
            f"(ceiling {arguments.rss_ceiling_mib:.0f}MiB) — recovery is leaking"
        )
        ok = False
    elapsed = time.perf_counter() - started
    print(
        f"soak {'PASSED' if ok else 'FAILED'}: {total_rounds} rounds / "
        f"{total_kills} kills / {total_restarts} restarts in {elapsed:.0f}s, "
        f"driver RSS {start_rss:.0f} -> peak {peak_rss:.0f}MiB"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
