"""``run_streaming`` / ``run_sharded`` forward to their constructors.

The wrappers used to re-declare the constructors' keyword-only arguments
with copied defaults and drifted (``run_sharded`` lost ``on_window`` and a
since-deleted supervision knob).  They take ``**options`` now; this walks each
constructor's signature so a keyword added there is reachable through the
wrapper by construction — and pins how many there are.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core import HamletEngine
from repro.errors import SharingError
from repro.events import Event
from repro.optimizer import OPTIMIZER_POLICIES, DynamicSharingOptimizer
from repro.query import Query, Window, kleene, seq
from repro.runtime import (
    CheckpointStore,
    ShardRouter,
    ShardedStreamingExecutor,
    StreamingExecutor,
    run_sharded,
    run_streaming,
)
from repro.runtime.reorder import validate_stream_options

QUERIES = [Query.build(seq("A", kleene("B")), window=Window(8.0, 4.0), name="wq")]
EVENTS = [Event("AB"[index % 2], float(index)) for index in range(40)]


@pytest.mark.parametrize(
    "wrapper, executor, keyword_only",
    ((run_streaming, StreamingExecutor, 6), (run_sharded, ShardedStreamingExecutor, 12)),
    ids=("run_streaming", "run_sharded"),
)
def test_every_constructor_keyword_passes_through(monkeypatch, wrapper, executor, keyword_only):
    parameters = inspect.signature(executor.__init__).parameters.values()
    names = [p.name for p in parameters if p.kind is inspect.Parameter.KEYWORD_ONLY]
    assert len(names) == keyword_only
    received: dict = {}

    def init(self, workload, engine_factory, **options):
        received.update(options, workload=workload, engine_factory=engine_factory)

    monkeypatch.setattr(executor, "__init__", init)
    monkeypatch.setattr(executor, "run", lambda self, stream: ("ran", stream))
    for name in names:
        received.clear()
        token = object()
        assert wrapper(QUERIES, EVENTS, **{name: token}) == ("ran", EVENTS)
        assert received == {"workload": QUERIES, "engine_factory": HamletEngine, name: token}


def test_the_keywords_run_sharded_had_lost_work_and_unknown_ones_still_fail():
    emitted = []
    report = run_sharded(
        QUERIES, EVENTS, on_window=emitted.append, shards=2, max_restarts=1
    )
    assert len(emitted) == len(report.partition_results) > 0
    assert report.totals == run_streaming(QUERIES, EVENTS).totals
    for wrapper in (run_streaming, run_sharded):
        with pytest.raises(TypeError, match="no_such_option"):
            wrapper(QUERIES, EVENTS, no_such_option=1)


@pytest.mark.parametrize(
    "build, option",
    (
        (StreamingExecutor, "lazy_open"),
        (ShardedStreamingExecutor, "lazy_open"),
        (ShardedStreamingExecutor, "routing"),
        (lambda queries, **option: ShardRouter(queries, 2, **option), "routing"),
        (lambda queries, **option: CheckpointStore("unused", 0, **option), "keep"),
    ),
    ids=("streaming-lazy_open", "sharded-lazy_open", "sharded-routing", "router-routing",
         "checkpoint-keep"),
)
def test_window_opening_routing_and_kept_snapshots_are_constants_not_options(build, option):
    """Windows always open lazily, the router derives its mode from the
    workload and a shard keeps ``checkpoint.KEEP`` snapshots: none of the
    three is a keyword."""
    with pytest.raises(TypeError, match=option):
        build(QUERIES, **{option: False})


@pytest.mark.parametrize(
    "build",
    (
        StreamingExecutor,
        ShardedStreamingExecutor,
        lambda queries, optimizer: validate_stream_options(optimizer, None, "raise", None),
    ),
    ids=("streaming", "sharded", "validate_stream_options"),
)
def test_optimizer_takes_a_policy_name_not_a_factory(build):
    """``optimizer=`` is ``None`` or a name of ``OPTIMIZER_POLICIES``, so a
    policy always crosses to a shard worker as a name: a factory — even
    one the registry holds — or an unknown name raises ``SharingError``."""
    for refused in (DynamicSharingOptimizer, OPTIMIZER_POLICIES["never"], "sometimes"):
        with pytest.raises(SharingError, match="policy name"):
            build(QUERIES, optimizer=refused)
    for accepted in (None, *OPTIMIZER_POLICIES):
        build(QUERIES, optimizer=accepted)
