"""An unhashable GROUP BY value is a typed error on every ingest path.

A payload like ``{"g": [1]}`` cannot key a group.  Wherever the key is
hashed — ``events.block.group_codes`` for a block or a fold of staged rows,
the router for a sharded driver — it must surface as a
:class:`~repro.errors.SchemaError` naming the attribute, never as a bare
``TypeError``.
"""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.events import Event, EventBlock
from repro.events.block import group_codes
from repro.query import Query, Window, kleene, seq
from repro.runtime import ShardedStreamingExecutor, StreamingExecutor

WINDOW = Window(10.0, 4.0)


def queries() -> list[Query]:
    return [
        Query.build(seq("A", kleene("B")), group_by=("g",), window=WINDOW, name="uk_ab"),
        Query.build(seq("C", kleene("B")), group_by=("g",), window=WINDOW, name="uk_cb"),
    ]


def events() -> list[Event]:
    """Hashable rows, then one whose group value is a list."""
    rows = [Event("A", 1.0, {"g": 1.0}), Event("B", 2.0, {"g": 2.0})]
    return [*rows, Event("B", 3.0, {"g": [1]}), Event("B", 4.0, {"g": 1.0})]


def unhashable(error: pytest.ExceptionInfo) -> None:
    assert "'g'" in str(error.value) and "[1]" in str(error.value)


def test_group_codes_names_the_attribute():
    with pytest.raises(SchemaError) as error:
        group_codes(("h", "g"), [["x", "y"], [1.0, {"k": 2}]], 2)
    assert "'g'" in str(error.value) and "{'k': 2}" in str(error.value)


def test_process_raises_at_the_fold():
    executor = StreamingExecutor(queries())
    for event in events():
        executor.process(event)
    with pytest.raises(SchemaError) as error:
        executor.finish()
    unhashable(error)


def test_process_block_raises():
    executor = StreamingExecutor(queries())
    with pytest.raises(SchemaError) as error:
        executor.process_block(EventBlock.from_events(events()))
    unhashable(error)


@pytest.mark.parametrize("ingest", ("events", "block"))
def test_in_process_sharded_driver_raises(ingest):
    executor = ShardedStreamingExecutor(queries(), workers=0, shards=2)
    with pytest.raises(SchemaError) as error:
        if ingest == "block":
            executor.process_block(EventBlock.from_events(events()))
        else:
            for event in events():
                executor.process(event)
    unhashable(error)


@pytest.mark.parametrize("ingest", ("events", "block"))
def test_pool_sharded_driver_raises(ingest):
    executor = ShardedStreamingExecutor(queries(), workers=2)
    stream = EventBlock.from_events(events()) if ingest == "block" else events()
    with pytest.raises(SchemaError) as error:
        executor.run(stream)  # run() shuts the pool down on the way out
    unhashable(error)
