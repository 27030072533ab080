"""Line-budget ratchet for the big runtime and events modules and the design doc.

ROADMAP item 2: every perf PR of the last round grew them.  The ceilings
are each module's length after the PR that last shrank it; a PR may not
push a module past its ceiling without saying why.  ``docs/DESIGN.md``
describes the current architecture, with history by reference to
CHANGES.md, so it may only shrink.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

#: module, relative to ``src/repro`` -> ``wc -l`` ceiling.
CEILINGS = {
    "runtime/streaming.py": 1071,
    "runtime/lateness.py": 318,
    "runtime/sharding.py": 1117,
    "runtime/routing.py": 305,
    "runtime/shared_windows.py": 1213,
    "runtime/foldcore.py": 172,
    "runtime/_foldcore.c": 3153,
    "runtime/cover.py": 287,
    "runtime/close.py": 261,
    "runtime/results.py": 198,
    "runtime/reorder.py": 399,
    "runtime/executor.py": 325,
    "events/columnar.py": 497,
    "events/block.py": 786,
}


@pytest.mark.parametrize("module", sorted(CEILINGS))
def test_module_stays_within_its_line_budget(module):
    lines = (PACKAGE / module).read_text().count("\n")
    assert lines <= CEILINGS[module], (
        f"{module} has {lines} lines, over its ceiling of {CEILINGS[module]}: "
        "lower the number when a module shrinks; raising it needs a sentence "
        "in CHANGES.md saying what the lines buy"
    )


#: ``docs/DESIGN.md``'s ``wc -l`` ceiling.
DESIGN_CEILING = 1469


def test_design_doc_only_shrinks():
    lines = (ROOT / "docs" / "DESIGN.md").read_text(encoding="utf-8").count("\n")
    assert lines <= DESIGN_CEILING, (
        f"docs/DESIGN.md has {lines} lines, over its ceiling of {DESIGN_CEILING}: "
        "replace what a change makes stale instead of appending, and lower "
        "the number when the doc shrinks"
    )
