"""Line-budget ratchet for the big runtime modules and the design doc.

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
RUNTIME = ROOT / "src" / "repro" / "runtime"

#: module -> ``wc -l`` ceiling.
CEILINGS = {
    "streaming.py": 1071,
    "lateness.py": 320,
    "sharding.py": 1117,
    "routing.py": 305,
    "shared_windows.py": 1213,
    "foldcore.py": 167,
    "_foldcore.c": 2651,
    "cover.py": 287,
    "close.py": 256,
    "results.py": 198,
    "reorder.py": 400,
    "executor.py": 325,
}


@pytest.mark.parametrize("module", sorted(CEILINGS))
def test_module_stays_within_its_line_budget(module):
    lines = (RUNTIME / module).read_text().count("\n")
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
