"""Line-budget ratchet for the big runtime modules.

ROADMAP item 2: every perf PR of the last round grew them.  The ceilings
are each module's length after the PR that last shrank it; a PR may not
push a module past its ceiling without saying why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RUNTIME = Path(__file__).resolve().parents[2] / "src" / "repro" / "runtime"

#: module -> ``wc -l`` ceiling.
CEILINGS = {
    "streaming.py": 1288,
    "lateness.py": 302,
    "sharding.py": 1240,
    "routing.py": 319,
    "shared_windows.py": 1381,
    "results.py": 144,
    "reorder.py": 596,
}


@pytest.mark.parametrize("module", sorted(CEILINGS))
def test_module_stays_within_its_line_budget(module):
    lines = (RUNTIME / module).read_text().count("\n")
    assert lines <= CEILINGS[module], (
        f"{module} has {lines} lines, over its ceiling of {CEILINGS[module]}: "
        "lower the number when a module shrinks; raising it needs a sentence "
        "in CHANGES.md saying what the lines buy"
    )
