"""Fold the recorded ``BENCH_PR*.json`` files into one trajectory table.

Each PR's perf_smoke run leaves a JSON record next to the repo root; this
tool renders them into ``docs/BENCH_TRAJECTORY.md`` — one table of
``PR x suite x scenario`` rows (deterministic operation counts next to the
wall numbers of the recording machine) plus the headline ratios each file
carries.  The table is the quick answer to "what did each PR buy?" without
spelunking through nine JSON files.

Modes::

    python benchmarks/trend.py           # rewrite docs/BENCH_TRAJECTORY.md
    python benchmarks/trend.py --check   # exit 1 if the checked-in doc is stale

CI runs ``--check`` (the doc must be regenerated whenever a BENCH file
changes) and uploads the rendered table as a build artifact.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_PATH = REPO_ROOT / "docs" / "BENCH_TRAJECTORY.md"

#: Top-level container keys holding headline ratios, in render order.
RATIO_KEYS = (
    "speedup_streaming_over_batch",
    "speedup_shared_over_pr2",
    "deep_overlap_slowdown",
    "speedup_sharded_over_single",
    "adaptive_vs_static",
    "speedup_shm_over_pickle",
    "speedup_numpy_over_python",
    "speedup_block_over_per_event",
    "speedup_after_over_before",
)


def bench_files() -> list[tuple[int, Path]]:
    """The recorded files, ordered by PR number."""
    found = []
    for path in REPO_ROOT.glob("BENCH_PR*.json"):
        match = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def baseline_rows(runs: dict) -> dict:
    """The rows the perf_smoke gate reads: every recorded label's, row by
    row, a later label (``before`` < ``after`` < any other, by name)
    replacing an earlier one's — so a re-recording under a new label can add
    a scenario without discarding the rows it did not run."""
    rows: dict = {}
    for label in sorted(runs, key=lambda name: ({"before": 0, "after": 1}.get(name, 2), name)):
        rows.update(runs[label])
    return rows


def iter_suites(container: dict):
    """Yield ``(suite name, runs dict, ratio holder)`` for either layout."""
    if "suites" in container:
        for section, node in container["suites"].items():
            yield section, node.get("runs", {}), node
    else:
        name = container.get("benchmark", "?").rpartition("/")[2]
        yield name, container.get("runs", {}), container


def _flatten_ratios(value, prefix: str = "") -> list[tuple[str, object]]:
    if isinstance(value, dict):
        flat: list[tuple[str, object]] = []
        for key in sorted(value):
            label = f"{prefix}.{key}" if prefix else key
            flat.extend(_flatten_ratios(value[key], label))
        return flat
    return [(prefix, value)]


def render() -> str:
    lines = [
        "# Benchmark trajectory",
        "",
        "Generated by `python benchmarks/trend.py` from the recorded",
        "`BENCH_PR*.json` files — do not edit by hand (CI checks staleness",
        "with `--check`).  Operation counts are deterministic and gated;",
        "wall numbers (`ev/s`, seconds) are best-of-N on the recording",
        "machine of that PR and comparable only within a row's file.",
        "",
        "| PR | suite | scenario | ops | ev/s | wall s |",
        "|---:|---|---|---:|---:|---:|",
    ]
    ratio_sections: list[str] = []
    for number, path in bench_files():
        container = json.loads(path.read_text())
        for suite_name, runs, holder in iter_suites(container):
            for scenario in sorted(baseline_rows(runs)):
                row = baseline_rows(runs)[scenario]
                lines.append(
                    f"| {number} | {suite_name} | {scenario} "
                    f"| {row.get('operations', '')} "
                    f"| {row.get('events_per_second', '')} "
                    f"| {row.get('wall_seconds', '')} |"
                )
            ratios = [
                (key, holder[key]) for key in RATIO_KEYS if key in holder
            ]
            # Sectioned files keep cross-suite ratios on the container.
            if holder is not container:
                ratios.extend(
                    (key, container[key])
                    for key in RATIO_KEYS
                    if key in container and key not in dict(ratios)
                )
            for key, value in ratios:
                for label, number_value in _flatten_ratios(value):
                    ratio_sections.append(
                        f"- PR {number} · {suite_name} · `{key}.{label}` = "
                        f"{number_value}"
                    )
    lines += ["", "## Headline ratios", ""]
    # Cross-suite ratios repeat once per section of their file; dedupe.
    seen: set[str] = set()
    for entry in ratio_sections:
        if entry not in seen:
            seen.add(entry)
            lines.append(entry)
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) if the checked-in table is stale instead of rewriting it",
    )
    args = parser.parse_args(argv)
    rendered = render()
    shown = (
        DOC_PATH.relative_to(REPO_ROOT) if DOC_PATH.is_relative_to(REPO_ROOT) else DOC_PATH
    )
    if args.check:
        current = DOC_PATH.read_text() if DOC_PATH.exists() else ""
        if current != rendered:
            print(
                f"trend: {shown} is stale; "
                "regenerate with `python benchmarks/trend.py`",
                file=sys.stderr,
            )
            return 1
        print(f"trend: {shown} is current")
        return 0
    DOC_PATH.write_text(rendered)
    print(f"trend: wrote {shown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
