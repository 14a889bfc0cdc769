"""Append one timestamped row of headline benchmark figures to
``benchmarks/results/BENCH_history.jsonl``.

``BENCH_gates.json`` (the perf gates), ``BENCH_campaign.json`` (the
campaign matrix) and ``BENCH_e2e.json`` (a ``benchmarks/e2e/run.py
--out`` report) are full point-in-time snapshots; this script distills
the run into a single JSON line so CI artifacts accumulate a
machine-readable trend series (one row per CI run) instead of a pile
of unrelated snapshots.  Trend-watching the
series catches slow drift that the per-run gates -- which only compare
against a fixed limit -- cannot: a metric creeping from 1% to 4.9%
passes every gate while quietly eating the budget.

Usage (CI runs this right after the perf gates, before the artifact
upload)::

    python benchmarks/bench_history.py [--results-dir DIR] [--out FILE]

Missing snapshot files are skipped (their columns are simply absent
from the row), so partial gate runs still land a row.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
HISTORY_PATH = RESULTS_DIR / "BENCH_history.jsonl"

#: snapshot file -> (column prefix, keys to lift into the row).
#: ``BENCH_gates.json`` holds one result per gate and has no prefix of
#: its own: its columns are ``<gate>_<key>``.
_EXTRACT: dict[str, tuple[str | None, tuple[str, ...]]] = {
    "BENCH_gates.json": (
        None,
        (
            "speedup",
            "compiled_ops_per_sec",
            "interpreted_ops_per_sec",
            "overhead_percent",
            "inprocess_overhead_percent",
            "us_per_request",
            "activity",
        ),
    ),
    "BENCH_campaign.json": (
        "campaign",
        (
            "cells_run",
            "breached_cells",
            "containment_rate",
            "baseline_mitigated",
            "mitigation_gap",
            "wall_time_s",
        ),
    ),
}

#: A ``benchmarks/e2e/run.py --out`` report: its first run's end-to-end
#: metrics become ``e2e_<workload>_<metric>`` columns.
E2E_SNAPSHOT = "BENCH_e2e.json"


def _e2e_columns(report: dict[str, Any]) -> dict[str, Any]:
    runs = report.get("runs") or [{}]
    return {
        f"e2e_{workload}_{metric}": measured["value"]
        for workload, entry in runs[0].get("workloads", {}).items()
        for metric, measured in entry.get("end_to_end", {}).get("metrics", {}).items()
    }


def _git_sha() -> str:
    """Commit under measurement: CI env first, local checkout fallback."""
    sha = os.environ.get("GITHUB_SHA", "")
    if sha:
        return sha
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=BENCH_DIR,
        ).stdout.strip()
    except OSError:
        return ""


def _load(path: Path) -> dict[str, Any] | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def build_row(results_dir: Path) -> dict[str, Any]:
    """One flat history row from whatever snapshots are present."""
    row: dict[str, Any] = {
        "ts": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "sha": _git_sha(),
    }
    for filename, (prefix, keys) in _EXTRACT.items():
        snapshot = _load(results_dir / filename)
        if snapshot is None:
            continue
        groups = snapshot if prefix is None else {prefix: snapshot}
        for group, result in groups.items():
            for key in keys:
                if key in result:
                    row[f"{group}_{key}"] = result[key]
    report = _load(results_dir / E2E_SNAPSHOT)
    if report is not None:
        row.update(_e2e_columns(report))
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", type=Path, default=RESULTS_DIR,
        help="directory holding the BENCH_*.json snapshots",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="history file to append to "
             "(default: <results-dir>/BENCH_history.jsonl)",
    )
    args = parser.parse_args(argv)
    out = args.out or args.results_dir / "BENCH_history.jsonl"

    row = build_row(args.results_dir)
    measured = [k for k in row if k not in ("ts", "sha")]
    if not measured:
        print("no BENCH_*.json snapshots found; nothing to record")
        return 1
    out.parent.mkdir(exist_ok=True)
    with out.open("a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended {len(measured)} figure(s) to {out}")
    print(json.dumps(row, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
