"""Every ``REPRO_*`` variable the code reads is documented, and every
documented one is read: the "Configuration" table in
``docs/architecture.md`` is diffed against the literals in ``src/``
both ways.  The switches that used to select a second data plane or a
null telemetry plane must not come back anywhere in the tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_NAME = re.compile(r"REPRO_[A-Z_]+")

#: Spelled in two parts so this file does not trip its own scan.
REMOVED = tuple("REPRO_NO_" + arm for arm in ("SHARDS", "COMPILE", "WAL", "OBS"))


def _names_in(paths) -> set[str]:
    return {
        name
        for path in paths
        for name in ENV_NAME.findall(path.read_text(encoding="utf-8"))
    }


def _configuration_table() -> set[str]:
    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return {ENV_NAME.search(row.split("|")[1]).group() for row in rows}


def test_configuration_table_matches_src_both_ways():
    in_src = _names_in((ROOT / "src").rglob("*.py"))
    documented = _configuration_table()
    assert in_src - documented == set(), "read in src/ but not documented"
    assert documented - in_src == set(), "documented but read nowhere in src/"


def test_removed_switches_appear_nowhere():
    scanned = [ROOT / "README.md"]
    for top in ("src", "tests", "benchmarks", "docs", ".github"):
        scanned += [
            path
            for path in (ROOT / top).rglob("*")
            # committed result documents record the runs that produced them
            if path.is_file() and path.suffix not in (".json", ".jsonl", ".pyc")
        ]
    offenders = [
        str(path.relative_to(ROOT))
        for path in scanned
        if any(name in path.read_text(encoding="utf-8", errors="replace") for name in REMOVED)
    ]
    assert offenders == []
