"""The history row lifts end-to-end columns from a ``run.py --out``
report, read by filename beside the other snapshots."""

import json

from benchmarks.bench_history import build_row, main


def _report(*workloads: str) -> dict:
    """A two-run report shaped like ``benchmarks/e2e/run.py --out``."""

    def run(value: float) -> dict:
        return {"seed": 1337, "correct": True, "workloads": {
            name: {
                "end_to_end": {"metrics": {
                    "rtt_p50_ms": {"value": value, "unit": "ms", "spread": 0.01,
                                   "windows": [value]},
                    "throughput_rps": {"value": 10 * value, "unit": "1/s", "spread": 0.0,
                                       "windows": [10 * value]},
                }},
                "per_layer": {"metrics": {
                    "client.ttfb_ms": {"value": 9.0, "unit": "ms", "spread": 0.0,
                                       "windows": [9.0]},
                }},
            } for name in workloads
        }}

    return {"environment": {"nproc": 2}, "runs": [run(3.0), run(99.0)]}


def test_e2e_columns_come_from_the_first_runs_end_to_end_metrics(tmp_path):
    (tmp_path / "BENCH_e2e.json").write_text(json.dumps(_report("reconcile_hit", "read_mostly")))
    row = build_row(tmp_path)
    e2e = {key: value for key, value in row.items() if key.startswith("e2e_")}
    assert e2e == {
        "e2e_reconcile_hit_rtt_p50_ms": 3.0,
        "e2e_reconcile_hit_throughput_rps": 30.0,
        "e2e_read_mostly_rtt_p50_ms": 3.0,
        "e2e_read_mostly_throughput_rps": 30.0,
    }


def test_e2e_report_alone_lands_a_row(tmp_path, capsys):
    (tmp_path / "BENCH_e2e.json").write_text(json.dumps(_report("deploy_miss")))
    assert main(["--results-dir", str(tmp_path)]) == 0
    (line,) = (tmp_path / "BENCH_history.jsonl").read_text().splitlines()
    assert json.loads(line)["e2e_deploy_miss_rtt_p50_ms"] == 3.0


def test_no_e2e_report_no_e2e_columns(tmp_path):
    (tmp_path / "BENCH_gates.json").write_text(json.dumps({"scan": {"activity": 4}}))
    row = build_row(tmp_path)
    assert row["scan_activity"] == 4
    assert not [key for key in row if key.startswith("e2e_")]
