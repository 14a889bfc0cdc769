"""The harness's own quick tests (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

They launch the real children with ``--smoke`` schedules (1 window x
2 s), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
for _path in (str(REPO / "src"), str(REPO)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import harness, metrics as M, workloads  # noqa: E402
from benchmarks.e2e.client import Connection, wire_request  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_the_registry_and_inside_the_contract_limits():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    assert contract == M.benchmark_contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in contract[key]]
    assert len(names) == len(set(names)) and all(_NAME.match(n) for n in names)
    for workload in contract["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert _UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 12) < 3420  # set-ups, warm-up, verify


@pytest.mark.parametrize("name", [w.name for w in M.WORKLOADS])
def test_same_seed_same_bytes_and_cycles_leave_the_store_as_found(name):
    first, again, other = (workloads.build(name, s) for s in (5, 5, 6))
    assert first.digest == again.digest
    assert [r.wire for c in first.clients for r in c.cycle] == \
           [r.wire for c in again.clients for r in c.cycle]
    assert first.digest != other.digest
    for stream in first.clients:
        assert stream.live_after(len(stream.cycle)) == stream.live_after(0)


def test_a_different_seed_changes_deploy_bodies_and_attack_interleaving():
    bodies = [{r.body for r in workloads.build("deploy_miss", s).clients[0].cycle[:50] if r.body}
              for s in (5, 6)]
    assert not bodies[0] & bodies[1]
    order = [[r.check for r in workloads.build("attack_deny", s).clients[0].cycle[:400]]
             for s in (5, 6)]
    assert order[0] != order[1]
    assert abs(order[0].count(workloads.FORBIDDEN) - 200) <= 2  # a 50/50 mix in any window


def test_client_floor_is_under_a_millisecond():
    assert harness.client_floor_us() < 1000.0


def _contract_run(*args: str) -> tuple[int, dict]:
    done = subprocess.run(RUN + list(args), cwd=REPO, capture_output=True, text=True,
                          timeout=170)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_untraced_prints_every_end_to_end_metric():
    code, line = _contract_run("--workload", "attack_deny", "--seed", "3", "--smoke",
                               "--trace", "0")
    assert code == 0 and line["correct"] is True and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m.name for m in M.END_TO_END]
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_traced_prints_every_per_layer_metric_and_writes_spans():
    code, line = _contract_run("--workload", "deploy_miss", "--seed", "3", "--smoke",
                               "--trace", "1")
    assert code == 0 and line["correct"] is True
    assert list(line["metrics"]) == [m.name for m in M.PER_LAYER]
    assert line["metrics"]["core.proxy.cache_hit_ratio"]["value"] <= 0.01
    spans = [json.loads(s) for s in
             (HERE / "results" / "trace_deploy_miss.jsonl").read_text().splitlines()]
    assert {"name", "start_ns", "end_ns", "parent", "request"} == set(spans[0])
    assert {"client.body_gap", "layer.k8s.apiserver.handle_create"} <= {s["name"] for s in spans}


def test_the_verifier_sees_a_rogue_object_a_wrong_reply_and_a_lost_write():
    with harness.Rig("reconcile_hit", 3, traced=False) as rig:
        arm = rig.proxied
        collections = rig.workload.collections()
        assert harness.verify_live_set(collections, arm) == []
        created = rig.workload.clients[0].prologue[0]
        rogue = created.body.replace(b"rec3-", b"rogue-")
        conn = Connection(arm.api_port)
        try:
            status, *_ = conn.exchange(wire_request(
                "POST", created.path, "kubernetes-admin", rogue, groups="system:masters"))
        finally:
            conn.close()
        assert status == 201
        assert "unexpected object" in harness.verify_live_set(collections, arm)[0]
        assert harness._reply_problem(created, rogue) == "reply does not echo the object"
        acked = arm.total("acked_writes") + 1  # the rogue write was acknowledged too
        arm.close()
        rig.children.stop()
        assert harness.verify_recovery(rig.children.data_dir, acked)[0] == []
        assert "!=" in harness.verify_recovery(rig.children.data_dir, acked + 1)[0][0]


def test_a_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "trace_*"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "reconcile_hit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and '"metrics"' not in done.stdout
