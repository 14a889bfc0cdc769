#!/usr/bin/env python3
"""The real-socket end-to-end benchmark: one command.

::

    python3 benchmarks/e2e/run.py --seed 1337          # all four workloads,
    PYTHONPATH=src python -m benchmarks.e2e.run ...    # untraced then traced

    python3 benchmarks/e2e/run.py --workload deploy_miss --seed 7 \\
        --seconds 20 --trace 0                         # one contract run

    ... --aa [--out results/baseline.json]             # same code twice, compare
    ... --smoke                                        # 1 window x 2 s, for tests

Every run starts the system under test with production defaults and
every ``REPRO_*`` variable scrubbed, verifies its outputs, and prints
every metric by name with its unit and spread.  The last line of
standard output is the contract's JSON object.  Exit code 0 only when
every reply, the committed state, the cache regime and the recovered
revision were all correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

TOPOLOGY = (
    "topology: 3 processes on loopback, not a link -- load generator (1 process, "
    "2 threads, one keep-alive connection per proxy each) -> proxy child (five "
    "HttpKubeFenceProxy, one per operator) -> API-server child (HttpApiServer over "
    "Cluster(data_dir, fsync=batch)); production defaults, REPRO_* scrubbed.\n"
    "load: closed loop, 2 clients -- each sends its next request only after the "
    "previous reply is complete (operators and kubectl wait for replies)."
)


def _bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable from a plain
    ``python3 benchmarks/e2e/run.py``, with production defaults."""
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"benchmarks/e2e: {REPO / 'src' / 'repro'} not found -- the benchmark "
            "measures the program in this checkout and cannot run without it\n"
        )
        raise SystemExit(2)
    for knob in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[knob]
    for path in (str(REPO / "src"), str(REPO)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _print_result(result: "object") -> None:
    from benchmarks.e2e import metrics as M

    kind = "traced (per-layer)" if result.traced else "untraced (end-to-end)"
    print(f"\n== {result.workload} · {kind} · seed {result.seed} "
          f"· stream sha256 {result.digest[:16]}")
    print(f"   why: {result.why}")
    for spec in (M.PER_LAYER if result.traced else M.END_TO_END):
        got = result.metrics.get(spec.name)
        if got is None:
            print(f"   {spec.name:<34} (not measured)")
            continue
        bound = f"  bound {spec.bound:.0%}" if spec.bound is not None else ""
        print(f"   {spec.name:<34} {got['value']:>14.4f} {spec.unit:<6} "
              f"spread {got['spread']:>7.2%}  n={len(got['windows'])}{bound}")
    print(f"   ops_attempted {result.attempted}  ops_failed {result.failed}  "
          f"correct {result.correct}")
    for problem in result.problems[:10]:
        print(f"   PROBLEM: {problem}")
    if result.traced:
        from benchmarks.e2e.harness import write_spans

        print(f"   spans -> {write_spans(result)}")


def _environment() -> dict:
    from repro.bench import environment_metadata

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                             capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {**environment_metadata(), "nproc": os.cpu_count(), "commit": sha or "unknown",
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def run_all(seed: int, schedule: "object", times: int = 1) -> list[dict]:
    """Every workload untraced, then traced, *times* over; returns one
    JSON-able report per time.  The repeats alternate workload by
    workload (A, B, A, B, ...), so that the slow drift of a shared
    machine falls on both reports alike."""
    from benchmarks.e2e import harness, metrics as M

    reports: list[dict] = [{"seed": seed, "workloads": {}} for _ in range(times)]
    for spec in M.WORKLOADS:
        for report in reports:
            entry = report["workloads"][spec.name] = {}
            for key, run in (("end_to_end", harness.run_untraced),
                             ("per_layer", harness.run_traced)):
                result = run(spec.name, seed, schedule)
                _print_result(result)
                entry[key] = result.to_dict()
    for report in reports:
        report["correct"] = all(
            part["correct"] for entry in report["workloads"].values() for part in entry.values()
        )
    return reports


def compare_aa(first: dict, second: dict) -> tuple[list[dict], bool]:
    """Per workload and end-to-end metric: both medians, their relative
    difference and the bound; ``ok`` is False if any differs by more."""
    from benchmarks.e2e import metrics as M

    rows, ok = [], first["correct"] and second["correct"]
    for spec in M.WORKLOADS:
        for metric in M.END_TO_END:
            a = first["workloads"][spec.name]["end_to_end"]["metrics"][metric.name]["value"]
            b = second["workloads"][spec.name]["end_to_end"]["metrics"][metric.name]["value"]
            diff = abs(a - b) / min(abs(a), abs(b))
            within = diff <= metric.bound
            ok = ok and within
            rows.append({"workload": spec.name, "metric": metric.name, "unit": metric.unit,
                         "a": a, "b": b, "rel_diff": diff, "bound": metric.bound,
                         "within": within})
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    _bootstrap()
    from benchmarks.e2e import harness, metrics as M

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in M.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--seconds", type=float, default=float(M.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 window x 2 s, one set-up: the harness's own quick test")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice on the same code and seed and compare")
    parser.add_argument("--out", type=Path, help="write the JSON report here")
    args = parser.parse_args(argv)
    schedule = harness.Schedule.smoke() if args.smoke else harness.Schedule(args.seconds)
    print(TOPOLOGY)
    print(f"schedule: {schedule.warmup:g} s warm-up, {schedule.windows} windows x "
          f"{schedule.window:g} s; an end-to-end metric = its quietest window or set-up "
          f"(a shared host only adds time), a per-layer metric = its median; "
          f"spread = IQR / median of the windows")

    if args.workload:
        run = harness.run_traced if args.trace else harness.run_untraced
        result = run(args.workload, args.seed, schedule)
        _print_result(result)
        if args.out:
            args.out.write_text(json.dumps(result.to_dict(), indent=1) + "\n")
        print(result.contract_line())
        return 0 if result.correct else 1

    report = {"environment": _environment(),
              "runs": run_all(args.seed, schedule, times=2 if args.aa else 1)}
    ok = report["runs"][0]["correct"]
    if args.aa:
        rows, ok = compare_aa(*report["runs"])
        report["aa"] = rows
        print("\n== A/A: same code, same seed, two runs")
        for row in rows:
            flag = "ok" if row["within"] else "DISAGREE"
            print(f"   {row['workload']:<14} {row['metric']:<16} {row['a']:>12.4f} "
                  f"{row['b']:>12.4f} {row['unit']:<4} diff {row['rel_diff']:>6.2%} "
                  f"bound {row['bound']:.0%}  {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"\nreport -> {args.out}")
    print(f"\n{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
