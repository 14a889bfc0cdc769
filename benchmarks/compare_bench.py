#!/usr/bin/env python
"""Perf regression gates: one table of feature-on vs plain-stack gates.

``benchmarks/e2e`` judges a PR end to end (real sockets, per-layer
budget).  This script guards what that harness does not switch on: the
in-process cost of an *optional* feature against the plain stack.

- ``validation`` -- its own shape: the compiled engine's speedup over
  ``Validator.validate_interpreted`` on the Table IV reference manifest
  (the SonarQube Deployment) must hold a 3x floor and stay within
  ``tolerance`` of the committed baseline
  (``benchmarks/baseline_validation.json``).  The ratio is
  dimensionless, so the baseline transfers across machines; a baseline
  with ``"strict_absolute": true`` also gates absolute compiled ops/s.
- every row of :data:`GATES` -- a paired-arm overhead gate run by
  :func:`measure`: one warm nginx stack, Day-2 reconcile passes timed
  with the feature on and off in alternating order, the minimum per
  arm, and the delta composed over a modeled 1 ms/request link.

Results land in ``benchmarks/results/BENCH_gates.json`` (one entry per
gate).  Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py            # all gates
    PYTHONPATH=src python benchmarks/compare_bench.py scan profile
    PYTHONPATH=src python benchmarks/compare_bench.py --update-baseline

The same measurements run under pytest via the ``bench_compare``
(validation) and ``bench_gate`` (overhead table) markers.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_PATH = BENCH_DIR / "results" / "BENCH_gates.json"
BASELINE_PATH = BENCH_DIR / "baseline_validation.json"

#: Hard floor required of the compiled engine (acceptance criterion).
SPEEDUP_FLOOR = 3.0
#: Allowed relative regression versus the committed baseline.
DEFAULT_TOLERANCE = 0.20

#: Simulated client <-> control-plane link (per request, both arms) --
#: the same modeling device :mod:`repro.analysis.overhead` uses for the
#: paper's two-VM testbed.  1 ms is the *low* end of a LAN API-server
#: round trip, which biases the relative overhead upward (a
#: conservative gate).  The link term is added to the denominator
#: rather than slept: ``time.sleep`` granularity jitter is an order of
#: magnitude above the deltas being gated.
NETWORK_DELAY_MS = 1.0

#: Reconcile passes per timed sample: a single pass is ~0.5 ms, small
#: enough for scheduler blips to swamp a ~50 us feature delta.
MIN_BATCH = 8

#: Production shadow-sampling posture: 1 in 8 write requests is
#: re-evaluated against the candidate policy.
REFINE_SHADOW_FRACTION = 0.125

#: Scanner tick interval of the measured arm.  Far more aggressive than
#: the production default (30 s), so the measurement can't dodge the
#: store-lock contention by landing between ticks.
SCAN_BENCH_INTERVAL_S = 0.001

#: Sampling rate of the measured arm, ~4x the production default
#: (67 Hz): if the gate holds at 250 Hz it holds with margin at the
#: rate components actually run.
PROFILE_BENCH_HZ = 250.0


# ---------------------------------------------------------------------------
# validation: compiled-vs-interpreted speedup
# ---------------------------------------------------------------------------


def _ops_per_sec(fn: Any, arg: Any, min_seconds: float = 0.4) -> float:
    """Best-of-3 throughput of ``fn(arg)`` (adaptive iteration count)."""
    # Calibrate: grow the batch until one batch takes ~min_seconds/4.
    batch = 64
    while True:
        started = time.perf_counter()
        for _ in range(batch):
            fn(arg)
        elapsed = time.perf_counter() - started
        if elapsed >= min_seconds / 4:
            break
        batch *= 4
    best = batch / elapsed
    for _ in range(2):
        started = time.perf_counter()
        for _ in range(batch):
            fn(arg)
        elapsed = time.perf_counter() - started
        best = max(best, batch / elapsed)
    return best


def reference_workload() -> tuple[Any, dict]:
    """The validator + manifest pair the numbers refer to."""
    from repro.core.pipeline import generate_policy
    from repro.helm.chart import render_chart
    from repro.operators import get_chart

    chart = get_chart("sonarqube")
    validator = generate_policy(chart)
    deployment = next(
        m for m in render_chart(chart) if m["kind"] == "Deployment"
    )
    return validator, deployment


def measure_validation(validator: Any, manifest: dict) -> dict[str, Any]:
    """Interpreted and compiled ops/sec on one (validator, manifest)."""
    compiled = validator.compiled()
    result_interpreted = validator.validate_interpreted(manifest)
    result_compiled = compiled.validate(manifest)
    if result_interpreted.allowed != result_compiled.allowed:
        raise RuntimeError("engine parity broken on the reference manifest")
    interpreted_ops = _ops_per_sec(validator.validate_interpreted, manifest)
    compiled_ops = _ops_per_sec(compiled.validate, manifest)
    return {
        "manifest_kind": manifest.get("kind"),
        "operator": validator.operator,
        "interpreted_ops_per_sec": round(interpreted_ops, 1),
        "compiled_ops_per_sec": round(compiled_ops, 1),
        "speedup": round(compiled_ops / interpreted_ops, 3),
    }


def check_regression(
    current: dict[str, Any],
    baseline: dict[str, Any] | None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, str]:
    """(ok, message) -- compiled throughput gate versus baseline."""
    speedup = current["speedup"]
    if speedup < SPEEDUP_FLOOR:
        return False, (
            f"compiled engine speedup {speedup:.2f}x is below the required "
            f"{SPEEDUP_FLOOR:.1f}x floor"
        )
    if baseline is None:
        return True, f"no baseline; speedup {speedup:.2f}x >= {SPEEDUP_FLOOR:.1f}x floor"
    allowed = baseline["speedup"] * (1.0 - tolerance)
    if speedup < allowed:
        return False, (
            f"compiled speedup regressed: {speedup:.2f}x < {allowed:.2f}x "
            f"(baseline {baseline['speedup']:.2f}x - {tolerance:.0%})"
        )
    if baseline.get("strict_absolute"):
        floor_ops = baseline["compiled_ops_per_sec"] * (1.0 - tolerance)
        if current["compiled_ops_per_sec"] < floor_ops:
            return False, (
                f"compiled throughput regressed: "
                f"{current['compiled_ops_per_sec']:.0f} ops/s < {floor_ops:.0f} ops/s "
                f"(baseline {baseline['compiled_ops_per_sec']:.0f} - {tolerance:.0%})"
            )
    return True, (
        f"speedup {speedup:.2f}x (baseline {baseline['speedup']:.2f}x, "
        f"tolerance {tolerance:.0%}) -- ok"
    )


def load_baseline() -> dict[str, Any] | None:
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text())
    return None


# ---------------------------------------------------------------------------
# The paired-arm overhead gates
# ---------------------------------------------------------------------------


class Stack(NamedTuple):
    """The warm plain stack every arm starts from: the nginx release
    deployed and reconciled once through an in-process proxy, API
    server and proxy publishing onto one bus nobody subscribes to."""

    chart: Any
    validator: Any
    manifests: list[dict]
    bus: Any
    cluster: Any
    proxy: Any
    client: Any
    deployed: Any


class Arm(NamedTuple):
    """One feature switched onto a :class:`Stack`.  ``enter``/``exit``
    run outside the clock around every feature-on sample; ``activity``
    reads a counter of the feature's own work (``unit`` names it), so
    the runner can refuse a measurement the feature slept through;
    ``period_s`` is the wake period of a background feature."""

    enter: Callable[[], Any]
    exit: Callable[[], Any]
    activity: Callable[[], int]
    unit: str
    period_s: float = 0.0


class Gate(NamedTuple):
    name: str
    #: ceiling on what the feature may add to reconcile RTT on the
    #: modeled link (acceptance criterion of the PR that added it)
    limit_pct: float
    arm: Callable[[Stack], Arm]


@functools.cache
def _nginx_policy() -> tuple[Any, Any, list[dict]]:
    from repro.core.pipeline import generate_policy
    from repro.helm.chart import render_chart
    from repro.operators import get_chart

    chart = get_chart("nginx")
    validator = generate_policy(chart)
    validator.compiled()  # warm the engine outside any timed region
    return chart, validator, render_chart(chart)


def warm_stack() -> Stack:
    from repro.core.proxy import KubeFenceProxy
    from repro.k8s.apiserver import Cluster
    from repro.obs.analytics import EventBus
    from repro.operators.client import OperatorClient

    chart, validator, manifests = _nginx_policy()
    bus = EventBus()
    cluster = Cluster(event_bus=bus)
    proxy = KubeFenceProxy(cluster.api, validator, event_bus=bus)
    client = OperatorClient(proxy)
    deployed = client.apply_manifests(chart.name, manifests)
    if not deployed.all_ok:
        raise RuntimeError("benign deployment blocked while warming the stack")
    client.reconcile(deployed)  # warm: caches, thread cells, sample windows
    return Stack(chart, validator, manifests, bus, cluster, proxy, client, deployed)


def _analytics_arm(stack: Stack) -> Arm:
    """The analytics pipeline: a live SLO engine and forensics engine
    subscribed to the bus, so every audit and decision event fans out
    to two subscribers."""
    from repro.obs.analytics import ForensicsEngine, SloEngine

    slo, forensics = SloEngine(), ForensicsEngine()
    unsubscribe: list[Callable[[], None]] = []

    def attach() -> None:
        unsubscribe.extend(
            (stack.bus.subscribe(slo.observe), stack.bus.subscribe(forensics.ingest))
        )

    def detach() -> None:
        while unsubscribe:
            unsubscribe.pop()()

    return Arm(attach, detach, lambda: len(forensics), "events ingested")


def _refine_profile_arm(stack: Stack) -> Arm:
    """The refinement loop's *profile* phase: every allowed write's
    decision event carries its manifest field sample."""

    def switch(on: bool) -> Callable[[], None]:
        return lambda: setattr(stack.proxy, "observe_fields", on)

    def field_samples() -> int:
        # Read off the bus's bounded ring (newest 4096 events): evidence
        # that samples were taken, not a running total.
        return sum(
            "fields" in event.detail for event in stack.bus.events(kind="decision")
        )

    return Arm(switch(True), switch(False), field_samples, "field samples in the event ring")


def _refine_canary_arm(stack: Stack) -> Arm:
    """The refinement loop's *canary* phase: a :class:`ShadowEvaluator`
    re-evaluating 1-in-8 writes against a tightened candidate.
    (``RefineController`` keeps the two phases mutually exclusive on a
    live proxy, so each is gated on its own.)"""
    from repro.core.proxy import KubeFenceProxy
    from repro.k8s.apiserver import Cluster
    from repro.obs.analytics import EventBus
    from repro.obs.refine import RefineController, ShadowEvaluator
    from repro.operators.client import OperatorClient

    # Synthesize the candidate from profiled traffic on a scratch
    # stack: it only prunes fields this exact traffic never exercises.
    bus = EventBus()
    proxy = KubeFenceProxy(Cluster(event_bus=bus).api, stack.validator, event_bus=bus)
    controller = RefineController(proxy, min_samples=5)
    client = OperatorClient(proxy)
    deployed = client.deploy_chart(stack.chart)
    if not deployed.all_ok:
        raise RuntimeError("profiling deploy blocked while building the candidate")
    for _ in range(6):
        client.reconcile(deployed)
    candidate = controller.build_candidate()
    controller.close()
    if not candidate.actions:
        raise RuntimeError("refine candidate tightened nothing")
    candidate.validator.compiled()  # warm outside the timed region

    # The candidate must agree with the active policy on this traffic,
    # otherwise the arm would be timing divergence bookkeeping too.
    probe = ShadowEvaluator(candidate.validator, fraction=1.0)
    for manifest in stack.manifests:
        probe.observe(manifest, True, user="bench", verb="create")
    if any(probe.snapshot()["divergence"].values()):
        raise RuntimeError(
            f"refine candidate diverges on benign traffic: {probe.snapshot()}"
        )

    shadow = ShadowEvaluator(
        candidate.validator, fraction=REFINE_SHADOW_FRACTION, event_bus=stack.bus
    )

    def switch(value: Any) -> Callable[[], None]:
        return lambda: setattr(stack.proxy, "shadow", value)

    return Arm(
        switch(shadow), switch(None),
        lambda: shadow.snapshot()["evaluations"],
        f"shadow evaluations at fraction {REFINE_SHADOW_FRACTION}",
    )


def _scan_arm(stack: Stack) -> Arm:
    """A continuously ticking CVE scanner: feed refresh + store
    snapshot + trigger matching every tick.  Its only hot-path
    touchpoint is the store's lock (``snapshot()`` copies under the
    same RLock writes take)."""
    from repro.scan import CVEScanner

    scanner = CVEScanner(
        stack.cluster,
        assume_vulnerable=True,
        interval=SCAN_BENCH_INTERVAL_S,
        event_bus=stack.bus,
        validator=stack.validator,
    )
    scanner.scan_once()  # warm the feed + dedupe set outside the clock
    return Arm(
        scanner.start, scanner.stop,
        lambda: scanner.status()["ticks"],
        f"scanner ticks at {SCAN_BENCH_INTERVAL_S * 1000:.0f} ms",
        period_s=SCAN_BENCH_INTERVAL_S,
    )


def _profile_arm(stack: Stack) -> Arm:
    """A private sampling wall-clock profiler walking the same thread
    population both arms run on."""
    from repro.obs.profile import SamplingProfiler

    profiler = SamplingProfiler(hz=PROFILE_BENCH_HZ)
    return Arm(
        profiler.start, profiler.stop,
        lambda: profiler.stats(top=0)["samples"],
        f"profiler samples at {PROFILE_BENCH_HZ:.0f} Hz",
        period_s=1.0 / PROFILE_BENCH_HZ,
    )


GATES: tuple[Gate, ...] = (
    Gate("analytics", 5.0, _analytics_arm),
    Gate("refine_profile", 5.0, _refine_profile_arm),
    Gate("refine_canary", 5.0, _refine_canary_arm),
    Gate("scan", 5.0, _scan_arm),
    Gate("profile", 5.0, _profile_arm),
)


def measure(gate: Gate, repetitions: int = 30) -> dict[str, Any]:
    """Sustained reconcile RTT with *gate*'s feature on vs the plain stack.

    One warm stack serves both arms, so caches, store contents and
    thread population are identical.  Each sample times a batch of
    Day-2 reconcile passes (get + re-apply per manifest, all allowed);
    the feature is switched on before and off after each of its
    samples, outside the clock.  The estimator is the minimum per arm
    over ``repetitions`` interleaved samples: timer and scheduler noise
    is strictly additive, so the minima approach the true floors.  The
    gated ``overhead_percent`` is that compute-only delta over the
    modeled-link RTT (``requests_per_reconcile * NETWORK_DELAY_MS`` in
    the denominator); the harsher in-process ratio is reported
    alongside.
    """
    stack = warm_stack()
    arm = gate.arm(stack)
    client, deployed = stack.client, stack.deployed
    requests_per_reconcile = 2 * len(stack.manifests)
    link_s = requests_per_reconcile * NETWORK_DELAY_MS / 1000.0

    def sample(batch: int) -> float:
        started = time.perf_counter()
        for _ in range(batch):
            responses = client.reconcile(deployed)
        elapsed = (time.perf_counter() - started) / batch
        if not all(r.ok for r in responses):
            raise RuntimeError(f"reconcile failed during the {gate.name} gate")
        return elapsed

    def sample_on(batch: int) -> float:
        arm.enter()
        try:
            return sample(batch)
        finally:
            arm.exit()

    # A background feature must wake ~10 times inside every timed
    # sample, or the sample can end before it ever ran: size the batch
    # from its period and the reconcile time measured here.  Against a
    # busy main thread a wake also waits out the GIL switch interval.
    wake_s = max(arm.period_s, sys.getswitchinterval()) if arm.period_s else 0.0
    batch = max(MIN_BATCH, math.ceil(10 * wake_s / sample(MIN_BATCH)))
    sample_on(1)  # warm the feature's own first-use paths

    def interleave() -> tuple[float, float]:
        on: list[float] = []
        off: list[float] = []
        gc_was_enabled = gc.isenabled()
        gc.disable()  # collection pauses must not land on one arm only
        try:
            for rep in range(repetitions):
                # Alternate which arm runs first: the slot right after
                # gc.collect() is systematically slower (cold caches),
                # and a fixed order books that entirely to one arm --
                # an A/A comparison shows a ~1.5% phantom overhead.
                for feature_on in (False, True) if rep % 2 == 0 else (True, False):
                    if feature_on:
                        on.append(sample_on(batch))
                    else:
                        off.append(sample(batch))
                gc.collect()
        finally:
            if gc_was_enabled:
                gc.enable()
        return min(on), min(off)

    activity_before = arm.activity()
    best_on, best_off = interleave()
    # A pass that lands close to the limit is a noisy machine state: up
    # to two more passes deepen the floor search before the number is
    # final (extra passes can only walk both minima down).
    for _ in range(2):
        if 100.0 * (best_on - best_off) / (best_off + link_s) < 0.8 * gate.limit_pct:
            break
        again_on, again_off = interleave()
        best_on, best_off = min(best_on, again_on), min(best_off, again_off)
    activity = arm.activity() - activity_before
    if activity <= 0:
        raise RuntimeError(
            f"{gate.name} gate: no {arm.unit} inside the measured arm"
        )

    delta = best_on - best_off
    return {
        "gate": gate.name,
        "operator": stack.chart.name,
        "transport": "in-process + simulated link",
        "workload": "sustained reconcile (warm pipeline)",
        "estimator": "minimum per arm over interleaved samples",
        "repetitions": repetitions,
        "batch": batch,
        "network_delay_ms": NETWORK_DELAY_MS,
        "requests_per_reconcile": requests_per_reconcile,
        "reconcile_ms_on": round(best_on * 1000.0, 3),
        "reconcile_ms_off": round(best_off * 1000.0, 3),
        "overhead_percent": round(100.0 * delta / (best_off + link_s), 3),
        "limit_percent": gate.limit_pct,
        "inprocess_overhead_percent": round(100.0 * delta / best_off, 3),
        "us_per_request": round(1e6 * delta / requests_per_reconcile, 2),
        "activity": activity,
        "activity_unit": arm.unit,
    }


def check_overhead(result: dict[str, Any]) -> tuple[bool, str]:
    """(ok, message) -- relative RTT increase of the sustained
    reconcile workload on the modeled link, against the gate's limit."""
    overhead, limit = result["overhead_percent"], result["limit_percent"]
    detail = (
        f"(on: {result['reconcile_ms_on']:.3f} ms, off: "
        f"{result['reconcile_ms_off']:.3f} ms, minimum of "
        f"{result['repetitions']} x {result['batch']} reconciles per arm; "
        f"limit {limit:.0f}%; in-process "
        f"{result['inprocess_overhead_percent']:+.2f}%, "
        f"{result['us_per_request']:.1f} us/request; {result['activity']} "
        f"{result['activity_unit']} inside the measured arm)"
    )
    if overhead >= limit:
        return False, (
            f"{result['gate']} adds {overhead:.2f}% to reconcile RTT on the "
            f"modeled link, over the limit {detail}"
        )
    return True, (
        f"{result['gate']} overhead {overhead:+.2f}% of reconcile RTT on the "
        f"modeled link {detail} -- ok"
    )


def write_results(results: dict[str, dict[str, Any]]) -> None:
    """Merge ``{gate name: result}`` into :data:`RESULTS_PATH`."""
    from repro.bench import environment_metadata

    # Every entry records where it was measured: numbers from different
    # machines or Python builds are not comparable baselines.
    environment = environment_metadata()
    merged = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    for name, result in results.items():
        merged[name] = {**result, "environment": environment}
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    names = ["validation", *(gate.name for gate in GATES)]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "gates", nargs="*", metavar="GATE",
        help=f"gates to run (default: all): {', '.join(names)}",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the validation measurement to the committed baseline file",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed relative regression of the validation speedup (default 0.20)",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.gates) - set(names))
    if unknown:
        parser.error(f"unknown gate(s) {unknown}; choose from {names}")
    selected = args.gates or names

    results: dict[str, dict[str, Any]] = {}
    verdicts: list[tuple[bool, str]] = []
    if args.update_baseline or "validation" in selected:
        result = results["validation"] = measure_validation(*reference_workload())
        if args.update_baseline:
            BASELINE_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
            print(f"baseline updated: {BASELINE_PATH}")
            return 0
        verdicts.append(check_regression(result, load_baseline(), args.tolerance))
    for gate in GATES:
        if gate.name in selected:
            result = results[gate.name] = measure(gate)
            verdicts.append(check_overhead(result))
    write_results(results)
    print(json.dumps(results, indent=2, sort_keys=True))
    print(f"wrote {RESULTS_PATH}")
    for _, message in verdicts:
        print(message)
    return 0 if all(ok for ok, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
