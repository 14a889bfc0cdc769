"""Compiled-vs-interpreted validation engine benchmarks.

Two guarantees are pinned here:

1. **Speed** -- the compiled engine is >= 3x faster than the
   interpreted tree-walk on the Table IV reference manifest (the
   SonarQube Deployment, the same body
   ``test_single_request_validation_cost`` measures).  The ops/sec for
   both engines land in ``benchmarks/results/BENCH_gates.json``,
   and the ``bench_compare`` gate fails when compiled throughput
   regresses >20% against the committed baseline
   (``benchmarks/baseline_validation.json``; see
   ``benchmarks/compare_bench.py``).
2. **Parity** -- a fuzz corpus (``repro.fuzz``, >= 500 schema-valid
   manifests spanning every operator's kinds) replayed through both
   engines yields identical allow/deny outcomes and identical
   violation paths/reasons in identical order.
"""

import pytest

from benchmarks.compare_bench import (
    SPEEDUP_FLOOR,
    check_regression,
    load_baseline,
    measure_validation,
    write_results,
)
from repro.fuzz import ManifestFuzzer
from repro.helm.chart import render_chart
from repro.k8s.schema import catalog
from repro.operators import get_chart


def _sonarqube_deployment():
    return next(
        m for m in render_chart(get_chart("sonarqube")) if m["kind"] == "Deployment"
    )


@pytest.mark.bench_compare
def test_compiled_engine_speedup(validators, emit_artifact):
    """Compiled >= 3x interpreted; BENCH_gates.json records the run."""
    validator = validators["sonarqube"]
    deployment = _sonarqube_deployment()
    result = measure_validation(validator, deployment)
    write_results({"validation": result})

    lines = [
        "validation engine throughput (sonarqube Deployment):",
        f"  interpreted : {result['interpreted_ops_per_sec']:>10.0f} ops/s",
        f"  compiled    : {result['compiled_ops_per_sec']:>10.0f} ops/s",
        f"  speedup     : {result['speedup']:.2f}x (required >= {SPEEDUP_FLOOR:.0f}x)",
    ]
    emit_artifact("bench_validation_compiled", "\n".join(lines))

    assert result["speedup"] >= SPEEDUP_FLOOR, result
    ok, message = check_regression(result, load_baseline())
    assert ok, message


@pytest.mark.bench_compare
def test_compiled_single_request_cost(benchmark, validators):
    """pytest-benchmark timing of the compiled hot path (the compiled
    counterpart of ``test_single_request_validation_cost``)."""
    compiled = validators["sonarqube"].compiled()
    deployment = _sonarqube_deployment()
    result = benchmark(compiled.validate, deployment)
    assert result.allowed


def _violation_signature(result):
    return [(v.path, v.reason) for v in result.violations]


def test_fuzz_corpus_parity(validators):
    """Both engines agree on >= 500 fuzzed manifests, per operator."""
    total = 0
    disagreements = []
    for name, validator in sorted(validators.items()):
        compiled = validator.compiled()
        fuzzer = ManifestFuzzer(seed=hash(name) % 2**32, density=0.3)
        kinds = [k for k in validator.kinds if k in catalog.kinds()]
        for kind in kinds:
            for manifest in fuzzer.corpus(kind, 25):
                total += 1
                interpreted = validator.validate_interpreted(manifest)
                fast = compiled.validate(manifest)
                if (
                    interpreted.allowed != fast.allowed
                    or _violation_signature(interpreted) != _violation_signature(fast)
                ):
                    disagreements.append((name, kind, manifest["metadata"]["name"]))
    assert total >= 500, f"corpus too small: {total}"
    assert not disagreements, disagreements[:5]
