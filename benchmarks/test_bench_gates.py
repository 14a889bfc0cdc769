"""The overhead-gate table under pytest (marker ``bench_gate``).

One case per row of ``benchmarks.compare_bench.GATES``: the feature's
in-process cost over the plain warm stack, composed over the modeled
link, against the row's limit.  The runner itself refuses a
measurement whose feature never ran inside the measured arm.  Each
result is merged into ``benchmarks/results/BENCH_gates.json`` (the
same file ``python benchmarks/compare_bench.py`` writes) and rendered
to ``benchmarks/results/bench_<gate>_overhead.txt``.
"""

import json

import pytest

from benchmarks.compare_bench import GATES, check_overhead, measure, write_results


@pytest.mark.bench_gate
@pytest.mark.parametrize("gate", GATES, ids=[gate.name for gate in GATES])
def test_overhead_gate(gate, emit_artifact):
    result = measure(gate, repetitions=20)
    write_results({gate.name: result})

    ok, message = check_overhead(result)
    emit_artifact(
        f"bench_{gate.name}_overhead",
        json.dumps(result, indent=2, sort_keys=True) + "\n" + message,
    )
    assert ok, message
