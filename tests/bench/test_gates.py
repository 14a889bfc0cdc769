"""The perf-gate table is well-formed and every gate can measure.

No threshold is asserted, so nothing here depends on timing: each
paired-arm gate runs at two repetitions and must time both arms and
see its own feature work inside the measured arm (a gate whose
profiler never sampled, or whose scanner never ticked, fails here
instead of silently in a job nobody reads).
"""

import pytest

from benchmarks.compare_bench import GATES, check_overhead, measure


def test_gate_table_is_well_formed():
    names = [gate.name for gate in GATES]
    assert len(set(names)) == len(names)
    assert "validation" not in names  # the CLI's name for the speedup gate
    assert all(gate.limit_pct > 0 for gate in GATES)


@pytest.mark.parametrize("gate", GATES, ids=[gate.name for gate in GATES])
def test_gate_measures_both_arms_and_sees_activity(gate):
    result = measure(gate, repetitions=2)
    assert result["reconcile_ms_on"] > 0
    assert result["reconcile_ms_off"] > 0
    assert result["activity"] > 0
    assert result["limit_percent"] == gate.limit_pct
    ok, message = check_overhead(result)
    assert gate.name in message and result["activity_unit"] in message
