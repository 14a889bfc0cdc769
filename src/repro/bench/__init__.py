"""Performance measurement substrate.

:func:`environment_metadata` stamps every ``BENCH_*.json`` with enough
machine context to compare the perf trajectory across runs and hosts.
"""

from __future__ import annotations

import os
import platform
from typing import Any

__all__ = ["environment_metadata"]


def environment_metadata() -> dict[str, Any]:
    """Host facts recorded into every benchmark result file: numbers
    from different machines (or Python builds) must never be compared
    as if they were the same baseline."""
    try:
        affinity: int | None = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        affinity = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
        "cpu_affinity": affinity,
    }
