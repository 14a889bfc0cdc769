"""Environment stamping: every ``BENCH_*.json`` (and the end-to-end
harness) records the host it ran on."""

import json

from repro.bench import environment_metadata


class TestEnvironmentMetadata:
    def test_required_keys(self):
        meta = environment_metadata()
        for key in ("python", "implementation", "platform", "machine", "cpu_count"):
            assert key in meta
        assert meta["cpu_count"] >= 1
        assert meta["python"].count(".") == 2

    def test_json_serializable(self):
        json.dumps(environment_metadata())
