"""Compiled validator engine: parity and invalidation.

The compiled engine must be observationally identical to the
interpreted tree-walk -- same allow/deny outcome, same violation
paths/reasons, same order -- on benign manifests, attack manifests,
and a fuzz corpus.
"""

from __future__ import annotations

from repro.core.compiled import CompiledValidator, compile_validator
from repro.core.enforcement import ValidationResult, Validator
from repro.fuzz import ManifestFuzzer
from repro.helm.chart import render_chart
from repro.k8s.schema import catalog
from repro.yamlutil import deep_copy, set_path


def _signature(result: ValidationResult):
    return (result.allowed, [(v.path, v.reason) for v in result.violations])


def _assert_parity(validator: Validator, manifest: dict):
    interpreted = validator.validate_interpreted(manifest)
    fast = validator.compiled().validate(manifest)
    assert _signature(interpreted) == _signature(fast), manifest.get("kind")
    return fast


class TestParity:
    def test_benign_manifests_allowed_identically(self, validators, default_manifests):
        for name, validator in validators.items():
            for manifest in default_manifests[name]:
                result = _assert_parity(validator, manifest)
                assert result.allowed

    def test_denials_carry_identical_violations(self, validators, default_manifests):
        mutations = [
            ("spec.template.spec.hostNetwork", True),
            ("spec.template.spec.hostPID", True),
            ("spec.template.spec.containers[0].securityContext.privileged", True),
            ("spec.template.spec.volumes[0].hostPath.path", "/"),
            ("spec.externalIPs", ["203.0.113.9"]),
            ("spec.template.spec.containers[0].image", "evil.example/backdoor:latest"),
        ]
        for name, validator in validators.items():
            for manifest in default_manifests[name]:
                for path, value in mutations:
                    bad = deep_copy(manifest)
                    try:
                        set_path(bad, path, value)
                    except (KeyError, IndexError, TypeError):
                        continue
                    _assert_parity(validator, bad)

    def test_missing_and_unknown_kind(self, nginx_validator):
        _assert_parity(nginx_validator, {"metadata": {"name": "x"}})
        _assert_parity(nginx_validator, {"kind": "", "metadata": {}})
        _assert_parity(
            nginx_validator,
            {"kind": "CronJob", "apiVersion": "batch/v1", "metadata": {"name": "x"}},
        )

    def test_depth_bomb_rejected_identically(self, nginx_validator):
        bomb: dict = {"kind": "Deployment", "apiVersion": "apps/v1"}
        node = bomb
        for _ in range(150):
            node["metadata"] = {}
            node = node["metadata"]
        _assert_parity(nginx_validator, bomb)

    def test_junk_shapes(self, nginx_validator):
        cases = [
            {"kind": "Deployment", "spec": "not-an-object"},
            {"kind": "Deployment", "spec": ["not", "an", "object"]},
            {"kind": "Service", "spec": {"ports": "scalar"}},
            {"kind": "Service", "spec": {"ports": [{"name": 1234, "port": "http"}]}},
            {"kind": "Deployment", "metadata": {"resourceVersion": "42", "uid": "u"}},
        ]
        for manifest in cases:
            _assert_parity(nginx_validator, manifest)

    def test_fuzz_corpus_parity(self, validators):
        """>= 500 fuzzed schema-valid manifests across all operators."""
        total = 0
        for name, validator in sorted(validators.items()):
            fuzzer = ManifestFuzzer(seed=len(name), density=0.3)
            kinds = [k for k in validator.kinds if k in catalog.kinds()]
            for kind in kinds:
                for manifest in fuzzer.corpus(kind, 25):
                    _assert_parity(validator, manifest)
                    total += 1
        assert total >= 500, f"corpus too small: {total}"


class TestCompiledEngineLifecycle:
    def test_validate_routes_through_compiled_by_default(self, nginx_validator):
        engine = nginx_validator.compiled()
        assert isinstance(engine, CompiledValidator)
        # Compiled once, reused thereafter.
        assert nginx_validator.compiled() is engine

    def test_invalidate_compiled_rebuilds_and_bumps_revision(self, validators):
        validator = Validator.from_dict(validators["nginx"].to_dict())
        engine = validator.compiled()
        revision = validator.policy_revision
        # In-place policy mutation: drop Service from the allowed kinds.
        validator.kinds.pop("Service", None)
        validator.invalidate_compiled()
        assert validator.policy_revision == revision + 1
        rebuilt = validator.compiled()
        assert rebuilt is not engine
        service = {"kind": "Service", "metadata": {"name": "svc"}}
        assert not rebuilt.validate(service).allowed
        assert not validator.validate(service).allowed

    def test_pipeline_precompiles(self, validators):
        # Session fixtures come from PolicyGenerator(precompile=True).
        for validator in validators.values():
            assert validator._compiled_engine is not None

    def test_compile_validator_function(self, nginx_validator, nginx_deployment):
        engine = compile_validator(nginx_validator)
        assert engine.validate(nginx_deployment).allowed
        assert engine.operator == nginx_validator.operator
