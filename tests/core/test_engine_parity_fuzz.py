"""Large seeded fuzz: compiled/interpreted parity and cache coherence.

``tests/core/test_compiled.py`` pins parity on curated corpora; this
suite turns the volume up: a seeded :class:`~repro.fuzz.ManifestFuzzer`
drives **>= 2,000** schema-valid manifests (plus hostile mutations of
each) through both engines and requires zero divergences -- same
allow/deny outcome, same violation paths/reasons, same order.

The second half pins decision-cache *coherence*: a cached decision may
never outlive the policy revision it was computed under, whether the
policy is mutated in place (``invalidate_compiled``) or replaced
wholesale (``ValidationGate.install``) -- including when either lands
while a request is still inside ``ValidationGate.check``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.enforcement import ValidationResult, Validator
from repro.core.proxy import ProxyStats, ValidationGate
from repro.fuzz import ManifestFuzzer
from repro.yamlutil import deep_copy, set_path

SEED = 20240806

#: Hostile tweaks layered on fuzzed manifests to force deny paths.
HOSTILE_PATHS = (
    ("spec.template.spec.hostNetwork", True),
    ("spec.template.spec.hostPID", True),
    ("spec.template.spec.hostIPC", True),
    ("metadata.labels.injected", "x" * 64),
    ("spec.replicas", 10**6),
)


def _clone(validator: Validator) -> Validator:
    """A mutation-safe copy (``yamlutil.deep_copy`` on a dataclass
    shares the field objects, which would poison session fixtures)."""
    return Validator(
        operator=validator.operator,
        kinds=deep_copy(validator.kinds),
        locks=list(validator.locks),
        meta=deep_copy(validator.meta),
    )


def _signature(result: ValidationResult):
    return (result.allowed, [(v.path, v.reason) for v in result.violations])


def _check_parity(validator: Validator, manifest: dict) -> tuple[bool, str | None]:
    interpreted = validator.validate_interpreted(manifest)
    fast = validator.compiled().validate(manifest)
    if _signature(interpreted) != _signature(fast):
        return False, (
            f"{manifest.get('kind')}/{manifest.get('metadata', {}).get('name')}: "
            f"interpreted={_signature(interpreted)} compiled={_signature(fast)}"
        )
    return True, None


def test_seeded_fuzz_parity_over_2000_requests(validators):
    """Zero divergences across >= 2,000 fuzzed + mutated manifests."""
    rng = random.Random(SEED)
    fuzzer = ManifestFuzzer(seed=SEED, density=0.3, max_list_items=2)
    checked = 0
    divergences: list[str] = []

    for validator in validators.values():
        for kind in sorted(validator.kinds):
            for manifest in fuzzer.corpus(kind, 24):
                ok, diff = _check_parity(validator, manifest)
                checked += 1
                if not ok:
                    divergences.append(diff)
                # A hostile mutation of the same manifest (deny paths).
                path, value = HOSTILE_PATHS[rng.randrange(len(HOSTILE_PATHS))]
                bad = deep_copy(manifest)
                try:
                    set_path(bad, path, value)
                except TypeError:
                    continue  # fuzzed shape has a scalar on the path
                ok, diff = _check_parity(validator, bad)
                checked += 1
                if not ok:
                    divergences.append(diff)

    # Off-policy kinds (not in any validator) must deny identically too.
    nginx = validators["nginx"]
    for kind in ("Secret", "ClusterRoleBinding", "NetworkPolicy", "Pod"):
        if kind in nginx.kinds:
            continue
        for manifest in fuzzer.corpus(kind, 25):
            ok, diff = _check_parity(nginx, manifest)
            checked += 1
            if not ok:
                divergences.append(diff)

    # Top up to the hard floor regardless of operator/kind counts.
    while checked < 2000:
        ok, diff = _check_parity(nginx, fuzzer.manifest("Deployment"))
        checked += 1
        if not ok:
            divergences.append(diff)

    assert checked >= 2000, f"fuzz volume too small: {checked}"
    assert not divergences, "\n".join(divergences[:10])


def test_fuzz_parity_is_seed_deterministic(nginx_validator):
    """The fuzz stream itself is reproducible: same seed, same corpus."""
    a = ManifestFuzzer(seed=SEED).corpus("Deployment", 10)
    b = ManifestFuzzer(seed=SEED).corpus("Deployment", 10)
    assert a == b


# ---------------------------------------------------------------------------
# Decision-cache coherence across policy revisions
# ---------------------------------------------------------------------------


def _gate(validator: Validator) -> ValidationGate:
    return ValidationGate(validator, ProxyStats(), cache_size=128)


def test_cache_serves_hits_within_one_revision(nginx_validator, nginx_deployment):
    gate = _gate(nginx_validator)
    first = gate.check(nginx_deployment)
    assert first.allowed
    before_hits = gate.stats.cache_hits.value
    second = gate.check(nginx_deployment)
    assert second.allowed
    assert second is first  # the cached ValidationResult object itself
    assert gate.stats.cache_hits.value == before_hits + 1


def test_in_place_mutation_invalidates_cached_allows(validators, default_manifests):
    """Tighten the policy in place; the old ALLOW must not be served."""
    validator = _clone(validators["nginx"])
    service = deep_copy(
        next(m for m in default_manifests["nginx"] if m["kind"] == "Service")
    )
    gate = _gate(validator)
    assert gate.check(service).allowed
    assert gate.check(service).allowed  # cached

    revision = validator.policy_revision
    del validator.kinds["Service"]
    validator.invalidate_compiled()
    assert validator.policy_revision == revision + 1

    result = gate.check(service)
    assert not result.allowed  # stale ALLOW would be a fail-open bug


def test_in_place_mutation_invalidates_cached_denies(nginx_validator, nginx_deployment):
    """Loosen the policy in place; the old DENY must not be served."""
    validator = _clone(nginx_validator)
    bad = deep_copy(nginx_deployment)
    set_path(bad, "spec.template.spec.hostNetwork", True)

    gate = _gate(validator)
    assert not gate.check(bad).allowed
    assert not gate.check(bad).allowed  # cached deny

    allowed_tree = validator.kinds["Deployment"]
    set_path(allowed_tree, "spec.template.spec.hostNetwork", True)
    validator.invalidate_compiled()

    assert gate.check(bad).allowed  # fresh decision under the new policy


def test_install_swaps_policy_and_drops_cache(validators, default_manifests):
    nginx = validators["nginx"]
    service = deep_copy(
        next(m for m in default_manifests["nginx"] if m["kind"] == "Service")
    )
    gate = _gate(nginx)
    assert gate.check(service).allowed
    assert len(gate.cache) > 0

    stripped = _clone(nginx)
    del stripped.kinds["Service"]
    gate.install(stripped)
    assert len(gate.cache) == 0
    assert not gate.check(service).allowed


class _FlipMidValidate(Validator):
    """Runs ``flip`` once, after judging but before returning: the
    window in which a concurrent ``install()`` or in-place tighten
    lands while a request is still inside ``ValidationGate.check``."""

    flip = None

    def validate(self, manifest):
        result = super().validate(manifest)
        flip, self.flip = self.flip, None
        if flip is not None:
            flip()
        return result


@pytest.mark.parametrize("how", ["install", "in-place"])
def test_policy_flip_mid_request_is_not_cached_fail_open(
    how, validators, default_manifests
):
    """The in-flight request may keep the old policy's ALLOW, but that
    ALLOW must not be filed under the new policy's revision: the next
    request is judged by the strict policy and denied."""
    nginx = validators["nginx"]
    service = deep_copy(
        next(m for m in default_manifests["nginx"] if m["kind"] == "Service")
    )
    validator = _FlipMidValidate(
        operator=nginx.operator,
        kinds=deep_copy(nginx.kinds),
        locks=list(nginx.locks),
        meta=deep_copy(nginx.meta),
    )
    gate = _gate(validator)

    if how == "install":
        stricter = _clone(nginx)
        del stricter.kinds["Service"]
        validator.flip = lambda: gate.install(stricter)
    else:

        def tighten():
            del validator.kinds["Service"]
            validator.invalidate_compiled()

        validator.flip = tighten

    assert gate.check(service).allowed  # judged before the flip landed
    assert validator.flip is None
    assert not gate.check(service).allowed


def test_revision_churn_under_fuzz_traffic(nginx_validator):
    """Interleave fuzz lookups with revision bumps: every post-bump
    decision must match a cache-free gate's answer."""
    validator = _clone(nginx_validator)
    cached = _gate(validator)
    uncached = ValidationGate(validator, ProxyStats(), cache_size=0)
    fuzzer = ManifestFuzzer(seed=SEED + 1, density=0.25)

    manifests = fuzzer.corpus("Deployment", 30) + fuzzer.corpus("Service", 30)
    for index, manifest in enumerate(manifests):
        if index % 10 == 9:
            validator.invalidate_compiled()  # churn the revision
        expected = uncached.check(manifest)
        got = cached.check(manifest)
        assert _signature(expected) == _signature(got)
