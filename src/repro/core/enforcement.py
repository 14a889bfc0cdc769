"""Hierarchical validation of API requests against a validator (Sec. V-B).

The validation is a tree overlap between the incoming manifest and the
policy validator:

1. the ``kind`` must be present in the validator (operators only get
   the resource types their charts define);
2. only fields explicitly defined in the validator may appear
   (unknown fields -- e.g. ``hostNetwork``, ``subPath``,
   ``externalIPs`` for charts that never use them -- are denied);
3. every field value must match the validator: by type for placeholder
   fields, by pattern for strings embedding placeholders, by
   membership for enum unions, by equality for constants;
4. ``required`` security locks must be satisfied (e.g. every container
   must declare ``resources.limits``).

Server-managed metadata (``resourceVersion``, ``uid``, ...) and the
``status`` subtree are ignored: they are written by the control plane,
not chosen by the client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import yaml

from repro.core import placeholders
from repro.core.security import SCOPE_CONTAINER, SCOPE_SERVICE, SecurityLock
from repro.k8s.gvk import registry
from repro.yamlutil import get_path

#: Metadata keys the server manages; clients cannot abuse them and
#: legitimate updates carry them back, so they are not validated.
SERVER_MANAGED_METADATA = frozenset(
    {"resourceVersion", "uid", "creationTimestamp", "generation", "managedFields", "selfLink"}
)

#: Maximum nesting depth accepted in a manifest.  Real manifests stay
#: under ~30 levels; a crafted deeply-nested body must be rejected, not
#: allowed to exhaust the recursion stack (a billion-laughs-style DoS
#: against the proxy itself, cf. CVE-2019-11253).
MAX_VALIDATION_DEPTH = 100


@dataclass(frozen=True)
class Violation:
    """One reason a request was denied."""

    path: str
    reason: str
    value: Any = None

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"


@dataclass
class ValidationResult:
    """Outcome of validating one manifest."""

    allowed: bool
    violations: list[Violation] = field(default_factory=list)

    def summary(self) -> str:
        if self.allowed:
            return "allowed"
        return "denied: " + "; ".join(str(v) for v in self.violations[:5])


@dataclass
class Validator:
    """A workload-tailored security policy: the allowed-configuration
    trees per kind, plus the security-lock rules."""

    operator: str
    kinds: dict[str, dict[str, Any]]
    locks: list[SecurityLock] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    #: Bumped whenever the policy content changes (``invalidate_compiled``
    #: or ``install``-style replacement); decision caches key on it.
    policy_revision: int = field(default=0, init=False, repr=False, compare=False)
    _compiled_engine: Any = field(default=None, init=False, repr=False, compare=False)

    # -- validation --------------------------------------------------------

    def validate(self, manifest: dict[str, Any]) -> ValidationResult:
        """Validate one manifest; never raises.

        Runs the compiled engine (one-time compilation, memoized
        pattern matching, lazy violation paths).  The interpreted
        tree-walk below is its reference: both are outcome- and
        violation-identical (see ``tests/core/test_compiled.py``).
        """
        return self.compiled().validate(manifest)

    def compiled(self) -> Any:
        """The compiled form of this policy, built on first use.

        Mutating ``kinds``/``locks`` after compilation requires calling
        :meth:`invalidate_compiled` to rebuild (and to invalidate any
        proxy decision caches keyed on :attr:`policy_revision`).
        """
        engine = self._compiled_engine
        if engine is None:
            from repro.core.compiled import compile_validator

            engine = compile_validator(self)
            self._compiled_engine = engine
        return engine

    def invalidate_compiled(self) -> None:
        """Drop the compiled engine and bump :attr:`policy_revision`
        (call after mutating the policy in place)."""
        self._compiled_engine = None
        self.policy_revision += 1

    def validate_interpreted(self, manifest: dict[str, Any]) -> ValidationResult:
        """The reference interpreted tree-walk (parity baseline)."""
        violations: list[Violation] = []
        kind = manifest.get("kind")
        if not isinstance(kind, str) or not kind:
            return ValidationResult(False, [Violation("kind", "missing kind")])
        allowed_tree = self.kinds.get(kind)
        if allowed_tree is None:
            return ValidationResult(
                False,
                [Violation("kind", f"resource kind {kind!r} is not used by this workload")],
            )
        self._match_dict(manifest, allowed_tree, kind, violations, is_root=True)
        self._check_required(manifest, kind, violations)
        return ValidationResult(not violations, violations)

    def _match_node(
        self,
        value: Any,
        allowed: Any,
        path: str,
        violations: list[Violation],
        depth: int = 0,
    ) -> None:
        if depth > MAX_VALIDATION_DEPTH:
            violations.append(
                Violation(path, f"manifest exceeds maximum depth {MAX_VALIDATION_DEPTH}")
            )
            return
        if isinstance(allowed, dict):
            if isinstance(value, dict):
                self._match_dict(value, allowed, path, violations, depth=depth)
            else:
                violations.append(Violation(path, "expected an object", value))
            return
        if isinstance(allowed, list):
            self._match_list(value, allowed, path, violations, depth=depth)
            return
        if not placeholders.matches(value, allowed):
            violations.append(
                Violation(
                    path,
                    f"value {value!r} not allowed (expected {placeholders.to_paper_form(str(allowed)) if isinstance(allowed, str) else allowed!r})",
                    value,
                )
            )

    def _match_dict(
        self,
        value: dict[str, Any],
        allowed: dict[str, Any],
        path: str,
        violations: list[Violation],
        is_root: bool = False,
        depth: int = 0,
    ) -> None:
        for key, child in value.items():
            if is_root and key == "status":
                continue
            if path.endswith("metadata") and key in SERVER_MANAGED_METADATA:
                continue
            if key not in allowed:
                violations.append(
                    Violation(f"{path}.{key}", "field not allowed by workload policy", child)
                )
                continue
            self._match_node(child, allowed[key], f"{path}.{key}", violations, depth + 1)

    def _match_list(
        self,
        value: Any,
        allowed: list,
        path: str,
        violations: list[Violation],
        depth: int = 0,
    ) -> None:
        elements = value if isinstance(value, list) else [value]
        positions = (
            [f"{path}[{i}]" for i in range(len(elements))]
            if isinstance(value, list)
            else [path]
        )
        for element, position in zip(elements, positions):
            if any(
                self._matches_quietly(element, candidate, depth + 1)
                for candidate in allowed
            ):
                continue
            # For named elements (containers, ports, env), align with the
            # same-named candidate to report the exact offending field.
            named = self._named_candidate(element, allowed)
            if named is not None:
                self._match_node(element, named, position, violations, depth + 1)
            else:
                violations.append(
                    Violation(position, "no allowed configuration matches this entry", element)
                )

    @staticmethod
    def _named_candidate(element: Any, allowed: list) -> Any:
        if not isinstance(element, dict) or "name" not in element:
            return None
        matches = [
            candidate
            for candidate in allowed
            if isinstance(candidate, dict)
            and placeholders.matches(element["name"], candidate.get("name"))
        ]
        return matches[0] if len(matches) == 1 else None

    def _matches_quietly(self, value: Any, allowed: Any, depth: int = 0) -> bool:
        probe: list[Violation] = []
        self._match_node(value, allowed, "", probe, depth)
        return not probe

    def _check_required(self, manifest: dict[str, Any], kind: str, violations: list[Violation]) -> None:
        required_container = [
            lock for lock in self.locks if lock.mode == "required" and lock.scope == SCOPE_CONTAINER
        ]
        required_service = [
            lock for lock in self.locks if lock.mode == "required" and lock.scope == SCOPE_SERVICE
        ]
        if required_container and kind in registry:
            pod_path = registry.by_kind(kind).pod_spec_path
            if pod_path is not None:
                pod_spec = get_path(manifest, pod_path, None)
                if isinstance(pod_spec, dict):
                    for group in ("containers", "initContainers"):
                        for i, container in enumerate(pod_spec.get(group) or []):
                            if not isinstance(container, dict):
                                continue
                            for lock in required_container:
                                present = get_path(container, lock.path, None)
                                if not present:
                                    violations.append(
                                        Violation(
                                            f"{pod_path}.{group}[{i}].{lock.path}",
                                            f"required by security policy: {lock.rationale}",
                                        )
                                    )
        if required_service and kind == "Service":
            for lock in required_service:
                if not get_path(manifest, f"spec.{lock.path}", None):
                    violations.append(
                        Violation(f"spec.{lock.path}", f"required by security policy: {lock.rationale}")
                    )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "apiVersion": "kubefence.io/v1",
            "kind": "Validator",
            "operator": self.operator,
            "meta": dict(self.meta),
            "locks": [lock.to_dict() for lock in self.locks],
            "kinds": _paperize(self.kinds),
        }

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False, allow_unicode=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Validator":
        return cls(
            operator=data.get("operator", ""),
            kinds=data.get("kinds", {}),
            locks=[SecurityLock.from_dict(d) for d in data.get("locks", [])],
            meta=data.get("meta", {}),
        )

    @classmethod
    def from_yaml(cls, text: str) -> "Validator":
        return cls.from_dict(yaml.safe_load(text))

    # -- analysis helpers ----------------------------------------------------

    def allowed_field_paths(self, kind: str) -> set[tuple[str, ...]]:
        """The set of schema field paths (list indexes stripped) this
        validator allows for *kind* -- the attack-surface measure."""
        tree = self.kinds.get(kind)
        if tree is None:
            return set()
        out: set[tuple[str, ...]] = set()

        def walk(node: Any, prefix: tuple[str, ...]) -> None:
            if isinstance(node, dict):
                for key, child in node.items():
                    out.add(prefix + (key,))
                    walk(child, prefix + (key,))
            elif isinstance(node, list):
                for child in node:
                    walk(child, prefix)

        walk(tree, ())
        return out


def _paperize(node: Any) -> Any:
    """Serialize placeholders in paper form where whole-value."""
    if isinstance(node, dict):
        return {k: _paperize(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_paperize(v) for v in node]
    if isinstance(node, str):
        return placeholders.to_paper_form(node)
    return node
