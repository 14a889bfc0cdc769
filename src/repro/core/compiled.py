"""Compiled validator engine: one-time policy compilation (perf layer).

``Validator.validate`` is semantically a tree overlap between the
incoming manifest and the policy validator (Sec. V-B).  The interpreted
implementation in :mod:`repro.core.enforcement` re-derives everything
on every request: placeholder tokens are re-classified per scalar,
pattern strings are re-lowered to regex source, list elements are
probed against every candidate subtree with throwaway ``Violation``
lists, and violation path strings are built eagerly on the success
path.

This module compiles a :class:`~repro.core.enforcement.Validator`
*once* into a tree of matcher closures:

- placeholder types are specialized to direct ``isinstance``/range
  checks, pattern strings to pre-compiled :class:`re.Pattern` objects
  (via :func:`repro.core.placeholders.compile_pattern`), and constants
  to equality checks with the YAML-tolerant coercion pre-computed;
- list candidates are pre-indexed by their ``name`` field, so the
  named-element fast path (containers, ports, env) is a dict lookup
  followed by one subtree probe instead of a linear scan;
- violation paths are threaded as lazy ``(parent, segment)`` cons
  cells and only rendered to strings on the failure path.

Parity contract: for every manifest, the compiled engine returns the
same allow/deny outcome and the same violation paths/reasons *in the
same order* as the interpreted walk (``tests/core/test_compiled.py``
replays a fuzz corpus through both engines to pin this down).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core import placeholders
from repro.core.enforcement import (
    MAX_VALIDATION_DEPTH,
    SERVER_MANAGED_METADATA,
    ValidationResult,
    Validator,
    Violation,
)
from repro.core.security import SCOPE_CONTAINER, SCOPE_SERVICE
from repro.helm.functions import _go_str
from repro.k8s.gvk import registry
from repro.yamlutil import FieldPath, get_path

#: Lazy path: either the root string or a ``(parent, segment)`` pair.
_Path = Any

#: loud(value, path, meta, violations, depth) -> None
_Loud = Callable[[Any, _Path, bool, list, int], None]
#: quiet(value, meta, depth) -> bool
_Quiet = Callable[[Any, bool, int], bool]

_DEPTH_REASON = f"manifest exceeds maximum depth {MAX_VALIDATION_DEPTH}"


def _render_path(path: _Path) -> str:
    """Materialize a lazy path into the interpreted engine's string."""
    if isinstance(path, str):
        return path
    parts: list[str] = []
    while isinstance(path, tuple):
        path, segment = path
        parts.append(segment)
    parts.append(path)
    return "".join(reversed(parts))


# ---------------------------------------------------------------------------
# Scalar compilation
# ---------------------------------------------------------------------------


def _port_check(value: Any) -> bool:
    return placeholders._is_intlike(value) and 0 <= int(value) <= 65535


def _bool_check(value: Any) -> bool:
    return isinstance(value, bool) or value in ("true", "false", "True", "False")


#: Specialized type checks for the hot placeholder types; the rest fall
#: back to ``matches_type`` (identical semantics, one extra call).
_TYPE_CHECKS: dict[str, Callable[[Any], bool]] = {
    "string": lambda v: isinstance(v, str),
    "int": placeholders._is_intlike,
    "port": _port_check,
    "bool": _bool_check,
    "list": lambda v: isinstance(v, list),
    "dict": lambda v: isinstance(v, dict),
}


def compile_scalar_check(allowed: Any) -> Callable[[Any], bool]:
    """One-time specialization of ``placeholders.matches(·, allowed)``."""
    ptype = placeholders.placeholder_type(allowed)
    if ptype is not None:
        check = _TYPE_CHECKS.get(ptype)
        if check is not None:
            return check
        return lambda v, _p=ptype: placeholders.matches_type(v, _p)
    if placeholders.has_embedded(allowed):
        fullmatch = placeholders.compile_pattern(allowed).fullmatch

        def pattern_check(v: Any, _fullmatch=fullmatch) -> bool:
            return isinstance(v, (str, int, float, bool)) and _fullmatch(_go_str(v)) is not None

        return pattern_check
    if isinstance(allowed, str):

        def str_const_check(v: Any, _c=allowed) -> bool:
            return v == _c or (not isinstance(v, str) and _c == _go_str(v))

        return str_const_check
    coerced = _go_str(allowed)

    def const_check(v: Any, _c=allowed, _g=coerced) -> bool:
        return v == _c or (isinstance(v, str) and v == _g)

    return const_check


def _expected_description(allowed: Any) -> str:
    """The ``expected ...`` clause, pre-rendered at compile time (the
    interpreted engine rebuilds it per violation).  The interpreted
    f-string applies ``!r`` to the whole conditional expression, so the
    paper form is repr'd as well -- parity requires matching that."""
    if isinstance(allowed, str):
        return repr(placeholders.to_paper_form(allowed))
    return repr(allowed)


def _compile_scalar(allowed: Any) -> tuple[_Loud, _Quiet]:
    check = compile_scalar_check(allowed)
    expected = _expected_description(allowed)

    def loud(value: Any, path: _Path, meta: bool, violations: list, depth: int) -> None:
        if depth > MAX_VALIDATION_DEPTH:
            violations.append(Violation(_render_path(path), _DEPTH_REASON))
            return
        if not check(value):
            violations.append(
                Violation(
                    _render_path(path),
                    f"value {value!r} not allowed (expected {expected})",
                    value,
                )
            )

    def quiet(
        value: Any, meta: bool, depth: int,
        _check=check, _max=MAX_VALIDATION_DEPTH,
    ) -> bool:
        return depth <= _max and _check(value)

    return loud, quiet


# ---------------------------------------------------------------------------
# Object (dict) compilation
# ---------------------------------------------------------------------------


def _compile_dict(allowed: dict[str, Any]) -> tuple[_Loud, _Quiet]:
    #: key -> (loud, quiet, child_meta, lazy segment)
    children: dict[str, tuple[_Loud, _Quiet, bool, str]] = {}
    for key, subtree in allowed.items():
        child_loud, child_quiet = _compile_node(subtree)
        children[key] = (child_loud, child_quiet, key.endswith("metadata"), "." + key)
    get_child = children.get

    def loud(value: Any, path: _Path, meta: bool, violations: list, depth: int) -> None:
        if depth > MAX_VALIDATION_DEPTH:
            violations.append(Violation(_render_path(path), _DEPTH_REASON))
            return
        if not isinstance(value, dict):
            violations.append(Violation(_render_path(path), "expected an object", value))
            return
        next_depth = depth + 1
        for key, child_value in value.items():
            if meta and key in SERVER_MANAGED_METADATA:
                continue
            entry = get_child(key)
            if entry is None:
                violations.append(
                    Violation(
                        _render_path(path) + "." + key,
                        "field not allowed by workload policy",
                        child_value,
                    )
                )
                continue
            child_loud, _, child_meta, segment = entry
            child_loud(child_value, (path, segment), child_meta, violations, next_depth)

    def quiet(
        value: Any, meta: bool, depth: int,
        _get=get_child, _max=MAX_VALIDATION_DEPTH,
        _managed=SERVER_MANAGED_METADATA, _dict=dict,
        _isinstance=isinstance,
    ) -> bool:
        if depth > _max or not _isinstance(value, _dict):
            return False
        next_depth = depth + 1
        for key, child_value in value.items():
            if meta and key in _managed:
                continue
            entry = _get(key)
            if entry is None:
                return False
            if not entry[1](child_value, entry[2], next_depth):
                return False
        return True

    return loud, quiet


# ---------------------------------------------------------------------------
# List compilation (named-candidate index)
# ---------------------------------------------------------------------------


def _compile_list(allowed: list) -> tuple[_Loud, _Quiet]:
    compiled = [_compile_node(candidate) for candidate in allowed]
    louds = tuple(entry[0] for entry in compiled)
    quiets = tuple(entry[1] for entry in compiled)
    count = len(quiets)

    # Pre-index dict candidates by their ``name`` field: plain string
    # constants land in a dict for O(1) alignment, everything else
    # (placeholders, embedded patterns, non-string constants, absent
    # names) keeps a compiled name-check for the dynamic scan.
    named_const: dict[str, tuple[int, ...]] = {}
    named_dyn: list[tuple[int, Callable[[Any], bool]]] = []
    for index, candidate in enumerate(allowed):
        if not isinstance(candidate, dict):
            continue
        cand_name = candidate.get("name")
        if (
            isinstance(cand_name, str)
            and placeholders.placeholder_type(cand_name) is None
            and not placeholders.has_embedded(cand_name)
        ):
            named_const[cand_name] = named_const.get(cand_name, ()) + (index,)
        else:
            named_dyn.append((index, compile_scalar_check(cand_name)))
    named_dyn_t = tuple(named_dyn)

    has_dyn = bool(named_dyn_t)

    def named_indexes(element: Any) -> tuple[int, ...] | list[int] | None:
        """Indexes of candidates whose ``name`` matches the element's
        (mirrors ``Validator._named_candidate``); None when the element
        is not a named object."""
        if not isinstance(element, dict) or "name" not in element:
            return None
        name = element["name"]
        key = name if isinstance(name, str) else _go_str(name)
        const_hits = named_const.get(key, ())
        if not has_dyn:
            return const_hits
        indexes = list(const_hits)
        for index, check in named_dyn_t:
            if check(name):
                indexes.append(index)
        return indexes

    def element_quiet(element: Any, probe_depth: int) -> bool:
        """Does any candidate match *element*?  Same-named candidates
        are probed first (the overwhelmingly likely match)."""
        indexes = named_indexes(element)
        if indexes:
            for index in indexes:
                if quiets[index](element, False, probe_depth):
                    return True
            for index in range(count):
                if index not in indexes and quiets[index](element, False, probe_depth):
                    return True
            return False
        for quiet_fn in quiets:
            if quiet_fn(element, False, probe_depth):
                return True
        return False

    def match_element(
        element: Any, pos: _Path, meta: bool, violations: list, probe_depth: int
    ) -> None:
        # Failure path: align with the uniquely-named candidate to
        # report the exact offending field, else a generic violation.
        indexes = named_indexes(element)
        if indexes is not None and len(indexes) == 1:
            louds[indexes[0]](element, pos, meta, violations, probe_depth)
        else:
            violations.append(
                Violation(
                    _render_path(pos), "no allowed configuration matches this entry", element
                )
            )

    def loud(value: Any, path: _Path, meta: bool, violations: list, depth: int) -> None:
        if depth > MAX_VALIDATION_DEPTH:
            violations.append(Violation(_render_path(path), _DEPTH_REASON))
            return
        probe_depth = depth + 1
        if isinstance(value, list):
            for i, element in enumerate(value):
                if element_quiet(element, probe_depth):
                    continue
                match_element(element, (path, f"[{i}]"), False, violations, probe_depth)
        else:
            if not element_quiet(value, probe_depth):
                match_element(value, path, meta, violations, probe_depth)

    def quiet(value: Any, meta: bool, depth: int) -> bool:
        if depth > MAX_VALIDATION_DEPTH:
            return False
        probe_depth = depth + 1
        if isinstance(value, list):
            for element in value:
                if not element_quiet(element, probe_depth):
                    return False
            return True
        return element_quiet(value, probe_depth)

    return loud, quiet


def _compile_node(allowed: Any) -> tuple[_Loud, _Quiet]:
    if isinstance(allowed, dict):
        return _compile_dict(allowed)
    if isinstance(allowed, list):
        return _compile_list(allowed)
    return _compile_scalar(allowed)


# ---------------------------------------------------------------------------
# Root compilation (per kind)
# ---------------------------------------------------------------------------


def _compile_root(kind: str, tree: dict[str, Any]) -> Callable[[dict, list], None]:
    """The loud matcher for a whole manifest of *kind* (the interpreted
    engine's root ``_match_dict`` call with ``is_root=True``)."""
    children: dict[str, tuple[_Loud, bool, str]] = {}
    for key, subtree in tree.items():
        child_loud, _ = _compile_node(subtree)
        children[key] = (child_loud, key.endswith("metadata"), "." + key)
    get_child = children.get
    root_meta = kind.endswith("metadata")

    def match_root(manifest: dict[str, Any], violations: list) -> None:
        for key, child_value in manifest.items():
            if key == "status":
                continue
            if root_meta and key in SERVER_MANAGED_METADATA:
                continue
            entry = get_child(key)
            if entry is None:
                violations.append(
                    Violation(
                        kind + "." + key, "field not allowed by workload policy", child_value
                    )
                )
                continue
            child_loud, child_meta, segment = entry
            child_loud(child_value, (kind, segment), child_meta, violations, 1)

    return match_root


class CompiledValidator:
    """A :class:`Validator` lowered to matcher closures.

    Drop-in for the interpreted walk: ``validate`` has the same
    signature, outcome, violation paths/reasons, and ordering.
    """

    __slots__ = ("operator", "source", "_roots", "_required_container",
                 "_required_service", "_pod_spec_paths")

    def __init__(self, validator: Validator):
        self.operator = validator.operator
        self.source = validator
        self._roots = {
            kind: _compile_root(kind, tree) for kind, tree in validator.kinds.items()
        }
        # Lock and pod-spec paths are parsed to FieldPath once here;
        # the interpreted engine re-parses the dotted strings per
        # request.
        self._required_container = tuple(
            (lock, FieldPath.parse(lock.path))
            for lock in validator.locks
            if lock.mode == "required" and lock.scope == SCOPE_CONTAINER
        )
        self._required_service = tuple(
            (lock, FieldPath.parse(f"spec.{lock.path}"))
            for lock in validator.locks
            if lock.mode == "required" and lock.scope == SCOPE_SERVICE
        )
        self._pod_spec_paths = {}
        for kind in validator.kinds:
            if kind in registry:
                pod_path = registry.by_kind(kind).pod_spec_path
                if pod_path is not None:
                    self._pod_spec_paths[kind] = (pod_path, FieldPath.parse(pod_path))

    # -- validation --------------------------------------------------------

    def validate(self, manifest: dict[str, Any]) -> ValidationResult:
        """Validate one manifest; never raises."""
        kind = manifest.get("kind")
        if not isinstance(kind, str) or not kind:
            return ValidationResult(False, [Violation("kind", "missing kind")])
        root = self._roots.get(kind)
        if root is None:
            return ValidationResult(
                False,
                [Violation("kind", f"resource kind {kind!r} is not used by this workload")],
            )
        violations: list[Violation] = []
        root(manifest, violations)
        if self._required_container or self._required_service:
            self._check_required(manifest, kind, violations)
        return ValidationResult(not violations, violations)

    def _check_required(
        self, manifest: dict[str, Any], kind: str, violations: list[Violation]
    ) -> None:
        if self._required_container:
            entry = self._pod_spec_paths.get(kind)
            if entry is not None:
                pod_path_str, pod_path = entry
                pod_spec = get_path(manifest, pod_path, None)
                if isinstance(pod_spec, dict):
                    for group in ("containers", "initContainers"):
                        for i, container in enumerate(pod_spec.get(group) or []):
                            if not isinstance(container, dict):
                                continue
                            for lock, lock_path in self._required_container:
                                if not get_path(container, lock_path, None):
                                    violations.append(
                                        Violation(
                                            f"{pod_path_str}.{group}[{i}].{lock.path}",
                                            f"required by security policy: {lock.rationale}",
                                        )
                                    )
        if self._required_service and kind == "Service":
            for lock, lock_path in self._required_service:
                if not get_path(manifest, lock_path, None):
                    violations.append(
                        Violation(
                            f"spec.{lock.path}",
                            f"required by security policy: {lock.rationale}",
                        )
                    )


def compile_validator(validator: Validator) -> CompiledValidator:
    """Compile *validator* into its closure-tree form (one-time cost)."""
    return CompiledValidator(validator)

