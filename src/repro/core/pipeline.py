"""The end-to-end policy generation pipeline (Fig. 6, offline phase).

``generate_policy(chart)`` runs the four phases in order -- values
schema generation, configuration-space exploration, variant rendering,
validator consolidation -- and returns an enforceable
:class:`~repro.core.enforcement.Validator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.enforcement import Validator
from repro.core.explorer import explore_variants
from repro.core.renderer import render_all_variants
from repro.core.schema_gen import ValuesSchema, generate_values_schema
from repro.core.security import DEFAULT_LOCKS, SecurityLock
from repro.core.validator_gen import build_validator
from repro.helm.chart import Chart


@dataclass
class PolicyGenerationReport:
    """Artifacts of one policy generation run (for inspection/tests)."""

    operator: str
    values_schema: ValuesSchema
    variants: list[dict[str, Any]]
    manifests: list[dict[str, Any]]
    validator: Validator

    @property
    def kinds(self) -> list[str]:
        return sorted(self.validator.kinds)


class PolicyGenerator:
    """Configurable policy generation (locks, boolean exploration)."""

    def __init__(
        self,
        locks: tuple[SecurityLock, ...] = DEFAULT_LOCKS,
        explore_booleans: bool = False,
        namespace: str = "default",
        precompile: bool = True,
    ):
        self.locks = locks
        self.explore_booleans = explore_booleans
        self.namespace = namespace
        #: Compile the validator eagerly at generation time (offline
        #: phase), so the enforcement proxy's first request does not
        #: pay the one-time compilation cost.
        self.precompile = precompile

    def generate(self, chart: Chart) -> PolicyGenerationReport:
        schema = generate_values_schema(chart, explore_booleans=self.explore_booleans)
        variants = explore_variants(schema)
        manifests = render_all_variants(chart, variants, namespace=self.namespace)
        validator = build_validator(
            chart.name, manifests, locks=self.locks, variants_rendered=len(variants)
        )
        validator.meta["chartVersion"] = chart.version
        validator.meta["exploreBooleans"] = self.explore_booleans
        if self.precompile:
            validator.compiled()
        return PolicyGenerationReport(
            operator=chart.name,
            values_schema=schema,
            variants=variants,
            manifests=manifests,
            validator=validator,
        )


def generate_policy(chart: Chart, **kwargs: Any) -> Validator:
    """One-call policy generation with default settings."""
    return PolicyGenerator(**kwargs).generate(chart).validator
