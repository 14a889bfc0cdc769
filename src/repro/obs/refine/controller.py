"""The audit-driven policy-refinement loop, end to end.

:class:`RefineController` glues the three refinement stages onto a
live proxy:

1. **profile** -- subscribes a
   :class:`~repro.obs.refine.profiler.FieldUsageProfiler` to the
   proxy's event bus and flips ``proxy.observe_fields`` so decision
   events carry their manifest field sample (off by default: the cost
   of extracting fields stays off the hot path until a refinement
   loop is running);
2. **refine** -- :meth:`build_candidate` runs the
   :class:`~repro.obs.refine.refiner.PolicyRefiner` over the usage
   matrix, yielding a tightened candidate revision plus its diff;
3. **shadow & gate** -- :meth:`start_shadow` installs a
   :class:`~repro.obs.refine.shadow.ShadowEvaluator` on the proxy
   (``proxy.shadow``); :meth:`verdict` combines divergence counters
   with the ``shadow-deny-rate`` SLI burn rate; :meth:`promote`
   installs the candidate through the proxy's normal
   ``install_validator`` path, so the revision bump invalidates the
   (sharded) decision cache atomically -- no stale decisions survive
   promotion.

The controller also *is* the ``/obs/refine`` payload: wire it as the
``refine=`` argument of :func:`repro.obs.http.obs_endpoint` and
:meth:`status` serves the usage matrix, candidate diff and shadow
verdict as one JSON document.
"""

from __future__ import annotations

import threading
from typing import Any

from .profiler import FieldUsageProfiler, UsageReport
from .refiner import CandidatePolicy, PolicyRefiner
from .shadow import DEFAULT_FRACTION, ShadowEvaluator, ShadowVerdict

__all__ = ["RefineController"]


class RefineController:
    """Drive profile -> refine -> shadow -> promote on a live proxy."""

    def __init__(
        self,
        proxy: Any,
        slo: Any | None = None,
        min_samples: int = 5,
        shadow_fraction: float = DEFAULT_FRACTION,
        shadow_min_samples: int = 25,
    ):
        self.proxy = proxy
        self.slo = slo if slo is not None else getattr(proxy, "slo", None)
        self.profiler = FieldUsageProfiler(validator=proxy.validator)
        self.refiner = PolicyRefiner(min_samples=min_samples)
        self.shadow_fraction = shadow_fraction
        self.shadow_min_samples = shadow_min_samples
        self.candidate: CandidatePolicy | None = None
        self.shadow: ShadowEvaluator | None = None
        self.promotions = 0
        self._lock = threading.Lock()
        self._unsubscribe = proxy.events.subscribe(self.profiler.ingest)
        # Decision events start carrying detail["fields"]/["values"].
        proxy.observe_fields = True
        proxy.refine = self

    def close(self) -> None:
        """Detach from the proxy (stop field observation + shadowing)."""
        self._unsubscribe()
        self.stop_shadow()
        self.proxy.observe_fields = False
        if getattr(self.proxy, "refine", None) is self:
            self.proxy.refine = None

    # -- stage 1: profile --------------------------------------------------

    def usage(self) -> UsageReport:
        """The observed-vs-permitted matrix against the *current*
        active policy (rebinds on every call: promotion moves the
        comparison baseline)."""
        self.profiler.bind(self.proxy.validator)
        return self.profiler.usage()

    # -- stage 2: refine ---------------------------------------------------

    def build_candidate(self) -> CandidatePolicy:
        """Synthesize (and remember) a tightened candidate revision."""
        usage = self.usage()
        with self._lock:
            self.candidate = self.refiner.refine(self.proxy.validator, usage)
            return self.candidate

    # -- stage 3: shadow + gate --------------------------------------------

    def start_shadow(self, fraction: float | None = None) -> ShadowEvaluator:
        """Begin shadow-evaluating live traffic against the candidate.

        Field observation pauses while the canary runs: the profiling
        phase already fed the candidate, and the canary's question is
        divergence, not usage -- keeping the phases exclusive keeps
        the hot-path cost of *each* phase separately bounded (the
        ``refine_*`` gates).  Observation resumes at
        :meth:`stop_shadow` / :meth:`promote`.
        """
        with self._lock:
            if self.candidate is None:
                raise RuntimeError(
                    "no candidate policy built; call build_candidate() first"
                )
            evaluator = ShadowEvaluator(
                self.candidate.validator,
                fraction=self.shadow_fraction if fraction is None else fraction,
                event_bus=self.proxy.events,
                metrics=self.proxy.stats.registry,
                min_samples=self.shadow_min_samples,
            )
            self.shadow = evaluator
        self.proxy.observe_fields = False
        self.proxy.shadow = evaluator
        return evaluator

    def stop_shadow(self) -> None:
        with self._lock:
            stopped = self.shadow is not None
            self.shadow = None
        if getattr(self.proxy, "shadow", None) is not None:
            self.proxy.shadow = None
        if stopped:
            # Back to the profiling phase for the next cycle.
            self.proxy.observe_fields = True

    def verdict(self) -> ShadowVerdict:
        """The promotion gate (burn-rate-aware when an SLO engine is
        wired)."""
        with self._lock:
            shadow = self.shadow
        if shadow is None:
            return ShadowVerdict(
                decision="hold",
                reasons=["shadow evaluation not running"],
            )
        slo_report = self.slo.evaluate() if self.slo is not None else None
        return shadow.verdict(slo_report)

    def promote(self, force: bool = False) -> int:
        """Install the candidate as the active policy.

        Refuses (raises ``RuntimeError``) unless the shadow verdict is
        ``promote`` -- pass ``force=True`` to override.  Returns the
        new active ``policy_revision``.  The swap goes through the
        proxy's ``install_validator``, which drops every cached
        decision; the revision-tagged sharded cache then re-keys on
        the promoted revision, so no pre-promotion decision can be
        served afterwards.
        """
        with self._lock:
            candidate = self.candidate
        if candidate is None:
            raise RuntimeError("no candidate policy to promote")
        if not force:
            verdict = self.verdict()
            if not verdict.promote:
                raise RuntimeError(
                    f"shadow verdict is {verdict.decision!r}, not 'promote': "
                    + "; ".join(verdict.reasons)
                )
        self.proxy.install_validator(candidate.validator)
        self.stop_shadow()
        with self._lock:
            self.candidate = None
            self.promotions += 1
        # The matrix restarts against the tightened baseline.
        self.profiler.bind(self.proxy.validator)
        return self.proxy.validator.policy_revision

    # -- /obs/refine -------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """The full refinement-loop state (the ``/obs/refine`` body)."""
        with self._lock:
            candidate = self.candidate
            shadow = self.shadow
        slo_report = self.slo.evaluate() if self.slo is not None else None
        out: dict[str, Any] = {
            "operator": self.proxy.validator.operator,
            "active_revision": self.proxy.validator.policy_revision,
            "observe_fields": bool(getattr(self.proxy, "observe_fields", False)),
            "promotions": self.promotions,
            "usage": self.usage().to_dict(),
            "candidate": candidate.to_dict() if candidate else None,
            "shadow": None,
        }
        if shadow is not None:
            out["shadow"] = {
                **shadow.snapshot(),
                "verdict": shadow.verdict(slo_report).to_dict(),
            }
        return out
