"""Unified engine configuration for the v2 facade (``EngineConfig``).

:class:`EngineConfig` is the one spelling of every engine knob: a
frozen, keyword-only dataclass accepted by every submitter constructor
(``config=EngineConfig(...)``) and validated at construction time with
:class:`~repro.engine.spec.SpecError` naming the offending field.
Priority aging is not a field here: it is
:attr:`PolicyConfig.aging_rate`, carried on ``policy=``.

``engine`` selects the hot-path implementation: ``"fast"`` (the
default — incremental indexes, coalesced drains, parked placement
candidates) or ``"naive"`` (the straight-line reference paths the
``engine_fast`` verify oracle diffs against).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional

from .fairness import LANES
from .spec import SpecError

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from ..control.policy import PolicyConfig

#: Valid values for :attr:`EngineConfig.engine`.
ENGINE_MODES = ("fast", "naive")
#: Fairness policies the config accepts (mirrors the registry in
#: :mod:`repro.engine.fairness`; ``None`` = pipeline default).
FAIRNESS_POLICIES = ("strict-priority", "weighted-fair", "drf")


@dataclass(frozen=True)
class EngineConfig:
    """One validated bundle of engine/submitter knobs.

    Every field has the subsystem's historical default, so
    ``EngineConfig()`` is exactly the no-kwargs behaviour.
    """

    #: Hot-path implementation: ``"fast"`` or ``"naive"``.
    engine: str = "fast"
    #: Append every step/admission event to a durable journal.
    journaled: bool = False
    #: Cross-tenant ordering policy (``None`` = strict-priority).
    fairness: Optional[str] = None
    #: SLO lane for submissions, one of :data:`~repro.engine.fairness.LANES`
    #: (``None`` = the pipeline default lane).
    slo_class: Optional[str] = None
    #: Fairness weights per tenant (entitlement multipliers).
    tenant_weights: Optional[Dict[str, float]] = None
    #: Checkpoint-evict over-share batch work for blocked serving work.
    preemption: bool = False
    #: Per-workflow eviction budget when ``preemption`` is on.
    max_preemptions: int = 2
    #: Post-restore re-eviction cooldown (virtual seconds).
    preempt_cooldown: float = 60.0
    #: Keep CPU-only filler off GPU clusters (needs a fairness policy).
    protect_gpu: bool = False
    #: Bounded admission queue depth (``None`` = unbounded).
    max_pending: Optional[int] = None
    #: Adaptive policy knobs (:class:`~repro.control.policy.PolicyConfig`);
    #: ``None`` = the static paper defaults, bit-identical to
    #: ``policy=PolicyConfig()``.
    policy: Optional[PolicyConfig] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_MODES:
            raise SpecError(
                f"EngineConfig.engine must be one of {ENGINE_MODES}: {self.engine!r}"
            )
        if not isinstance(self.journaled, bool):
            raise SpecError(
                f"EngineConfig.journaled must be a bool: {self.journaled!r}"
            )
        if self.fairness is not None and self.fairness not in FAIRNESS_POLICIES:
            raise SpecError(
                f"EngineConfig.fairness must be one of {FAIRNESS_POLICIES} "
                f"or None: {self.fairness!r}"
            )
        if self.slo_class is not None and self.slo_class not in LANES:
            raise SpecError(
                f"EngineConfig.slo_class must be one of {LANES} or None: "
                f"{self.slo_class!r}"
            )
        if self.protect_gpu and self.fairness is None:
            raise SpecError(
                "EngineConfig.protect_gpu requires a fairness policy "
                "(set fairness='weighted-fair' or 'drf' — GPU protection "
                "redirects placement across tenants)"
            )
        if self.tenant_weights is not None:
            for user, weight in self.tenant_weights.items():
                if weight <= 0:
                    raise SpecError(
                        f"EngineConfig.tenant_weights[{user!r}] must be "
                        f"> 0: {weight}"
                    )
        if self.max_pending is not None and self.max_pending < 1:
            raise SpecError(
                f"EngineConfig.max_pending must be >= 1 or None: {self.max_pending}"
            )
        if self.max_preemptions < 0:
            raise SpecError(
                f"EngineConfig.max_preemptions must be >= 0: {self.max_preemptions}"
            )
        if self.preempt_cooldown < 0:
            raise SpecError(
                f"EngineConfig.preempt_cooldown must be >= 0: "
                f"{self.preempt_cooldown}"
            )
        if not self.preemption and (
            self.max_preemptions != 2 or self.preempt_cooldown != 60.0
        ):
            raise SpecError(
                "EngineConfig.preemption is off but max_preemptions / "
                "preempt_cooldown were customised — set preemption=True"
            )
        if self.policy is not None:
            from ..control.policy import PolicyConfig

            if not isinstance(self.policy, PolicyConfig):
                raise SpecError(
                    f"EngineConfig.policy must be a PolicyConfig or None: "
                    f"{self.policy!r}"
                )

    # ------------------------------------------------------------- helpers

    @property
    def fast(self) -> bool:
        """True when the fast hot paths are selected."""
        return self.engine == "fast"

    def pipeline_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for :class:`AdmissionPipeline`.

        ``fairness=None`` resolves to the pipeline's ``strict-priority``
        default.  ``aging_rate`` comes from ``policy`` (0.0 without
        one).  A customised retry budget on ``policy`` threads through
        as a ``RetryPolicy`` for every cluster operator; the default
        budget passes ``None`` so the operator builds its own
        (bit-identical).
        """
        retry_policy = None
        aging_rate = 0.0
        if self.policy is not None:
            aging_rate = self.policy.aging_rate
            default = type(self.policy)()
            if (self.policy.retry_limit, self.policy.infra_retry_limit) != (
                default.retry_limit,
                default.infra_retry_limit,
            ):
                retry_policy = self.policy.retry_policy()
        return {
            "fairness": self.fairness or "strict-priority",
            "tenant_weights": (
                dict(self.tenant_weights) if self.tenant_weights else None
            ),
            "preemption": self.preemption,
            "max_preemptions": self.max_preemptions,
            "preempt_cooldown": self.preempt_cooldown,
            "protect_gpu": self.protect_gpu,
            "max_pending": self.max_pending,
            "aging_rate": aging_rate,
            "retry_policy": retry_policy,
            "fast": self.fast,
        }

    def describe(self) -> str:
        """Compact one-line summary (non-default fields only)."""
        default = EngineConfig()
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        ]
        return f"EngineConfig({', '.join(parts)})" if parts else "EngineConfig()"


#: The all-defaults config — exactly the no-kwargs behaviour.
DEFAULT_CONFIG: EngineConfig = EngineConfig()

__all__ = ["EngineConfig", "DEFAULT_CONFIG", "ENGINE_MODES"]
