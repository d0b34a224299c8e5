"""Unified policy-knob surface for the adaptive controller (``PolicyConfig``).

The paper's headline numbers rest on fixed policy constants scattered
across four subsystems: the Algorithm 2 ScoreWeights ``alpha``/``beta``
and the eviction pressure on the ``exp(-V)`` cache-cost term
(:mod:`repro.caching.score`), the Algorithm 3 split budget ``C``
(:mod:`repro.parallelism.budget`), the admission aging rate
(:mod:`repro.engine.admission`) and the retry budgets
(:mod:`repro.engine.retry`).  :class:`PolicyConfig` gathers those knobs
into one frozen keyword-only dataclass — the same shape as
:class:`~repro.engine.config.EngineConfig`: SpecError validation
naming the offending field, and every default equal to the subsystem's
historical default so ``PolicyConfig()`` is bit-identical to passing
nothing at all.  Each knob has one spelling: ``aging_rate`` lives here
only (``EngineConfig(policy=...)`` carries it to the pipeline).

The controller (:mod:`repro.control.controller`) searches over
``PolicyConfig`` candidates; everything downstream consumes the config
through the existing subsystem surfaces (``ScoreWeights`` via
``CacheManager(weights=policy.score_weights())``, ``BudgetModel``,
``RetryPolicy``, pipeline kwargs) — no side channels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

from ..engine.spec import SpecError


@dataclass(frozen=True, kw_only=True)
class PolicyConfig:
    """One validated bundle of adaptive policy knobs.

    Every field defaults to the subsystem's historical constant, so
    ``PolicyConfig()`` reproduces the static paper defaults exactly
    (proven bit-identical by the ``adaptive`` verify oracle).
    """

    #: Eq. 6 reconstruction-cost weight (paper production choice: 1.5).
    score_alpha: float = 1.5
    #: Eq. 6 reuse-value weight (paper production choice: 1.0).
    score_beta: float = 1.0
    #: Multiplier on the ``exp(-V)`` cache-cost penalty of Eq. 6 —
    #: >1 evicts large artifacts more aggressively, <1 retains them.
    eviction_pressure: float = 1.0
    #: Algorithm 3 split budget C in steps (``None`` = keep the
    #: caller's budget — contexts default differently, e.g. 200 for
    #: raw :class:`~repro.parallelism.budget.BudgetModel`, 6 for the
    #: corpus experiment).
    split_budget_steps: Optional[int] = None
    #: Effective-priority points per second of admission queue wait.
    aging_rate: float = 0.0
    #: Application-error retry budget per step.
    retry_limit: int = 3
    #: Infrastructure-error retry budget per step (not charged to
    #: ``retry_limit``; see :mod:`repro.engine.retry`).
    infra_retry_limit: int = 32

    def __post_init__(self) -> None:
        if self.score_alpha < 0:
            raise SpecError(
                f"PolicyConfig.score_alpha must be >= 0: {self.score_alpha}"
            )
        if self.score_beta < 0:
            raise SpecError(
                f"PolicyConfig.score_beta must be >= 0: {self.score_beta}"
            )
        if self.eviction_pressure < 0:
            raise SpecError(
                f"PolicyConfig.eviction_pressure must be >= 0: "
                f"{self.eviction_pressure}"
            )
        if self.split_budget_steps is not None and self.split_budget_steps < 1:
            raise SpecError(
                f"PolicyConfig.split_budget_steps must be >= 1 or None: "
                f"{self.split_budget_steps}"
            )
        if self.aging_rate < 0:
            raise SpecError(
                f"PolicyConfig.aging_rate must be >= 0: {self.aging_rate}"
            )
        if self.retry_limit < 0:
            raise SpecError(
                f"PolicyConfig.retry_limit must be >= 0: {self.retry_limit}"
            )
        if self.infra_retry_limit < 0:
            raise SpecError(
                f"PolicyConfig.infra_retry_limit must be >= 0: "
                f"{self.infra_retry_limit}"
            )

    # ------------------------------------------------------------- bridges

    def score_weights(self, base: Optional[object] = None):
        """The Eq. 6 :class:`~repro.caching.score.ScoreWeights` this
        policy selects, preserving non-knob fields of ``base`` (scale,
        horizon, ablation switches) when one is given."""
        from ..caching.score import ScoreWeights

        base = base if base is not None else ScoreWeights()
        return replace(
            base,
            alpha=self.score_alpha,
            beta=self.score_beta,
            cache_cost_weight=self.eviction_pressure,
        )

    def split_budget(self, default_max_steps: Optional[int] = None) -> Optional[int]:
        """Resolve the split budget: this policy's, else the caller's."""
        if self.split_budget_steps is not None:
            return self.split_budget_steps
        return default_max_steps

    def budget_model(self, default_max_steps: Optional[int] = None):
        """An Algorithm 3 :class:`~repro.parallelism.budget.BudgetModel`
        with this policy's step budget applied."""
        from ..parallelism.budget import BudgetModel

        steps = self.split_budget(default_max_steps)
        return BudgetModel() if steps is None else BudgetModel(max_steps=steps)

    def retry_policy(self):
        """A :class:`~repro.engine.retry.RetryPolicy` with this
        policy's budgets (backoff shape stays at the defaults)."""
        from ..engine.retry import RetryPolicy

        return RetryPolicy(
            limit=self.retry_limit, infra_limit=self.infra_retry_limit
        )

    # ------------------------------------------------------------- helpers

    def is_default(self) -> bool:
        """True when every knob is the static paper default."""
        return self == PolicyConfig()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable knob mapping (AdaptationLog records these)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PolicyConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(f"PolicyConfig.from_dict: unknown fields {unknown}")
        return cls(**payload)  # type: ignore[arg-type]

    def describe(self) -> str:
        """Compact one-line summary (non-default fields only)."""
        default = PolicyConfig()
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != getattr(default, f.name)
        ]
        return f"PolicyConfig({', '.join(parts)})" if parts else "PolicyConfig()"


#: The all-defaults policy — exactly the static paper constants.
DEFAULT_POLICY: PolicyConfig = PolicyConfig()

__all__ = ["PolicyConfig", "DEFAULT_POLICY"]
