"""PolicyConfig contract: one frozen knob bundle, default == static paper.

Mirrors ``tests/test_engine_config.py`` for the adaptive-policy surface:
construction-time ``SpecError`` validation naming the field, keyword-only
frozen dataclass semantics, subsystem bridges (``ScoreWeights``,
``BudgetModel``, ``RetryPolicy``), dict round-trip for the
AdaptationLog, and the cache entry point
``CacheManager(weights=policy.score_weights())`` (defaults bit-identical).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import couler
from repro.caching.manager import CacheManager
from repro.caching.score import ScoreWeights
from repro.control import DEFAULT_POLICY, PolicyConfig
from repro.engine.spec import SpecError

GB = 2**30


class TestValidation:
    def test_defaults_are_static_paper_constants(self):
        policy = PolicyConfig()
        assert policy == DEFAULT_POLICY
        assert policy.is_default()
        assert policy.score_alpha == 1.5
        assert policy.score_beta == 1.0
        assert policy.eviction_pressure == 1.0
        assert policy.split_budget_steps is None
        assert policy.aging_rate == 0.0
        assert policy.retry_limit == 3
        assert policy.infra_retry_limit == 32

    @pytest.mark.parametrize(
        ("kwargs", "field_name"),
        [
            ({"score_alpha": -0.1}, "score_alpha"),
            ({"score_beta": -1.0}, "score_beta"),
            ({"eviction_pressure": -2.0}, "eviction_pressure"),
            ({"split_budget_steps": 0}, "split_budget_steps"),
            ({"aging_rate": -0.01}, "aging_rate"),
            ({"retry_limit": -1}, "retry_limit"),
            ({"infra_retry_limit": -1}, "infra_retry_limit"),
        ],
    )
    def test_invalid_value_raises_spec_error_naming_field(
        self, kwargs, field_name
    ):
        with pytest.raises(SpecError) as excinfo:
            PolicyConfig(**kwargs)
        assert field_name in str(excinfo.value)

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            PolicyConfig(2.0)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PolicyConfig().score_alpha = 2.0

    def test_describe_lists_only_non_defaults(self):
        assert PolicyConfig().describe() == "PolicyConfig()"
        text = PolicyConfig(score_alpha=2.0, aging_rate=0.05).describe()
        assert "score_alpha=2.0" in text and "aging_rate=0.05" in text
        assert "retry_limit" not in text


class TestBridges:
    def test_score_weights_carries_knobs(self):
        weights = PolicyConfig(
            score_alpha=2.0, score_beta=0.5, eviction_pressure=4.0
        ).score_weights()
        assert weights.alpha == 2.0
        assert weights.beta == 0.5
        assert weights.cache_cost_weight == 4.0

    def test_default_score_weights_bit_identical(self):
        assert PolicyConfig().score_weights() == ScoreWeights()

    def test_score_weights_preserves_base_non_knob_fields(self):
        base = ScoreWeights(cache_cost_scale=123.0)
        weights = PolicyConfig(score_alpha=3.0).score_weights(base)
        assert weights.cache_cost_scale == 123.0
        assert weights.alpha == 3.0

    def test_split_budget_resolution(self):
        assert PolicyConfig().split_budget(6) == 6
        assert PolicyConfig().split_budget() is None
        assert PolicyConfig(split_budget_steps=4).split_budget(6) == 4

    def test_budget_model(self):
        model = PolicyConfig(split_budget_steps=4).budget_model()
        assert model.max_steps == 4
        default_model = PolicyConfig().budget_model()
        assert default_model.max_steps == type(default_model)().max_steps

    def test_retry_policy_budgets(self):
        retry = PolicyConfig(retry_limit=5, infra_retry_limit=9).retry_policy()
        assert retry.limit == 5
        assert retry.infra_limit == 9


class TestDictRoundTrip:
    def test_round_trip(self):
        policy = PolicyConfig(score_alpha=2.0, aging_rate=0.05)
        assert PolicyConfig.from_dict(policy.to_dict()) == policy

    def test_unknown_field_rejected(self):
        payload = PolicyConfig().to_dict()
        payload["cache_gb"] = 1.0
        with pytest.raises(SpecError, match="cache_gb"):
            PolicyConfig.from_dict(payload)


class TestCacheManagerEntryPoint:
    def test_default_policy_config_matches_default_weights(self):
        plain = CacheManager(policy="couler", capacity_bytes=GB)
        configured = CacheManager(
            policy="couler",
            capacity_bytes=GB,
            weights=PolicyConfig().score_weights(),
        )
        assert configured.scorer.weights == plain.scorer.weights

    def test_knobs_reach_the_scorer(self):
        policy = PolicyConfig(score_alpha=2.0, eviction_pressure=0.5)
        manager = CacheManager(
            policy="couler", capacity_bytes=GB, weights=policy.score_weights()
        )
        assert manager.scorer.weights.alpha == 2.0
        assert manager.scorer.weights.cache_cost_weight == 0.5


class TestFacade:
    def test_v1_facade_exports_control_surface(self):
        assert couler.PolicyConfig is PolicyConfig
        assert "PolicyConfig" in couler.__all__
        assert "Controller" in couler.__all__
        assert "AdaptationLog" in couler.__all__
        from repro.control.controller import AdaptationLog, Controller

        assert couler.Controller is Controller
        assert couler.AdaptationLog is AdaptationLog
