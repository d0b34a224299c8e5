"""EngineConfig v2 contract: one validated bundle, one spelling per knob.

Covers the unified-configuration surface:

* construction-time validation raises ``SpecError`` naming the field,
* a submitter that builds its own environment from ``config=`` and one
  handed a built pipeline or operator (with ``config`` carrying only
  ``slo_class`` / ``journaled``) are **bit-identical** — same admission
  logs, same journal streams, same full fingerprints — across fuzzer
  seeds, and any other ``config`` field next to a built collaborator
  is rejected instead of silently ignored,
* the removed v1 spellings stay removed,
* every shipped submitter conforms to the widened ``Submitter``
  protocol (``config`` member included) and is introspectable.
"""

from __future__ import annotations

import pytest

import repro.engine
from repro import couler
from repro.backends.base import Submitter
from repro.caching.manager import CacheManager
from repro.control.policy import PolicyConfig
from repro.core.submitter import (
    AdmissionSubmitter,
    AirflowSubmitter,
    ArgoSubmitter,
    LocalSubmitter,
    TektonSubmitter,
    default_environment,
    default_multicluster,
)
from repro.engine.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.fairness import LANES
from repro.engine.journal import Journal
from repro.engine.spec import SpecError
from repro.verify.fingerprint import fingerprint_record
from repro.verify.generator import GeneratorConfig, generate_ir

SEEDS = list(range(10))
DETERMINISTIC = GeneratorConfig(deterministic=True)


# ------------------------------------------------------------- validation


class TestValidation:
    def test_defaults_are_legacy_behaviour(self):
        config = EngineConfig()
        assert config == DEFAULT_CONFIG
        assert config.fast is True
        assert config.journaled is False
        assert config.fairness is None

    @pytest.mark.parametrize(
        ("kwargs", "field_name"),
        [
            ({"engine": "turbo"}, "engine"),
            ({"slo_class": 7}, "slo_class"),
            ({"journaled": "yes"}, "journaled"),
            ({"fairness": "round-robin"}, "fairness"),
            ({"slo_class": ""}, "slo_class"),
            ({"protect_gpu": True}, "protect_gpu"),
            ({"tenant_weights": {"t0": 0.0}}, "tenant_weights"),
            ({"max_pending": 0}, "max_pending"),
            ({"policy": "defaults"}, "policy"),
            ({"preemption": True, "max_preemptions": -1}, "max_preemptions"),
            ({"preemption": True, "preempt_cooldown": -1.0}, "preempt_cooldown"),
            ({"max_preemptions": 9}, "preemption"),
            ({"slo_class": "platinum"}, "slo_class"),
        ],
    )
    def test_invalid_combo_raises_spec_error_naming_field(
        self, kwargs, field_name
    ):
        with pytest.raises(SpecError) as excinfo:
            EngineConfig(**kwargs)
        assert field_name in str(excinfo.value)

    @pytest.mark.parametrize("lane", LANES)
    def test_every_lane_is_a_valid_slo_class(self, lane):
        assert EngineConfig(fairness="drf", slo_class=lane).slo_class == lane

    def test_protect_gpu_valid_with_fairness(self):
        config = EngineConfig(protect_gpu=True, fairness="weighted-fair")
        assert config.pipeline_kwargs()["protect_gpu"] is True

    def test_pipeline_kwargs_resolve_fairness_default(self):
        assert EngineConfig().pipeline_kwargs()["fairness"] == "strict-priority"
        assert EngineConfig(engine="naive").pipeline_kwargs()["fast"] is False

    def test_describe_lists_only_non_defaults(self):
        assert EngineConfig().describe() == "EngineConfig()"
        text = EngineConfig(engine="naive", max_pending=3).describe()
        assert "engine='naive'" in text and "max_pending=3" in text
        assert "journaled" not in text


# ----------------------------------------------------- spelling equivalence


def _journal_tuples(journal):
    if journal is None:
        return None
    return [
        (r.seq, r.stream, r.kind, r.at, repr(r.payload), r.event_id)
        for r in journal.records()
    ]


def _admission_tuple(admission):
    return (
        admission.workflow_name,
        admission.user,
        admission.priority,
        admission.arrival_time,
        admission.admitted,
        admission.admit_time,
        admission.place_time,
        admission.finish_time,
        admission.cluster_name,
        admission.deferrals,
        admission.slo_class,
    )


def _run_argo(ir, **kwargs):
    sub = ArgoSubmitter(**kwargs)
    record = sub.submit(ir)
    return fingerprint_record(ir, record).data, _journal_tuples(sub.journal)


def _run_admission(ir, seed, **kwargs):
    sub = AdmissionSubmitter(seed=seed, **kwargs)
    record = sub.submit(ir)
    return (
        fingerprint_record(ir, record).data,
        _journal_tuples(sub.journal),
        _admission_tuple(sub.last_admission),
    )


class TestSpellingEquivalence:
    """Built from ``config=`` ≡ handed a collaborator built the same way."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_argo_journaled_spellings_identical(self, seed):
        ir = generate_ir(seed, DETERMINISTIC)
        config = EngineConfig(journaled=True)
        built = _run_argo(ir, config=config)
        handed = _run_argo(
            ir, operator=default_environment(journal=Journal()), config=config
        )
        assert built == handed
        assert built[1], "journaled run produced no journal records"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_admission_spellings_identical(self, seed):
        ir = generate_ir(seed, DETERMINISTIC)
        built = _run_admission(
            ir,
            seed,
            config=EngineConfig(
                fairness="weighted-fair", slo_class="serving", journaled=True
            ),
        )
        pipeline = default_multicluster(
            seed=seed,
            journal=Journal(),
            config=EngineConfig(fairness="weighted-fair"),
        )
        handed = _run_admission(
            ir,
            seed,
            pipeline=pipeline,
            config=EngineConfig(slo_class="serving", journaled=True),
        )
        assert built == handed
        assert built[1], "journaled run produced no journal records"

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_naive_engine_matches_fast_engine(self, seed):
        ir = generate_ir(seed, DETERMINISTIC)
        fast = _run_admission(ir, seed, config=EngineConfig(journaled=True))
        naive = _run_admission(
            ir, seed, config=EngineConfig(engine="naive", journaled=True)
        )
        assert fast == naive

    def test_config_reaches_pipeline(self):
        sub = AdmissionSubmitter(config=EngineConfig(engine="naive"))
        assert sub.pipeline.fast is False
        assert AdmissionSubmitter().pipeline.fast is True


# ------------------------------------------- config next to a built collaborator


class TestHandedInCollaborator:
    """A built pipeline or operator keeps its own knobs, so a ``config``
    that sets any of them is rejected, naming the fields."""

    def test_pipeline_rejects_config_it_would_ignore(self):
        config = EngineConfig(engine="naive", preemption=True, max_pending=3)
        with pytest.raises(ValueError) as excinfo:
            AdmissionSubmitter(pipeline=default_multicluster(), config=config)
        message = str(excinfo.value)
        for name in ("engine", "preemption", "max_pending"):
            assert name in message

    def test_operator_rejects_config_it_would_ignore(self):
        with pytest.raises(ValueError, match="engine"):
            ArgoSubmitter(
                operator=default_environment(),
                config=EngineConfig(engine="naive"),
            )

    def test_slo_class_and_journaled_are_honoured(self):
        pipeline = default_multicluster(journal=Journal())
        sub = AdmissionSubmitter(
            pipeline=pipeline,
            config=EngineConfig(slo_class="serving", journaled=True),
        )
        assert sub.slo_class == "serving"
        assert sub.journal is pipeline.journal


# -------------------------------------------------------- removed spellings


class TestV2Surface:
    """The v1 spellings are gone, and nothing stands in for them."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EngineConfig(aging_rate=0.01),
            lambda: EngineConfig(scorer="naive"),
            lambda: EngineConfig(require_capacity=False),
            lambda: ArgoSubmitter(journaled=True),
            lambda: LocalSubmitter(journaled=True),
            lambda: AdmissionSubmitter(fairness="drf"),
            lambda: AdmissionSubmitter(slo_class="serving"),
            lambda: AdmissionSubmitter(journaled=True),
            lambda: default_multicluster(fairness="drf"),
            lambda: CacheManager(policy_config=PolicyConfig()),
        ],
        ids=[
            "EngineConfig-aging_rate",
            "EngineConfig-scorer",
            "EngineConfig-require_capacity",
            "ArgoSubmitter-journaled",
            "LocalSubmitter-journaled",
            "AdmissionSubmitter-fairness",
            "AdmissionSubmitter-slo_class",
            "AdmissionSubmitter-journaled",
            "default_multicluster-fairness",
            "CacheManager-policy_config",
        ],
    )
    def test_removed_spelling_raises_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_removed_names_are_gone(self):
        from repro.caching.policy import CachePolicy
        from repro.engine.admission import AdmissionPipeline
        from repro.engine.queue import MultiClusterQueue

        assert not hasattr(repro.engine, "MultiClusterDispatcher")
        assert not hasattr(repro.engine, "DispatchResult")
        assert not hasattr(CachePolicy, "admit")
        assert not hasattr(AdmissionPipeline, "cancel_pending")
        for name in ("enqueue", "dequeue", "requeue", "balance_report", "__len__"):
            assert not hasattr(MultiClusterQueue, name), name
        for name in ("effective_aging_rate", "effective_policy"):
            assert not hasattr(EngineConfig, name), name
        assert "require_capacity" not in EngineConfig().pipeline_kwargs()


# -------------------------------------------------- protocol conformance


class TestProtocolConformance:
    @pytest.mark.parametrize(
        "factory",
        [
            ArgoSubmitter,
            LocalSubmitter,
            AdmissionSubmitter,
            AirflowSubmitter,
            TektonSubmitter,
        ],
    )
    def test_shipped_submitters_carry_config(self, factory):
        submitter = factory()
        assert isinstance(submitter, Submitter)
        assert isinstance(submitter.config, EngineConfig)
        assert submitter.config.describe().startswith("EngineConfig")

    def test_facade_exports_config_surface(self):
        assert couler.EngineConfig is EngineConfig
        assert couler.DEFAULT_CONFIG is DEFAULT_CONFIG
        assert callable(couler.profile_run)


# ------------------------------------------------ adaptive policy field


class TestPolicyField:
    def test_policy_must_be_policy_config(self):
        with pytest.raises(SpecError, match="policy"):
            EngineConfig(policy="defaults")

    def test_default_policy_pipeline_kwargs_identical(self):
        assert (
            EngineConfig(policy=PolicyConfig()).pipeline_kwargs()
            == EngineConfig().pipeline_kwargs()
        )
        assert EngineConfig().pipeline_kwargs()["retry_policy"] is None

    def test_custom_retry_budget_threads_through(self):
        kwargs = EngineConfig(
            policy=PolicyConfig(retry_limit=5, infra_retry_limit=7)
        ).pipeline_kwargs()
        retry = kwargs["retry_policy"]
        assert retry is not None
        assert retry.limit == 5
        assert retry.infra_limit == 7

    def test_default_retry_budget_stays_none(self):
        kwargs = EngineConfig(
            policy=PolicyConfig(aging_rate=0.05)
        ).pipeline_kwargs()
        assert kwargs["retry_policy"] is None
        assert kwargs["aging_rate"] == 0.05
