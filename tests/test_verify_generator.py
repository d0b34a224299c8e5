"""The seeded workflow fuzzer: determinism and DSL surface coverage."""

import pytest

from repro.ir.nodes import ArtifactStorage, OpKind
from repro.ir.serialize import ir_to_dict
from repro.verify import CORPUS_ORACLES, corpus_ir, run_seed, run_suite
from repro.verify.generator import GeneratorConfig, generate_ir
from repro.verify.oracles import OracleOutcome
from repro.verify.shrink import shrink_failure, shrink_ir

SWEEP = range(40)


def test_same_seed_same_ir():
    for seed in range(10):
        assert ir_to_dict(generate_ir(seed)) == ir_to_dict(generate_ir(seed))


def test_stochastic_mode_is_also_seed_deterministic():
    config = GeneratorConfig(deterministic=False)
    for seed in range(10):
        assert ir_to_dict(generate_ir(seed, config)) == ir_to_dict(
            generate_ir(seed, config)
        )


def test_different_seeds_differ():
    dumps = {repr(ir_to_dict(generate_ir(seed))) for seed in range(10)}
    assert len(dumps) == 10


def test_node_counts_respect_config():
    config = GeneratorConfig(min_nodes=3, max_nodes=12)
    for seed in SWEEP:
        size = len(generate_ir(seed, config).nodes)
        # Control-flow moves (map fan-out, loop unrolling) can overshoot
        # the target by a couple of nodes; never undershoot.
        assert 3 <= size <= 12 + 6


def test_every_op_kind_is_generated():
    ops = {
        node.op for seed in SWEEP for node in generate_ir(seed).nodes.values()
    }
    assert ops == set(OpKind)


def test_every_storage_class_is_generated():
    storages = set()
    for seed in SWEEP:
        for node in generate_ir(seed).nodes.values():
            for artifact in node.inputs + node.outputs:
                storages.add(artifact.storage)
    assert storages == set(ArtifactStorage)


def test_control_flow_surface_is_covered():
    when_guards = 0
    map_seeds = 0
    dag_seeds = 0
    retries = 0
    gpu_steps = 0
    wired_inputs = 0
    for seed in SWEEP:
        ir = generate_ir(seed)
        when_guards += sum(1 for node in ir.nodes.values() if node.when)
        retries += sum(
            1 for node in ir.nodes.values() if node.retries is not None
        )
        gpu_steps += sum(
            1 for node in ir.nodes.values() if node.sim and node.sim.uses_gpu
        )
        wired_inputs += sum(1 for node in ir.nodes.values() if node.inputs)
        if any("-" in name and name[0] == "m" for name in ir.nodes):
            map_seeds += 1
        if all(name[0] == "d" for name in ir.nodes):
            dag_seeds += 1
    assert when_guards > 10
    assert map_seeds > 3
    assert dag_seeds > 3
    assert retries > 10
    assert gpu_steps > 10
    assert wired_inputs > 10


def test_workflows_have_edges():
    assert sum(len(generate_ir(seed).edges) for seed in range(5)) > 0


def test_deterministic_config_forces_outcomes():
    """The oracle mode must yield branch-stable workflows: no failure
    injection, and at most one possible ``result`` per step."""
    for seed in SWEEP:
        for node in generate_ir(seed).nodes.values():
            if node.sim is None:
                continue
            assert node.sim.failure_rate == 0.0
            assert len(node.sim.result_options) <= 1


def test_stochastic_config_exercises_failures_and_branching():
    config = GeneratorConfig(deterministic=False)
    failure_rates = set()
    multi_valued = 0
    for seed in SWEEP:
        for node in generate_ir(seed, config).nodes.values():
            if node.sim is None:
                continue
            failure_rates.add(node.sim.failure_rate)
            if len(node.sim.result_options) >= 2:
                multi_valued += 1
    assert any(rate > 0 for rate in failure_rates)
    assert multi_valued > 10


def test_generated_ir_is_executable():
    for seed in range(10):
        executable = generate_ir(seed).to_executable()
        executable.validate()
        assert executable.steps


def test_config_is_honored():
    config = GeneratorConfig(min_nodes=2, max_nodes=4, artifact_probability=0.0)
    for seed in range(10):
        ir = generate_ir(seed, config)
        assert len(ir.nodes) <= 4 + 6
        # Scripts always declare their implicit ``result`` parameter;
        # with artifact_probability=0 no *data* artifact may appear.
        assert all(
            artifact.name == "result"
            for node in ir.nodes.values()
            for artifact in node.outputs
        )


class TestCorpusBackedFuzzing:
    """``--source corpus``: oracles over frontend-compiled workflows."""

    def test_corpus_ir_is_seed_deterministic(self):
        for seed in (0, 3, 7):
            assert ir_to_dict(corpus_ir(seed)) == ir_to_dict(corpus_ir(seed))

    def test_seeds_in_a_pool_draw_distinct_workflows(self):
        dumps = {repr(ir_to_dict(corpus_ir(seed))) for seed in range(6)}
        assert len(dumps) > 1

    def test_corpus_mode_defaults_to_corpus_oracle_set(self):
        outcomes = run_seed(2, source="corpus")
        assert [o.oracle for o in outcomes] == list(CORPUS_ORACLES)
        assert all(o.ok for o in outcomes), [o.detail for o in outcomes if not o.ok]

    def test_corpus_oracle_set_is_every_deterministic_row(self):
        from repro.verify.oracles import ORACLES

        assert list(CORPUS_ORACLES) == sorted(
            name for name, oracle in ORACLES.items() if oracle.config.deterministic
        )
        assert set(ORACLES) - set(CORPUS_ORACLES) == {"replay"}
        assert {"scores", "fairness"} <= set(CORPUS_ORACLES)

    def test_corpus_mode_rejects_replay_oracle(self):
        with pytest.raises(ValueError, match="cannot run on corpus workflows"):
            run_seed(0, ["replay"], source="corpus")

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            run_seed(0, source="weather-balloon")

    def test_corpus_suite_sweep_passes(self):
        report = run_suite(range(4), ["cache", "split"], source="corpus")
        assert not report.failures
        assert report.counts() == {"cache": (4, 4), "split": (4, 4)}

    @pytest.mark.slow
    def test_corpus_suite_full_oracle_sweep(self):
        # The ISSUE acceptance bar: every corpus oracle over >= 25 seeds.
        report = run_suite(range(25), source="corpus")
        assert not report.failures
        assert all(
            passed == total == 25 for passed, total in report.counts().values()
        )


class TestShrinkerOnCorpusWorkflows:
    def test_shrinker_is_one_minimal_on_injected_mutation(self):
        # Inject a failure that needs two specific nodes to co-exist;
        # the 1-minimal repro is exactly that pair.
        ir = corpus_ir(3)
        names = sorted(ir.nodes)
        assert len(names) >= 3, "corpus workflow too small to shrink"
        culprits = {names[0], names[-1]}

        def still_fails(candidate):
            return culprits <= set(candidate.nodes)

        minimal = shrink_ir(ir, still_fails)
        assert set(minimal.nodes) == culprits
        # 1-minimality: removing either remaining node clears the failure.
        from repro.verify.shrink import delete_node

        for name in culprits:
            assert not still_fails(delete_node(minimal, name))

    def test_shrink_failure_corpus_source_detects_non_repro(self):
        # A fabricated failure on a healthy corpus seed must come back
        # None (the corpus IR passes the real check).
        fake = OracleOutcome(oracle="cache", seed=2, ok=False, detail="injected")
        assert shrink_failure(fake, source="corpus") is None
