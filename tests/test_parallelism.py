"""Unit + integration tests for Algorithm 3 (budget, splitter, stitching)."""

import random

import pytest
import yaml

from repro.backends.argo import ArgoBackend
from repro.backends.tekton import TektonBackend
from repro.core.submitter import default_environment
from repro.experiments.ablation_split_budget import build_big_workflow
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import IRNode, OpKind, SimHint
from repro.ir.passes import DeadNodeEliminationPass
from repro.k8s.apiserver import APIServer, CRDTooLargeError
from repro.k8s.objects import APIObject
from repro.engine.status import WorkflowPhase
from repro.parallelism import (
    BudgetModel,
    SplitError,
    WorkflowSplitter,
    manifest_submit,
    merge_part_records,
    run_parts,
)
from repro.verify.generator import generate_ir
from repro.verify.oracles import DETERMINISTIC_CONFIG
from repro.workloads.corpus import clone_ir


def _layered_ir(layers: int = 8, width: int = 12, seed: int = 3) -> WorkflowIR:
    rng = random.Random(seed)
    ir = WorkflowIR(name="layered")
    previous = []
    for layer in range(layers):
        current = []
        for index in range(width):
            name = f"l{layer}n{index}"
            ir.add_node(
                IRNode(name=name, op=OpKind.CONTAINER, image="w:v1",
                       sim=SimHint(duration_s=10))
            )
            for parent in rng.sample(previous, min(2, len(previous))):
                ir.add_edge(parent, name)
            current.append(name)
        previous = current
    return ir


def _count_exact_costs(budget: BudgetModel) -> list:
    """Record the name of every IR ``budget`` compiles exactly."""
    compiled = []
    exact_cost = budget.exact_cost

    def counted(ir):
        compiled.append(ir.name)
        return exact_cost(ir)

    budget.exact_cost = counted
    return compiled


#: A byte limit the layered workflow's byte bounds cannot decide: over
#: every size splitting it at 25 steps compares with the limit, under
#: the largest upper bound the bounds would compare.  So the splitter
#: renders, and the bytes still decide nothing.
LAYERED_UNDECIDED_BYTES = 12_000


def _undecided(ir: WorkflowIR, **limits) -> BudgetModel:
    """A budget whose byte limit is ``ir``'s exact size: it fits, but
    not by its upper bound, so only a render can tell."""
    exact = BudgetModel().exact_cost(ir).yaml_bytes
    assert BudgetModel().byte_bounds(ir)[1] > exact
    return BudgetModel(max_yaml_bytes=exact, **limits)


def _fuzzer_budget(seed: int, fraction: float) -> tuple:
    """A fuzzer workflow and a byte budget at ``fraction`` of its size."""
    ir = generate_ir(seed, DETERMINISTIC_CONFIG)
    whole = BudgetModel().exact_cost(ir).yaml_bytes
    return ir, BudgetModel(max_yaml_bytes=max(1024, int(whole * fraction)))


def _rendered(ir: WorkflowIR) -> int:
    return len(ArgoBackend().compile_to_text(ir).encode("utf-8"))


def _assert_valid_plan(ir: WorkflowIR, budget: BudgetModel, plan) -> None:
    assert sorted(n for part in plan.parts for n in part.nodes) == sorted(ir.nodes)
    for part, cost in zip(plan.parts, plan.costs):
        assert budget.exact_cost(part) == cost
        assert budget.within(cost)


class TestBudgetModel:
    def test_exact_cost_counts_steps_and_pods(self):
        ir = _layered_ir(layers=2, width=3)
        cost = BudgetModel().exact_cost(ir)
        assert cost.steps == 6
        assert cost.pods == 6
        assert cost.yaml_bytes > 0

    def test_job_nodes_count_all_pods(self):
        ir = WorkflowIR(name="j")
        ir.add_node(
            IRNode(
                name="dist",
                op=OpKind.JOB,
                image="tf",
                command=["python"],
                job_params={"num_ps": 2, "num_workers": 5},
            )
        )
        assert BudgetModel().exact_cost(ir).pods == 7

    def test_needs_split_thresholds(self):
        ir = _layered_ir(layers=2, width=3)
        assert not BudgetModel().needs_split(ir)
        assert BudgetModel(max_steps=3).needs_split(ir)
        assert BudgetModel(max_yaml_bytes=100).needs_split(ir)

    def test_needs_split_counts_before_compiling(self):
        ir = _layered_ir(layers=2, width=3)
        over_steps = BudgetModel(max_steps=3)
        over_pods = BudgetModel(max_pods=5)
        for budget in (over_steps, over_pods):
            compiled = _count_exact_costs(budget)
            assert budget.needs_split(ir)
            assert compiled == []
        fits = _undecided(ir)
        compiled = _count_exact_costs(fits)
        assert not fits.needs_split(ir)
        assert compiled == [ir.name]

    def test_needs_split_renders_nothing_the_bounds_decide(self):
        ir = _layered_ir(layers=2, width=3)
        fits = BudgetModel()
        compiled = _count_exact_costs(fits)
        assert not fits.needs_split(ir)
        assert compiled == []

    def test_byte_bounds_hold_the_rendered_size(self):
        for ir in (_layered_ir(), WorkflowIR(name="empty")):
            lo, hi = BudgetModel().byte_bounds(ir)
            assert lo <= _rendered(ir) <= hi

    def test_yaml_bytes_are_the_rendered_text_size(self):
        # A tab or a non-ASCII character forces a double-quoted scalar;
        # long enough, it folds across lines, the one place libyaml and
        # PyYAML's Python emitter render differently.  The budget must
        # still measure exactly the text the backend emits.
        ir = WorkflowIR(name="quoted")
        ir.add_node(
            IRNode(
                name="tabbed",
                op=OpKind.CONTAINER,
                image="x",
                args=["word " * 30 + "\t" + "caf\u00e9 \u4e2d " * 12 + "end " * 20],
            )
        )
        ir.add_node(
            IRNode(name="script", op=OpKind.SCRIPT, image="python",
                   source="def f():\n\treturn 'na\u00efve'\n" * 6)
        )
        ir.add_edge("tabbed", "script")
        text = ArgoBackend().compile_to_text(ir)
        assert len(text.encode("utf-8")) == BudgetModel().exact_cost(ir).yaml_bytes


class TestSplitter:
    def test_within_budget_returns_single_part(self):
        ir = _layered_ir(layers=2, width=3)
        plan = WorkflowSplitter(BudgetModel()).split(ir)
        assert plan.num_parts == 1
        assert plan.parts[0] is ir

    def test_within_budget_compiles_once(self):
        ir = _layered_ir(layers=2, width=3)
        budget = _undecided(ir)
        compiled = _count_exact_costs(budget)
        WorkflowSplitter(budget).split(ir)
        assert compiled == [ir.name]

    def test_within_budget_by_bounds_compiles_on_the_first_cost_read(self):
        ir = _layered_ir(layers=2, width=3)
        budget = BudgetModel()
        compiled = _count_exact_costs(budget)
        plan = WorkflowSplitter(budget).split(ir)
        assert plan.parts == [ir]
        assert compiled == []
        assert plan.costs == [BudgetModel().exact_cost(ir)]
        assert plan.costs == [BudgetModel().exact_cost(ir)]
        assert compiled == [ir.name]

    def test_split_sizes_one_plus_k(self):
        # Over the step guard, the whole IR is never sized: the per-node
        # estimate reads the workflow's own pieces, then come one
        # calibration sample and each of the k parts once, under its
        # final name.
        ir = _layered_ir()
        budget = BudgetModel(max_steps=25, max_yaml_bytes=LAYERED_UNDECIDED_BYTES)
        assert WorkflowSplitter(budget).split_by_bounds(ir) is None
        compiled = _count_exact_costs(budget)
        plan = WorkflowSplitter(budget).split(ir)
        k = plan.num_parts
        assert k == 4
        assert len(compiled) == 1 + k
        assert compiled[0] == "calibration"
        assert ir.name not in compiled
        assert compiled[-k:] == [f"{ir.name}-part-{i}" for i in range(k)]
        assert [part.name for part in plan.parts] == compiled[-k:]

    def test_split_by_bounds_sizes_nothing_until_costs_are_read(self):
        ir = _layered_ir()
        budget = BudgetModel(max_steps=25)
        compiled = _count_exact_costs(budget)
        plan = WorkflowSplitter(budget).split(ir)
        k = plan.num_parts
        assert k == 4
        assert compiled == []
        costs = plan.costs
        assert compiled == [f"{ir.name}-part-{i}" for i in range(k)]
        assert costs == WorkflowSplitter(BudgetModel(max_steps=25)).split_rendering(ir).costs

    @staticmethod
    def _count_template_renders(monkeypatch, ir: WorkflowIR) -> dict:
        """Count, per node of ``ir``, the YAML renders holding its template."""
        rendered: dict = {}
        dump = yaml.dump

        def counting_dump(document, *args, **kwargs):
            stack = [document]
            while stack:
                value = stack.pop()
                if isinstance(value, dict):
                    if "metadata" in value and value.get("name") in ir.nodes:
                        rendered[value["name"]] = rendered.get(value["name"], 0) + 1
                    stack.extend(value.values())
                elif isinstance(value, list):
                    stack.extend(value)
            return dump(document, *args, **kwargs)

        monkeypatch.setattr(yaml, "dump", counting_dump)
        return rendered

    def test_split_renders_each_template_once_and_a_rerun_none(self, monkeypatch):
        ir = _layered_ir()
        rendered = self._count_template_renders(monkeypatch, ir)
        splitter = WorkflowSplitter(
            BudgetModel(max_steps=25, max_yaml_bytes=LAYERED_UNDECIDED_BYTES)
        )
        plan = splitter.split(ir)
        assert plan.num_parts == 4
        assert rendered == {name: 1 for name in ir.nodes}

        rendered.clear()
        rerun = splitter.split(clone_ir(ir, "layered-rerun"))
        assert rerun.assignment == plan.assignment
        assert rendered == {}

    def test_split_by_bounds_renders_no_template(self, monkeypatch):
        ir = _layered_ir()
        rendered = self._count_template_renders(monkeypatch, ir)
        splitter = WorkflowSplitter(BudgetModel(max_steps=25))
        plan = splitter.split(ir)
        assert plan.num_parts == 4
        rerun = splitter.split(clone_ir(ir, "layered-rerun"))
        assert rerun.assignment == plan.assignment
        assert rendered == {}

    def test_part_verified_under_its_final_name(self):
        # Regression: fuzzer seed 0 at 35% of its size.  A 3-step chunk
        # fitted when verified under a short placeholder name, then
        # missed the budget by two bytes under its longer part name, and
        # the whole split was refused.
        ir, budget = _fuzzer_budget(seed=0, fraction=0.35)
        plan = WorkflowSplitter(budget).split(ir)
        assert plan.num_parts > 1
        _assert_valid_plan(ir, budget, plan)

    def test_node_flagged_by_the_estimate_rechecked_exactly(self):
        # Regression: fuzzer seed 20 at 35% of its size.  The calibrated
        # per-node estimate put node c2 over the budget alone, but its
        # exact compile fits, so the workflow splits.
        ir, budget = _fuzzer_budget(seed=20, fraction=0.35)
        splitter = WorkflowSplitter(budget)
        plan = splitter.split(ir)
        _assert_valid_plan(ir, budget, plan)
        assert splitter.fits_alone(ir, "c2")

    def test_partition_is_exact_and_edges_preserved(self):
        ir = _layered_ir()
        budget = BudgetModel(max_yaml_bytes=20_000, max_steps=25)
        plan = WorkflowSplitter(budget).split(ir)
        assert plan.num_parts > 1
        all_nodes = set()
        kept_edges = set()
        for part in plan.parts:
            all_nodes |= set(part.nodes)
            kept_edges |= part.edges
        assert all_nodes == set(ir.nodes)
        assert kept_edges | plan.cut_edges == ir.edges

    def test_every_part_within_budget(self):
        ir = _layered_ir()
        budget = BudgetModel(max_yaml_bytes=20_000, max_steps=25)
        plan = WorkflowSplitter(budget).split(ir)
        for cost in plan.costs:
            assert budget.within(cost)

    def test_part_graph_is_acyclic(self):
        ir = _layered_ir(layers=10, width=10, seed=11)
        budget = BudgetModel(max_yaml_bytes=15_000, max_steps=15)
        plan = WorkflowSplitter(budget).split(ir)
        order = plan.topological_part_order()
        assert sorted(order) == list(range(plan.num_parts))

    def test_cross_edges_respect_part_order(self):
        ir = _layered_ir()
        plan = WorkflowSplitter(BudgetModel(max_steps=20)).split(ir)
        for src, dst in plan.cross_edges:
            assert src < dst  # chunks cut along a topological order

    def test_halving_fallback_rescues_bad_estimates(self):
        # estimate_margin=0 collapses every estimate to zero bytes, so
        # the greedy pass packs the whole DAG into one "fitting" chunk.
        # Exact verification must catch the lie and halve until every
        # part genuinely compiles within the budget.
        ir = _layered_ir()
        budget = BudgetModel(max_yaml_bytes=20_000, estimate_margin=0.0)
        assert budget.needs_split(ir)
        plan = WorkflowSplitter(budget).split(ir)
        assert plan.num_parts > 1  # only the fallback could have split
        for cost in plan.costs:
            assert budget.within(cost)
        all_nodes = set()
        for part in plan.parts:
            all_nodes |= set(part.nodes)
        assert all_nodes == set(ir.nodes)

    def test_halving_fallback_preserves_topological_cuts(self):
        ir = _layered_ir(layers=6, width=8, seed=5)
        budget = BudgetModel(max_yaml_bytes=15_000, estimate_margin=0.0)
        plan = WorkflowSplitter(budget).split(ir)
        assert plan.num_parts > 1
        order = plan.topological_part_order()
        assert sorted(order) == list(range(plan.num_parts))
        for src, dst in plan.cross_edges:
            assert src < dst

    def test_cut_edge_accounting_is_exact(self):
        ir = _layered_ir()
        budget = BudgetModel(max_yaml_bytes=20_000, max_steps=25)
        plan = WorkflowSplitter(budget).split(ir)
        kept = set()
        for part in plan.parts:
            kept |= part.edges
        # Partition of the edge set: kept and cut are disjoint and
        # together reconstruct the original DAG exactly.
        assert kept & plan.cut_edges == set()
        assert kept | plan.cut_edges == ir.edges
        for parent, child in plan.cut_edges:
            assert plan.assignment[parent] != plan.assignment[child]
        # cross_edges is exactly the part-level image of cut_edges.
        assert plan.cross_edges == {
            (plan.assignment[parent], plan.assignment[child])
            for parent, child in plan.cut_edges
        }
        for parent, child in kept:
            assert plan.assignment[parent] == plan.assignment[child]

    def test_single_oversized_node_rejected(self):
        ir = WorkflowIR(name="fat")
        ir.add_node(
            IRNode(name="huge", op=OpKind.CONTAINER, image="x",
                   args=["y" * 5000], sim=SimHint(duration_s=1))
        )
        ir.add_node(IRNode(name="tiny", op=OpKind.CONTAINER, image="x"))
        ir.add_edge("huge", "tiny")
        splitter = WorkflowSplitter(BudgetModel(max_yaml_bytes=2_000))
        assert not splitter.fits_alone(ir, "huge")
        with pytest.raises(SplitError, match="even alone: \\['huge'\\]"):
            splitter.split(ir)


class _CountingEdges(set):
    """An edge set that counts the passes made over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestTraversalIsLinear:
    """Compiling and splitting pass over the edges a bounded number of
    times, not once per node, so a big workflow costs O(V + E)."""

    @staticmethod
    def _big_ir() -> tuple:
        ir = build_big_workflow(num_layers=40, width=50)
        ir.edges = edges = _CountingEdges(ir.edges)
        assert len(ir.nodes) == 2000
        return ir, edges

    def test_compile(self):
        ir, edges = self._big_ir()
        ArgoBackend().compile(ir)
        assert edges.iterations <= 4

    def test_split(self):
        ir, edges = self._big_ir()
        plan = WorkflowSplitter(BudgetModel(max_steps=50)).split(ir)
        assert plan.num_parts == 40
        assert edges.iterations <= 2 * plan.num_parts

    def test_to_executable(self):
        ir, edges = self._big_ir()
        workflow = ir.to_executable()
        assert len(workflow.steps) == 2000
        assert edges.iterations <= 2

    def test_max_parallel_width(self):
        ir, edges = self._big_ir()
        assert ir.max_parallel_width() == 50
        assert edges.iterations <= 2

    def test_critical_path_seconds(self):
        ir, edges = self._big_ir()
        assert ir.critical_path_seconds() > 0.0
        assert edges.iterations <= 2

    def test_tekton_compile(self):
        ir, edges = self._big_ir()
        TektonBackend().compile(ir)
        assert edges.iterations <= 4

    def test_dead_node_elimination(self):
        ir, edges = self._big_ir()
        # Output-free first-layer nodes no later node depends on are dead.
        linked = {name for edge in ir.edges for name in edge}
        edges.iterations = 0
        DeadNodeEliminationPass().run(ir)
        assert set(ir.nodes) == linked
        assert edges.iterations <= 2


class TestStagedExecution:
    def test_staged_equals_monolithic_results(self):
        ir = _layered_ir()
        plan = WorkflowSplitter(BudgetModel(max_steps=25)).split(ir)
        operator = default_environment(num_nodes=16, cpu_per_node=32)
        records = run_parts(plan.num_parts, plan.cross_edges, manifest_submit(operator, plan))
        operator.run_to_completion()
        assert merge_part_records(ir.name, records).phase == WorkflowPhase.SUCCEEDED
        executed = set()
        for record in records:
            executed |= set(record.steps)
        assert executed == set(ir.nodes)

    def test_unsplit_crd_rejected_but_parts_accepted(self):
        ir = _layered_ir(layers=10, width=14)
        manifest = ArgoBackend().compile(ir)
        api = APIServer(crd_size_limit=30_000)
        with pytest.raises(CRDTooLargeError):
            api.create(APIObject.from_dict(manifest))
        plan = WorkflowSplitter(
            BudgetModel(max_yaml_bytes=30_000, max_steps=60)
        ).split(ir)
        for part in plan.parts:
            api.create(APIObject.from_dict(ArgoBackend().compile(part)))

    def test_failed_part_aborts_dependents(self):
        from repro.engine.retry import FailureInjector
        from repro.engine.operator import WorkflowOperator
        from repro.engine.simclock import SimClock
        from repro.k8s.cluster import Cluster

        ir = WorkflowIR(name="chain")
        ir.add_node(
            IRNode(name="a", op=OpKind.CONTAINER, image="x",
                   sim=SimHint(duration_s=10, failure_rate=1.0))
        )
        ir.add_node(IRNode(name="b", op=OpKind.CONTAINER, image="x"))
        ir.add_edge("a", "b")
        plan = WorkflowSplitter(BudgetModel(max_steps=1)).split(ir)
        assert plan.num_parts == 2
        clock = SimClock()
        cluster = Cluster.uniform("c", 2, cpu_per_node=8, memory_per_node=2**35)
        operator = WorkflowOperator(
            clock, cluster,
            failure_injector=FailureInjector(seed=0, retryable_fraction=0.0),
        )
        records = run_parts(
            plan.num_parts,
            plan.cross_edges,
            lambda index, results, on_complete: operator.submit(
                plan.parts[index].to_executable(),
                on_complete=on_complete,
                initial_results=results,
            ),
        )
        operator.run_to_completion()
        assert merge_part_records(ir.name, records).phase == WorkflowPhase.FAILED
        assert records[1] is None
