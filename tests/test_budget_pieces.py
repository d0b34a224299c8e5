"""The split budget sizes a manifest from cached pieces, exactly, and
bounds it without rendering.

``BudgetModel.exact_cost`` never renders a whole manifest: it adds up
the frame, node-template and DAG-task pieces, each rendered once.  The
reference here is the path it replaced, compiling through the Argo
backend and rendering the whole manifest (``crd_yaml_size``).  The byte
bounds must hold every piece's and frame's rendered size between them,
and a split they decide renders nothing.
"""

from __future__ import annotations

import string
from unittest import mock

import pytest
import yaml
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.backends.argo import ArgoBackend, task_for, template_for
from repro.ir.graph import WorkflowIR
from repro.ir.nodes import ArtifactDecl, ArtifactStorage, IRNode, OpKind, SimHint
from repro.k8s import objects
from repro.k8s.objects import crd_yaml_size
from repro.k8s.resources import ResourceQuantity
from repro.parallelism import (
    DEFAULT_MAX_YAML_BYTES,
    BudgetModel,
    SplitError,
    WorkflowSplitter,
)
from repro.parallelism import budget as budget_module
from repro.verify.generator import generate_ir
from repro.verify.oracles import DETERMINISTIC_CONFIG, STOCHASTIC_CONFIG
from repro.workloads.corpus import CorpusSpec, build_corpus, clone_ir


def _rendered_bytes(ir: WorkflowIR) -> int:
    """The reference: compile, then render the whole manifest."""
    return crd_yaml_size(ArgoBackend().compile(ir))


def _containers(value, seen: list) -> None:
    """Append the id of every dict and list reachable from ``value``."""
    if isinstance(value, (dict, list)):
        seen.append(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, seen)


# ---------------------------------------------------------------------------
# Property: the sum of the pieces is the rendered size, for any IR.
# ---------------------------------------------------------------------------

_NAME_CHARS = string.ascii_letters + string.digits + "._-"
#: Any text: tabs, line breaks, non-ASCII and control characters.
_TEXT = st.text(max_size=120)
#: Longer than a line: quoted and escaped, or plain words, which each
#: emitter folds at its spaces.
_LONG_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(list("ab c\té中:'\"#{}-")), min_size=80, max_size=400),
    st.text(alphabet=st.sampled_from(list("ab c.-")), min_size=80, max_size=400),
)


@st.composite
def _names(draw, prefix: str) -> str:
    """A unique valid name, up to the 253 characters of a Kubernetes name."""
    tail = draw(
        st.one_of(
            st.text(_NAME_CHARS, max_size=12),
            st.text(_NAME_CHARS, min_size=253, max_size=253),
        )
    )
    return (f"{prefix}-" + tail)[:252] + "0"


@st.composite
def _scripts(draw) -> str:
    """Indented multi-line script source."""
    lines = draw(st.lists(st.tuples(st.integers(0, 3), _TEXT), min_size=1, max_size=6))
    indent = draw(st.sampled_from(["    ", "\t", "  "]))
    return "\n".join(indent * depth + text for depth, text in lines)


@st.composite
def _nodes(draw, name: str) -> IRNode:
    op = draw(st.sampled_from(list(OpKind)))
    outputs = [
        ArtifactDecl(
            name=output,
            storage=draw(st.sampled_from(list(ArtifactStorage))),
            path=draw(st.one_of(st.none(), _TEXT)),
            size_bytes=draw(st.integers(0, 2**40)),
        )
        for output in draw(st.lists(_TEXT, max_size=2, unique=True))
    ]
    job_params = {}
    if op == OpKind.JOB:
        job_params = draw(
            st.fixed_dictionaries(
                {"num_ps": st.integers(0, 8), "num_workers": st.integers(0, 64)},
                optional={"entry": _TEXT, "flags": st.lists(_TEXT, max_size=3)},
            )
        )
    return IRNode(
        name=name,
        op=op,
        image=draw(st.one_of(_TEXT, _LONG_TEXT)),
        command=draw(st.lists(_TEXT, max_size=3)) if op != OpKind.SCRIPT else [],
        args=draw(st.lists(st.one_of(_TEXT, _LONG_TEXT), max_size=4))
        if op != OpKind.SCRIPT
        else [],
        source=draw(_scripts()) if op == OpKind.SCRIPT else None,
        job_params=job_params,
        resources=ResourceQuantity(
            cpu=draw(st.sampled_from([0.0, 0.25, 1.0, 3.5])),
            memory=draw(st.sampled_from([0, 2**20, 3 * 2**30])),
            gpu=draw(st.integers(0, 2)),
        ),
        outputs=outputs,
        when=draw(st.one_of(st.none(), _TEXT, _LONG_TEXT)),
        retries=draw(st.one_of(st.none(), st.integers(0, 10))),
        sim=SimHint(
            duration_s=draw(st.floats(0.0, 1e7)),
            failure_rate=draw(st.floats(0.0, 1.0)),
            uses_gpu=draw(st.booleans()),
            result_options=tuple(draw(st.lists(_TEXT, max_size=3))),
        ),
    )


@st.composite
def _adversarial_irs(draw) -> WorkflowIR:
    ir = WorkflowIR(name=draw(_names("wf")))
    names = [draw(_names(f"n{index}")) for index in range(draw(st.integers(0, 10)))]
    for index, name in enumerate(names):
        ir.add_node(draw(_nodes(name)))
        earlier = names[:index]
        fan_in = earlier if draw(st.booleans()) else draw(
            st.lists(st.sampled_from(earlier), unique=True) if earlier else st.just([])
        )
        for parent in fan_in:
            ir.add_edge(parent, name)
    return ir


_FUZZED_IRS = st.builds(
    generate_ir,
    st.integers(0, 10_000),
    st.sampled_from([DETERMINISTIC_CONFIG, STOCHASTIC_CONFIG]),
)

_DUMPERS = [
    pytest.param(
        getattr(yaml, "CSafeDumper", None),
        id="libyaml",
        marks=pytest.mark.skipif(
            not yaml.__with_libyaml__, reason="PyYAML built without libyaml"
        ),
    ),
    pytest.param(yaml.SafeDumper, id="python"),
]


@pytest.mark.parametrize("dumper", _DUMPERS)
@given(ir=st.one_of(_FUZZED_IRS, _adversarial_irs()), data=st.data())
@settings(max_examples=50, deadline=None)
def test_pieces_sum_to_the_rendered_size(dumper, ir, data):
    with mock.patch.object(objects, "_SafeDumper", dumper):
        manifest = ArgoBackend().compile(ir)
        # No dict or list is shared, so the full render holds no &id
        # anchor that a piece rendered alone would miss.
        seen: list = []
        _containers(manifest, seen)
        assert len(seen) == len(set(seen))

        budget = BudgetModel()
        assert budget.exact_cost(ir).yaml_bytes == _rendered_bytes(ir)
        # Cached pieces recombine exactly: a subset's tasks lose the
        # dependencies that leave it.
        if ir.nodes:
            subset = data.draw(st.lists(st.sampled_from(sorted(ir.nodes)), unique=True))
            part = ir.subgraph(subset, name=f"{ir.name[:200]}-part-0")
            assert budget.exact_cost(part).yaml_bytes == _rendered_bytes(part)


# ---------------------------------------------------------------------------
# Property: the byte bounds hold the rendered size of every piece and frame.
# ---------------------------------------------------------------------------


def _bounds_violations(ir: WorkflowIR) -> list:
    """The sizes of ``ir``'s manifest, frame and pieces (each at its
    column) that their byte bounds miss, as ``(what, lo, size, hi)``."""
    budget = BudgetModel()
    checks = [("manifest", *budget.byte_bounds(ir), _rendered_bytes(ir))]
    frame = budget_module.frame_bounds(ir.name)
    checks.append(("frame", *frame, budget._frame_bytes(ir.name)))
    template_column, task_column = budget_module._entry_columns()
    parents, _ = ir.adjacency()
    for name, node in ir.nodes.items():
        for what, piece, column, bounds in (
            ("template", template_for(node), template_column,
             budget_module.template_bounds(node)),
            ("task", task_for(node, parents[name]), task_column,
             budget_module.task_bounds(node, parents[name])),
        ):
            size = budget_module._yaml_bytes(budget_module._nested(piece, column))
            checks.append((f"{what} of {name}", *bounds, size))
    return [
        (what, lo, size, hi) for what, lo, hi, size in checks if not lo <= size <= hi
    ]


@pytest.mark.parametrize("dumper", _DUMPERS)
@given(ir=_adversarial_irs())
@settings(max_examples=50, deadline=None)
def test_bounds_hold_the_rendered_size(dumper, ir):
    with mock.patch.object(objects, "_SafeDumper", dumper):
        assert _bounds_violations(ir) == []


_SOUND_TEXT_BOUNDS = budget_module._text_bounds


def _mutant_lo_counting_escapes(text: str, indent: int, column: int) -> tuple:
    """A lower bound that counts each character at its double-quoted
    width, although the emitter may write ``"`` or ``\\`` plain."""
    width = sum(
        1 if " " <= char <= "~" and char not in '"\\' else 2 if char <= "~" else 4
        for char in text
    )
    return 1 + width if text else 3, _SOUND_TEXT_BOUNDS(text, indent, column)[1]

_MUTANTS = [
    pytest.param("_folds", lambda length, content, indent: 0, id="hi-ignores-folding"),
    pytest.param("_text_bounds", _mutant_lo_counting_escapes, id="lo-counts-escapes"),
]


@pytest.mark.parametrize("dumper", _DUMPERS)
@pytest.mark.parametrize("name, mutant", _MUTANTS)
def test_the_property_catches_a_mutant_bound(dumper, name, mutant):
    # A property too weak to tell an unsound bound from a sound one
    # would pass for any bound: each mutant must fail it on some
    # adversarial workflow.
    with mock.patch.object(objects, "_SafeDumper", dumper), mock.patch.object(
        budget_module, name, mutant
    ):
        find(
            _adversarial_irs(),
            lambda ir: bool(_bounds_violations(ir)),
            # Any counterexample will do: skip shrinking it.
            settings=settings(
                max_examples=500, deadline=None, database=None, phases=[Phase.generate]
            ),
        )


@given(ir=st.one_of(_FUZZED_IRS, _adversarial_irs()), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_plan_by_bounds_is_the_rendering_path_plan(ir, data):
    ir.name = ir.name[:200]  # room for a part suffix in a valid name
    whole = BudgetModel().exact_cost(ir).yaml_bytes
    budget = BudgetModel(
        max_yaml_bytes=data.draw(
            st.sampled_from([DEFAULT_MAX_YAML_BYTES, 4 * whole, 2 * whole, whole, whole // 2])
        ),
        max_steps=data.draw(st.integers(1, 12)),
        max_pods=data.draw(st.one_of(st.none(), st.integers(1, 80))),
    )
    splitter = WorkflowSplitter(budget)
    bounded = splitter.split_by_bounds(ir)
    try:
        reference = splitter.split_rendering(ir)
    except SplitError:
        assert bounded is None
        return
    if bounded is not None:
        assert bounded == reference
        assert bounded.costs == reference.costs


# ---------------------------------------------------------------------------
# The benchmark's corpus: every size the splitter asks for is exact.
# ---------------------------------------------------------------------------

#: The first four parts of the ``corpus-mix`` benchmark workload at seed
#: 1: 64-entry corpora, reruns as renamed clones, a 6-step budget.
CORPUS_SEEDS = (32, 33, 34, 35)
CORPUS_SIZE = 64
SPLIT_MAX_STEPS = 6
#: A byte limit no split of these parts' byte bounds can decide.  Every
#: size a split compares with it is at most 6.1 kB, and every split
#: compares an upper bound of at least 8.6 kB, so the splitter renders
#: each time, and the bytes still decide nothing.
CORPUS_UNDECIDED_BYTES = 7_000


def _corpus_irs(seed: int) -> list:
    irs, by_entry = [], {}
    for entry in build_corpus(CorpusSpec(seed=seed, size=CORPUS_SIZE)).entries:
        if entry.rerun_of:
            entry_irs = [
                clone_ir(ir, f"{entry.name}-s{index}")
                for index, ir in enumerate(by_entry[entry.rerun_of])
            ]
        else:
            entry_irs = list(entry.irs)
        by_entry[entry.name] = entry_irs
        irs.extend(entry_irs)
    return irs


@pytest.fixture(scope="module")
def corpus_irs() -> dict:
    return {seed: _corpus_irs(seed) for seed in CORPUS_SEEDS}


def _checked(budget: BudgetModel, sized: list) -> BudgetModel:
    """Record whether each size ``budget`` reports equals the rendered one."""
    exact_cost = budget.exact_cost

    def checked(ir):
        cost = exact_cost(ir)
        sized.append(cost.yaml_bytes == _rendered_bytes(ir))
        return cost

    budget.exact_cost = checked
    return budget


def test_every_size_a_corpus_split_asks_for_is_exact(corpus_irs):
    sized: list = []
    splits = parts = 0
    for irs in corpus_irs.values():
        budget = BudgetModel(max_steps=SPLIT_MAX_STEPS, max_yaml_bytes=CORPUS_UNDECIDED_BYTES)
        splitter = WorkflowSplitter(_checked(budget, sized))
        for ir in irs:
            if len(ir) > SPLIT_MAX_STEPS:
                assert splitter.split_by_bounds(ir) is None
                parts += splitter.split(ir).num_parts
                splits += 1
    # A calibration sample per split, then each part once.
    assert splits > 50
    assert len(sized) == splits + parts
    assert all(sized)


def test_a_corpus_split_by_bounds_renders_nothing(corpus_irs, monkeypatch):
    budget_module._entry_columns()  # renders once per process
    dumps: list = []
    dump = yaml.dump
    monkeypatch.setattr(
        yaml, "dump", lambda *args, **kwargs: dumps.append(1) or dump(*args, **kwargs)
    )
    sized: list = []
    plans = []
    for irs in corpus_irs.values():
        splitter = WorkflowSplitter(_checked(BudgetModel(max_steps=SPLIT_MAX_STEPS), sized))
        plans.extend(splitter.split(ir) for ir in irs if len(ir) > SPLIT_MAX_STEPS)
    assert len(plans) > 50
    assert dumps == []
    assert sized == []
    # The first read of a plan's costs sizes each part once, exactly.
    parts = sum(plan.num_parts for plan in plans)
    for plan in plans:
        assert [cost.yaml_bytes for cost in plan.costs] == [
            _rendered_bytes(part) for part in plan.parts
        ]
        plan.costs
    assert len(sized) == parts
    assert all(sized)


def test_node_estimates_equal_one_node_probes(corpus_irs):
    budget = BudgetModel(max_steps=SPLIT_MAX_STEPS)
    checked = 0
    for irs in corpus_irs.values():
        for ir in irs:
            # Finalized, so a probe's compile assigns no uids of its own.
            ir.finalize_artifacts()
            estimates = budget.estimate_node_bytes(ir)
            for name in ir.nodes:
                probe = ir.subgraph([name], name="probe")
                assert estimates[name] == max(64, _rendered_bytes(probe) - budget.base_bytes)
                checked += 1
    assert checked > 1000
