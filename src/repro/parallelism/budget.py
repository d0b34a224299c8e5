"""Workflow budget model (paper Sec. IV.B).

A workflow's *budget* decides whether it must be split:
``C = alpha + beta + gamma`` where alpha is the serialized CRD (YAML)
size, beta the number of steps, and gamma the number of pods.  The
production default — and this module's — is the YAML size with the
2 MB Kubernetes practical limit, plus a 200-step guard.

Alpha is always the size of the text the Argo backend's
``compile_to_text`` emits through :func:`~repro.k8s.objects.dump_yaml`.
That function uses libyaml's C emitter when PyYAML was built with it and
the pure-Python emitter otherwise.  The two differ only in how they fold
a double-quoted string longer than a line (one holding a tab, a
non-ASCII or control character, or a line break next to a space, as an
indented script source does), so such a string sizes a few bytes apart
between the two installs.

The model never renders a whole manifest.  It sums the pieces that
:func:`~repro.backends.argo.workflow_manifest` lays out: the frame (all
but the node entries, once per workflow name), one entry per node
template and one per DAG task.  Each piece is rendered once, alone, at
the column it has in the full document, and its size is remembered by
content (its JSON) for the model's lifetime, up to
:data:`PIECE_CACHE_ENTRIES` pieces.  The sum equals the full render
because ``dump_yaml`` writes block YAML without aliases: every sequence
entry starts on a line of its own at its sequence's column, so its text
does not depend on its siblings.  Flow style would break that, by
packing entries onto shared lines folded at the line width, and so
would a dict or list shared between two pieces, which the full document
renders once under an ``&id`` anchor and then as an alias.
``sort_keys=True`` would not: it reorders lines within the frame and
within each piece, never across them.

Steps and pods are counted without rendering, and a workflow over
either limit is never rendered whole.  Splitting an n-node workflow
renders each node's template once, for the per-node estimate, while its
3n or so pieces fit the cache; the calibration sample and each part,
sized once under its final name, render only their frames and the
tasks whose dependencies are new.  Splitting a rerun of the same nodes
renders no template at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..backends.argo import ArgoBackend, task_for, template_for, workflow_manifest
from ..ir.graph import WorkflowIR
from ..ir.nodes import IRNode
from ..k8s.objects import dump_yaml

#: The paper's practical CRD limit.
DEFAULT_MAX_YAML_BYTES = 2 * 1024 * 1024
#: The paper's step-count guard ("beta exceeds 200").
DEFAULT_MAX_STEPS = 200
#: Most piece sizes a model remembers.  One 64-entry corpus part fills
#: about 200 entries, a split of an n-node workflow about 3n.  Full, the
#: cache holds about 3 MB.
PIECE_CACHE_ENTRIES = 8192

#: A plain scalar that stands in for one piece when the layout is measured.
_MARK = "piece"
#: Bytes of a ``- piece`` entry line, less its indentation.
_MARK_LINE = len(f"- {_MARK}\n")


def count_pods(nodes: Iterable[IRNode]) -> int:
    """Pods the nodes launch: a job's parameter servers plus workers
    (at least one), one for every other node."""
    return sum(
        max(1, int(n.job_params.get("num_ps", 0)) + int(n.job_params.get("num_workers", 0)))
        if n.job_params
        else 1
        for n in nodes
    )


def _yaml_bytes(document: object) -> int:
    return len(dump_yaml(document).encode("utf-8"))


def _nested(piece: object, column: int) -> list:
    """``piece`` as a block-sequence entry that starts at ``column``.

    Block sequences nested in one another open on one line, two columns
    each (``- - - name: ...``), so the entry renders the same bytes as
    it does at ``column`` in a full document, where indentation fills
    those columns.
    """
    document: list = [piece]
    for _ in range(column // 2):
        document = [document]
    return document


@lru_cache(maxsize=None)
def _entry_columns() -> Tuple[int, int]:
    """Columns at which a manifest's node templates and DAG tasks start."""
    text = dump_yaml(workflow_manifest("layout", [_MARK], [_MARK]))
    template, task = (
        len(line) - len(line.lstrip(" "))
        for line in text.splitlines()
        if line.lstrip(" ") == f"- {_MARK}"
    )
    return template, task


@dataclass(frozen=True)
class BudgetCost:
    """Measured or estimated cost of a workflow (or node subset)."""

    yaml_bytes: int
    steps: int
    pods: int


@dataclass
class BudgetModel:
    """Budget thresholds plus cost estimation for the splitter."""

    max_yaml_bytes: int = DEFAULT_MAX_YAML_BYTES
    max_steps: int = DEFAULT_MAX_STEPS
    max_pods: Optional[int] = None
    #: Fixed manifest overhead (metadata, entrypoint template).
    base_bytes: int = 512
    _backend: ArgoBackend = field(default_factory=ArgoBackend, repr=False)
    #: Rendered byte size per piece, keyed by column and content.
    _sizes: Dict[tuple, int] = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------- measuring

    def _remember(self, key: tuple, render: Callable[[], int]) -> int:
        """The size cached under ``key``, from ``render`` on a miss; a
        full cache drops its oldest entry."""
        size = self._sizes.get(key)
        if size is None:
            size = render()
            if len(self._sizes) >= PIECE_CACHE_ENTRIES:
                del self._sizes[next(iter(self._sizes))]
            self._sizes[key] = size
        return size

    def _frame_bytes(self, name: str) -> int:
        template_column, task_column = _entry_columns()
        return self._remember(
            ("frame", name),
            lambda: _yaml_bytes(workflow_manifest(name, [_MARK], [_MARK]))
            - template_column
            - task_column
            - 2 * _MARK_LINE,
        )

    def _piece_bytes(self, piece: dict, column: int) -> int:
        return self._remember(
            (column, json.dumps(piece)),
            lambda: _yaml_bytes(_nested(piece, column)),
        )

    def _node_bytes(self, node: IRNode, parents: List[str]) -> int:
        """Bytes of the node's template and of its task."""
        template_column, task_column = _entry_columns()
        template = self._piece_bytes(template_for(node), template_column)
        return template + self._piece_bytes(task_for(node, parents), task_column)

    def exact_cost(self, ir: WorkflowIR) -> BudgetCost:
        """The exact size of the YAML the Argo backend emits for ``ir``."""
        ir = self._backend.prepare(ir)
        if ir.nodes:
            parents, _ = ir.adjacency()
            yaml_bytes = self._frame_bytes(ir.name) + sum(
                self._node_bytes(node, parents[name]) for name, node in ir.nodes.items()
            )
        else:
            yaml_bytes = _yaml_bytes(workflow_manifest(ir.name, [], []))
        return BudgetCost(
            yaml_bytes=yaml_bytes,
            steps=len(ir.nodes),
            pods=count_pods(ir.nodes.values()),
        )

    def estimate_node_bytes(self, ir: WorkflowIR) -> Dict[str, int]:
        """Estimated YAML contribution of each node (template + task).

        The exact size of a one-node workflow named ``probe`` holding
        the node, less :attr:`base_bytes`, and at least 64.  Its task
        carries no dependencies there, so those are estimated per edge
        (:attr:`edge_bytes`).
        """
        ir = self._backend.prepare(ir)
        probe = self._frame_bytes("probe")
        return {
            name: max(64, probe + self._node_bytes(node, []) - self.base_bytes)
            for name, node in ir.nodes.items()
        }

    #: YAML bytes one DAG-task dependency entry adds (``- parent-name``).
    edge_bytes: int = 48
    #: Safety factor on estimates so a part never lands over the limit.
    estimate_margin: float = 1.05

    def estimate_cost(
        self, node_bytes: int, internal_edges: int, steps: int, pods: int
    ) -> BudgetCost:
        """Cheap cost estimate of a node subset: its summed per-node
        sizes, plus :attr:`edge_bytes` per edge inside the subset, with
        a safety margin on top."""
        size = int(
            (self.base_bytes + node_bytes + self.edge_bytes * internal_edges)
            * self.estimate_margin
        )
        return BudgetCost(yaml_bytes=size, steps=steps, pods=pods)

    # -------------------------------------------------------------- deciding

    def within(self, cost: BudgetCost) -> bool:
        if cost.yaml_bytes > self.max_yaml_bytes:
            return False
        if cost.steps > self.max_steps:
            return False
        if self.max_pods is not None and cost.pods > self.max_pods:
            return False
        return True

    def counts_within(self, ir: WorkflowIR) -> bool:
        """Are the workflow's steps and pods within budget?  No rendering."""
        if len(ir.nodes) > self.max_steps:
            return False
        return self.max_pods is None or count_pods(ir.nodes.values()) <= self.max_pods

    def needs_split(self, ir: WorkflowIR) -> bool:
        """Does this workflow exceed the budget as a single CRD?

        Steps and pods are counted first; the YAML is sized only
        when both fit.
        """
        return not (self.counts_within(ir) and self.within(self.exact_cost(ir)))
