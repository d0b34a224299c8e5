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

**Exact sizes.**  The model never renders a whole manifest.  It sums
the pieces that :func:`~repro.backends.argo.workflow_manifest` lays out:
the frame (all but the node entries, once per workflow name), one entry
per node template and one per DAG task.  Each piece is rendered once,
alone, at the column it has in the full document, and its size is
remembered by content (its JSON) for the model's lifetime, up to
:data:`PIECE_CACHE_ENTRIES` pieces.  The sum equals the full render
because ``dump_yaml`` writes block YAML without aliases: every sequence
entry starts on a line of its own at its sequence's column, so its text
does not depend on its siblings.  Flow style would break that, by
packing entries onto shared lines folded at the line width, and so
would a dict or list shared between two pieces, which the full document
renders once under an ``&id`` anchor and then as an alias.
``sort_keys=True`` would not: it reorders lines within the frame and
within each piece, never across them.

**Bounds.**  :func:`frame_bounds`, :func:`template_bounds`,
:func:`task_bounds` and, for a whole workflow,
:meth:`BudgetModel.byte_bounds` bound the same pieces from below and
above in one walk over the dicts ``template_for``, ``task_for`` and
``workflow_manifest`` build, with no rendering.  Block YAML's layout
does not depend on the scalars: every ``-``, ``:``, line break and
indentation space of it is counted exactly, as either emitter writes
it.  Only the scalars' own text, keys included, is bounded:

- *Below*, a string adds a space and at least one byte per character
  (two quotes when empty).  Escapes and quotes are not counted: the
  emitter may write the string plain, and then ``"`` and ``\\`` are one
  byte each.
- *Above*, a string adds a space, two quotes and each character at its
  widest in any style: a quote doubled or escaped, a line break as the
  two breaks and indentation of a single-quoted string, any other
  non-printable or non-ASCII character as its longest escape.  Line
  folding adds at most an indentation and three bytes per fold (the
  Python emitter's ``\\``, break and leading ``\\`` in a double-quoted
  string).  Neither emitter folds before its line passes the width of
  80, so a string that ends within it never folds, and past the first
  fold every further fold needs a line of at least ``80 - indent``
  bytes of the string's own text.
- An integer is counted exactly; a key is a short printable-ASCII
  string, written plain or quoted.  Anything else (an alias, a float, a
  long key) has no upper bound.

Steps and pods are counted without rendering, and a workflow over
either limit is never rendered whole.  A split whose byte comparisons
the bounds decide renders nothing:
:class:`~repro.parallelism.splitter.WorkflowSplitter` makes its plan
by bounds, and the parts are sized, exactly, only when a caller reads
their costs.  Otherwise splitting an n-node workflow renders each
node's template once, for the per-node estimate, while its 3n or so
pieces fit the cache; the calibration sample and each part, sized once
under its final name, render only their frames and the tasks whose
dependencies are new.  Splitting a rerun of the same nodes renders no
template at all.
"""

from __future__ import annotations

import json
import math
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


# ---------------------------------------------------------------- bounding

#: Bounds a walk gives up on: no upper bound.
_UNBOUNDED: Tuple[int, float] = (0, math.inf)
#: The line width both emitters fold long scalars at (their default).
_WIDTH = 80


def _folds(length: int, content: int, indent: int) -> int:
    """Most line folds a string of ``length`` characters and at most
    ``content`` bytes unfolded can take when it runs past the line
    width, continuation lines at ``indent``.

    An emitter folds only at a character of the string, and only once
    its line passes :data:`_WIDTH`.  The first fold may come at once,
    but each later one needs at least ``_WIDTH - indent`` of the
    string's bytes on its own line.
    """
    if indent >= _WIDTH:
        return length
    return min(length, 1 + content // (_WIDTH - indent))


def _text_bounds(text: str, indent: int, column: int) -> Tuple[int, float]:
    """Bounds on the bytes a string value adds after an indicator at
    ``column``: a space, then the string in whichever style the emitter
    picks, continuation lines at ``indent``."""
    length = len(text)
    if not length:
        return 3, 3  # " ''"
    if text.isascii() and text.isprintable():
        content = 2 + length + text.count("'") + text.count('"') + text.count("\\")
    else:
        content = 2
        for char in text:
            if " " <= char <= "~":
                content += 2 if char in "'\"\\" else 1
            elif char == "\n":
                content += 2 + indent
            else:
                code = ord(char)
                content += 4 if code <= 0xFF else 6 if code <= 0xFFFF else 10
    if column + 1 + content <= _WIDTH:  # ends within the line: no fold
        return 1 + length, 1 + content
    return 1 + length, 1 + content + _folds(length, content, indent) * (indent + 3)


def _value_bounds(
    value: object, indent: int, column: int, item: bool, seen: set
) -> Tuple[int, float]:
    """Bounds on the bytes ``value`` adds after the indicator at
    ``column`` that introduces it: a sequence's ``-`` when ``item``,
    else a mapping key's ``:``, that sequence or mapping at ``indent``."""
    kind = type(value)
    if kind is str:
        return _text_bounds(value, indent + 2, column)
    if kind is dict or kind is list:
        if not value:
            return 3, 3  # " {}" or " []"
        if id(value) in seen:  # written as an alias
            return _UNBOUNDED
        seen.add(id(value))
        if kind is dict:
            return _mapping_bounds(value, indent + 2, 1 if item else None, seen)
        # Under a key, a sequence is not indented further.
        return _sequence_bounds(
            value, indent + 2 if item else indent, 1 if item else None, seen
        )
    if kind is int:
        width = 1 + len(str(value))
        return width, width
    return _UNBOUNDED


def _mapping_bounds(
    mapping: dict, indent: int, lead: Optional[int], seen: set
) -> Tuple[int, float]:
    """Bounds on a block mapping whose keys start at column ``indent``.

    ``lead`` bytes come before the first key: none at the document's
    start, one space after a ``-``; ``None`` starts it on a new line,
    as every later key is.
    """
    lo = hi = 0
    for key, value in mapping.items():
        if not (
            type(key) is str and 0 < len(key) < 100 and key.isascii() and key.isprintable()
        ):
            return _UNBOUNDED
        step = 1 + indent if lead is None else lead
        lead = None
        key_hi = 2 + len(key) + key.count("'") + key.count('"') + key.count("\\")
        if type(value) is str:  # the common case, without the dispatch
            value_lo, value_hi = _text_bounds(value, indent + 2, indent + key_hi + 1)
        else:
            value_lo, value_hi = _value_bounds(value, indent, indent + key_hi + 1, False, seen)
        lo += step + len(key) + 1 + value_lo
        hi += step + key_hi + 1 + value_hi
    return lo, hi


def _sequence_bounds(
    items: list, indent: int, lead: Optional[int], seen: set
) -> Tuple[int, float]:
    """Bounds on a block sequence whose ``-`` start at column ``indent``
    (``lead`` as for :func:`_mapping_bounds`)."""
    lo = hi = 0
    for item in items:
        step = 1 + indent if lead is None else lead
        lead = None
        item_lo, item_hi = _value_bounds(item, indent, indent + 1, True, seen)
        lo += step + 1 + item_lo
        hi += step + 1 + item_hi
    return lo, hi


def _document_bounds(document: object) -> Tuple[int, float]:
    """Bounds on ``len(dump_yaml(document))`` for a non-empty dict or list."""
    seen = {id(document)}
    if type(document) is dict and document:
        lo, hi = _mapping_bounds(document, 0, 0, seen)
    elif type(document) is list and document:
        lo, hi = _sequence_bounds(document, 0, 0, seen)
    else:
        return _UNBOUNDED
    return lo + 1, hi + 1


def _entry_bounds(piece: object, column: int) -> Tuple[int, float]:
    """Bounds on ``_yaml_bytes(_nested(piece, column))``: the ``- `` pairs
    that fill the column, the piece's own ``-``, the piece and its
    closing line break."""
    lo, hi = _value_bounds(piece, column, column + 1, True, set())
    return column + 2 + lo, column + 2 + hi


def frame_bounds(name: str) -> Tuple[int, float]:
    """Bounds on the bytes of a manifest's frame under ``name``: all of
    it but its node entries, as :class:`BudgetModel` sizes it."""
    template_column, task_column = _entry_columns()
    lo, hi = _document_bounds(workflow_manifest(name, [_MARK], [_MARK]))
    marks = template_column + task_column + 2 * _MARK_LINE
    return lo - marks, hi - marks


def template_bounds(node: IRNode) -> Tuple[int, float]:
    """Bounds on the bytes of the node's template entry."""
    return _entry_bounds(template_for(node), _entry_columns()[0])


def task_bounds(node: IRNode, parents: List[str]) -> Tuple[int, float]:
    """Bounds on the bytes of the node's DAG task entry."""
    return _entry_bounds(task_for(node, parents), _entry_columns()[1])


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

    def byte_bounds(self, ir: WorkflowIR) -> Tuple[int, float]:
        """Lower and upper bounds on ``exact_cost(ir).yaml_bytes``, from
        the dicts of its pieces: nothing is rendered."""
        ir = self._backend.prepare(ir)
        if not ir.nodes:
            return _document_bounds(workflow_manifest(ir.name, [], []))
        parents, _ = ir.adjacency()
        lo, hi = frame_bounds(ir.name)
        for name, node in ir.nodes.items():
            for piece_lo, piece_hi in (template_bounds(node), task_bounds(node, parents[name])):
                lo += piece_lo
                hi += piece_hi
        return lo, hi

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
            name: self.node_estimate(probe, self._node_bytes(node, []))
            for name, node in ir.nodes.items()
        }

    def node_estimate(self, probe_frame: float, node_bytes: float) -> float:
        """One node's :meth:`estimate_node_bytes` from the bytes of the
        probe's frame and of the node's template and task.  It grows
        with both, so bounds on them bound it."""
        return max(64, probe_frame + node_bytes - self.base_bytes)

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
        when both fit and its upper bound does not.
        """
        if not self.counts_within(ir):
            return True
        if self.byte_bounds(ir)[1] <= self.max_yaml_bytes:
            return False
        return not self.within(self.exact_cost(ir))
