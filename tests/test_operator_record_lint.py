"""Record lint: no caller of the engine writes a step or workflow record itself.

A ``WorkflowRecord`` changes by one transition rule,
``engine.journal.apply_event`` (with ``begin_run`` for a submission).
The live operator applies each event it journals through that rule, and
``Journal.materialize`` folds the journal through it, so the live record
equals the fold by construction.  A direct field write in the operator
would be a second copy of the rule, free to drift from the journal's;
one in the server or the split-part executor would be a third, so those
build the records they need (a merged record, a record read back from
the database) through the record constructors instead.  This test
parses ``engine/operator.py`` and every module under ``server/`` and
``parallelism/``, and fails on any assignment to a ``StepRecord`` /
``WorkflowRecord`` field and on any write into a record's ``results``
or ``steps`` (item assignment or a mutating call).  Pod phases share
the ``phase`` name and are exempt.
"""

import ast
import dataclasses
from pathlib import Path

from repro.engine.status import StepRecord, WorkflowRecord

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
LINTED = [
    PACKAGE / "engine" / "operator.py",
    *sorted((PACKAGE / "server").glob("*.py")),
    *sorted((PACKAGE / "parallelism").glob("*.py")),
]

RECORD_FIELDS = {
    field.name
    for record_type in (StepRecord, WorkflowRecord)
    for field in dataclasses.fields(record_type)
}
#: Record containers whose items must not be written directly.
RECORD_CONTAINERS = {"results", "steps"}
MUTATING_METHODS = {"update", "clear", "pop", "setdefault"}


def _targets(node: ast.AST):
    """Every target an ``=`` or an augmented assignment stores to."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, ast.AugAssign):
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        else:
            yield target


def _is_pod(node: ast.AST) -> bool:
    """``pod`` or ``<anything>.pod``: a Pod object, not a record."""
    return (isinstance(node, ast.Name) and node.id == "pod") or (
        isinstance(node, ast.Attribute) and node.attr == "pod"
    )


def _record_container(node: ast.AST) -> bool:
    """``<x>.results`` / ``<x>.steps``."""
    return isinstance(node, ast.Attribute) and node.attr in RECORD_CONTAINERS


def record_writes(source: str):
    """(line, code) of every direct record write in ``source``."""
    violations = []
    for node in ast.walk(ast.parse(source)):
        for target in _targets(node):
            if isinstance(target, ast.Attribute) and target.attr in RECORD_FIELDS:
                if target.attr == "phase" and _is_pod(target.value):
                    continue
                violations.append((target.lineno, ast.unparse(target)))
            elif isinstance(target, ast.Subscript) and _record_container(target.value):
                violations.append((target.lineno, ast.unparse(target)))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and _record_container(node.func.value)
        ):
            violations.append((node.lineno, ast.unparse(node.func)))
    return sorted(violations)


def test_operator_writes_no_record_field():
    violations = [
        f"{path.relative_to(PACKAGE)}:{line}: {code}"
        for path in LINTED
        for line, code in record_writes(path.read_text())
    ]
    assert not violations, (
        "record fields written directly; apply the event through "
        "engine.journal.apply_event (WorkflowOperator._apply), or build the "
        "record through its constructor, instead: " + ", ".join(violations)
    )


def test_lint_covers_the_operator_server_and_parallelism():
    names = {str(path.relative_to(PACKAGE)) for path in LINTED}
    assert {
        "engine/operator.py",
        "server/database.py",
        "server/service.py",
        "parallelism/stitch.py",
    } <= names


def test_lint_catches_each_kind_of_write():
    source = "\n".join(
        [
            "record.status = StepStatus.FAILED",
            "step_record.attempts += 1",
            "state.record.phase = WorkflowPhase.RUNNING",
            "a, record.finish_time = 1, 2.0",
            "state.record.results[name] = value",
            "record.results.update(initial_results)",
            "record.steps.clear()",
        ]
    )
    assert [line for line, _ in record_writes(source)] == [1, 2, 3, 4, 5, 6, 7]


def test_lint_exempts_pods_and_run_state():
    source = "\n".join(
        [
            "pod.phase = PodPhase.RUNNING",
            "attempt.pod.phase = PodPhase.FAILED",
            "state.failed = True",
            "value = record.steps[name].status",
        ]
    )
    assert record_writes(source) == []
