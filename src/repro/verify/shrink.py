"""Node-deletion shrinking of failing workflows.

When an oracle flags a seed, the generated workflow may have a dozen
steps; the disagreement usually hinges on two or three.  The shrinker
greedily deletes one node at a time (dropping its edges; downstream
inputs become external artifacts, guards referencing it evaluate
false — both valid IR), keeping any deletion under which the failure
reproduces, until no single deletion preserves it.  The result is a
1-minimal repro in the delta-debugging sense.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..ir.graph import WorkflowIR
from .generator import generate_ir
from .oracles import ORACLES, OracleOutcome, corpus_ir


def delete_node(ir: WorkflowIR, name: str) -> WorkflowIR:
    """A copy of ``ir`` without ``name`` (and without its edges)."""
    candidate = WorkflowIR(name=ir.name, config=dict(ir.config))
    for node_name in ir.nodes:
        if node_name != name:
            candidate.add_node(ir.nodes[node_name])
    for parent, child in sorted(ir.edges):
        if parent != name and child != name:
            candidate.add_edge(parent, child)
    return candidate


def shrink_ir(
    ir: WorkflowIR,
    still_fails: Callable[[WorkflowIR], bool],
    max_evaluations: int = 500,
) -> WorkflowIR:
    """Greedily minimize ``ir`` while ``still_fails`` holds.

    ``still_fails`` is evaluated on candidate workflows; an exception
    inside it counts as a failure (the reduced workflow still breaks
    the system under test, just louder).  Deterministic: candidates are
    tried in sorted node order, first accepted deletion wins each round.
    """

    def failing(candidate: WorkflowIR) -> bool:
        try:
            return bool(still_fails(candidate))
        except Exception:
            return True

    evaluations = 0
    current = ir
    progress = True
    while progress and evaluations < max_evaluations:
        progress = False
        for name in sorted(current.nodes):
            if len(current.nodes) <= 1:
                return current
            candidate = delete_node(current, name)
            evaluations += 1
            if failing(candidate):
                current = candidate
                progress = True
                break
            if evaluations >= max_evaluations:
                break
    return current


def shrink_failure(
    outcome: OracleOutcome,
    source: str = "synthetic",
) -> Optional[Tuple[WorkflowIR, OracleOutcome]]:
    """Shrink the workflow behind a failing oracle outcome.

    Re-derives the seed's workflow (fuzzer-generated, or corpus-drawn
    when ``source="corpus"``), minimizes it against the same oracle
    check, and returns ``(minimal_ir, outcome_on_minimal)`` — or None
    when the failure no longer reproduces (flaky environment, which
    the determinism oracles exist to rule out).
    """
    oracle = ORACLES[outcome.oracle]
    check = oracle.check
    if source == "corpus":
        ir = corpus_ir(outcome.seed)
    else:
        ir = generate_ir(outcome.seed, oracle.config)
    if check(ir, outcome.seed).ok:
        return None

    def still_fails(candidate: WorkflowIR) -> bool:
        return not check(candidate, outcome.seed).ok

    minimal = shrink_ir(ir, still_fails)
    return minimal, check(minimal, outcome.seed)
