"""Execute generated Couler code and capture the resulting IR.

Generated (or canonical) programs are plain Python against the
``couler`` unified interface.  Execution happens in a fresh workflow
context with a dedicated namespace; the produced IR is the object the
validator compares against the task's expected IR.  Any exception the
program raises (syntax errors, unknown API names, missing arguments)
propagates as :class:`CodeExecutionError` — a failed sample.

Compiling depends only on a program's text and its file name, which
lands only in the code objects' ``co_filename``, and NL requests repeat
their programs (a corpus pass compiles a few dozen distinct texts
hundreds of times).  So the process keeps each compiled text, as
``re`` keeps compiled patterns, and each run executes a copy renamed
after its own request.
"""

from __future__ import annotations

import threading
from types import CodeType
from typing import Dict

from ..ir.graph import WorkflowIR


class CodeExecutionError(RuntimeError):
    """Generated code failed to execute (the sample does not pass)."""


#: How many compiled programs the process keeps, oldest dropped first.
COMPILED_PROGRAMS_BOUND = 256

#: Program text -> its code object, named after the first request that
#: compiled it.  Locked because the DSL context is per thread, so
#: threads may execute programs at once.
_compiled: Dict[str, CodeType] = {}
_compiled_lock = threading.Lock()


def _renamed(code: CodeType, filename: str) -> CodeType:
    """``code`` with it and every code object nested in it (the
    program's functions and lambdas) named ``filename``."""
    consts = tuple(
        _renamed(const, filename) if isinstance(const, CodeType) else const
        for const in code.co_consts
    )
    return code.replace(co_filename=filename, co_consts=consts)


def _compile(code: str, filename: str) -> CodeType:
    """``compile(code, filename, "exec")``, compiling each text once.

    A program that fails to compile is not kept, so its error always
    names its own ``filename``.
    """
    with _compiled_lock:
        kept = _compiled.get(code)
    if kept is None:
        kept = compile(code, filename, "exec")
        with _compiled_lock:
            if len(_compiled) >= COMPILED_PROGRAMS_BOUND:
                del _compiled[next(iter(_compiled))]
            _compiled[code] = kept
    if kept.co_filename != filename:
        kept = _renamed(kept, filename)
    return kept


def execute_couler_code(code: str, workflow_name: str = "generated") -> WorkflowIR:
    """Run ``code`` against a fresh Couler context and return its IR.

    The namespace exposes exactly what the prompt promises: the
    ``couler`` module.  The caller's own context is restored afterwards
    so evaluation loops cannot leak state between samples.
    """
    from .. import core as couler

    couler.reset_context(workflow_name)
    namespace = {"couler": couler}
    try:
        exec(_compile(code, f"<generated:{workflow_name}>"), namespace)
        ir = couler.workflow_ir(optimize=False)
    except Exception as exc:  # noqa: BLE001 - any generation bug = failure
        raise CodeExecutionError(f"{type(exc).__name__}: {exc}") from exc
    finally:
        couler.reset_context()
    return ir
