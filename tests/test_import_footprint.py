"""Import footprint: the library and the benchmark's workloads pull in no
third-party package they do not declare.

Neither ``networkx`` (about 20 MB of resident memory at import) nor
``numpy`` is a dependency, so importing the public facade and every
``repro`` module the benchmark workloads import must leave both out of
``sys.modules``.  The check runs in a fresh interpreter, because this
test process may already hold either module.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
UNUSED = ("networkx", "numpy")


def _workload_modules():
    """The ``repro`` modules ``perfbench/workloads.py`` imports."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return sorted(
        {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("repro")
        }
    )


def test_unused_packages_are_never_imported():
    workload_modules = _workload_modules()
    assert "repro.workloads.fleetgen" in workload_modules
    modules = ["repro.couler", *workload_modules]
    script = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == []
