"""Import footprint: the library and the benchmark's workloads pull in no
third-party package they do not declare, and PyYAML only to render.

Neither ``networkx`` (about 20 MB of resident memory at import) nor
``numpy`` is a dependency, so importing the public facade and every
``repro`` module the benchmark workloads import must leave both out of
``sys.modules``.  PyYAML is one (about 1.4 MB), but only rendering a
manifest needs it, so importing those modules and running a fleet,
which renders nothing, must not load it either.  The checks run in a
fresh interpreter, because this test process may already hold any of
these modules.
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


def _loaded_after(body: str, packages) -> list:
    """Which of ``packages`` a fresh interpreter holds after importing the
    facade and the workload modules, then running ``body``."""
    workload_modules = _workload_modules()
    assert "repro.workloads.fleetgen" in workload_modules
    modules = ["repro.couler", *workload_modules]
    script = (
        "import importlib, json, sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"{body}\n"
        f"print(json.dumps([m for m in {list(packages)!r} if m in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_unused_packages_are_never_imported():
    assert _loaded_after("", UNUSED) == []


def test_a_fleet_run_never_loads_yaml():
    body = (
        "from repro.engine.config import EngineConfig\n"
        "from repro.workloads.fleetgen import build_fleet, build_pipeline, submit_fleet\n"
        "spec = build_fleet(20, seed=1)\n"
        "pipeline = build_pipeline(spec, EngineConfig(fairness='weighted-fair'))\n"
        "records = submit_fleet(pipeline, spec)\n"
        "pipeline.run()\n"
        "assert all(record.finish_time is not None for record in records)"
    )
    assert _loaded_after(body, ["yaml"]) == []
