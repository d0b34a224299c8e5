"""Golden-snapshot tests: every example workflow, every backend.

Each IR-producing workflow in ``examples/`` is compiled by all three
backends and compared byte-for-byte against committed snapshots under
``tests/golden/``.  Any intentional change to backend output is made
visible in review by regenerating with::

    pytest tests/test_golden_backends.py --update-golden

``multi_cluster_dispatch.py`` builds executable workflows directly (no
IR) and ``caching_and_autotune.py`` / ``nl_to_workflow.py`` exercise
runtime subsystems; they are covered by their own experiment tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
import yaml

from repro import core as couler
from repro.backends.airflow import AirflowBackend
from repro.backends.argo import ArgoBackend
from repro.backends.tekton import TektonBackend
from repro.core.step_zoo import tensorflow as tf
from repro.experiments.ablation_split_budget import build_big_workflow
from repro.ir.nodes import SimHint
from repro.k8s.objects import dump_yaml
from repro.sqlflow import sql_to_ir
from repro.verify.generator import generate_ir
from repro.verify.oracles import DETERMINISTIC_CONFIG, STOCHASTIC_CONFIG
from repro.workloads.corpus import CorpusSpec, build_corpus

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

if str(EXAMPLES_DIR) not in sys.path:
    sys.path.insert(0, str(EXAMPLES_DIR))

import gui_and_server  # noqa: E402  (examples dir on sys.path)
import model_selection  # noqa: E402
import quickstart  # noqa: E402
import sqlflow_pipeline  # noqa: E402


def _quickstart_diamond():
    couler.reset_context("diamond")
    quickstart.diamond()
    return couler.workflow_ir()


def _quickstart_producer_consumer():
    couler.reset_context("producer-consumer")
    output_place = couler.create_parameter_artifact(
        path="/opt/hello_world.txt", is_global=True
    )
    producer = couler.run_container(
        image="docker/whalesay:latest",
        args=["echo -n hello world > %s" % output_place.path],
        command=["bash", "-c"],
        output=output_place,
        step_name="step1",
    )
    couler.run_container(
        image="docker/whalesay:latest",
        command=["cowsay"],
        step_name="step2",
        input=producer,
    )
    return couler.workflow_ir()


def _quickstart_coin_flip():
    couler.reset_context("coin-flip")
    result = couler.run_script(
        image="python:alpine3.6",
        source=quickstart.random_code,
        step_name="flip-coin",
        sim=SimHint(duration_s=5, result_options=("heads", "tails")),
    )
    for side in ("heads", "tails"):
        couler.when(
            couler.equal(result, side),
            lambda side=side: couler.run_container(
                image="alpine:3.6",
                command=["sh", "-c", f'echo "it was {side}"'],
                step_name=side,
            ),
        )
    return couler.workflow_ir()


def _model_search():
    couler.reset_context("model-search")
    model_paths = model_selection.run_multiple_jobs(3)
    couler.map(lambda model: tf.evaluate(model), model_paths)
    return couler.workflow_ir()


#: name -> zero-argument IR builder; all seeded/static, so compilation
#: output is reproducible byte-for-byte.
WORKFLOWS = {
    "quickstart-diamond": _quickstart_diamond,
    "quickstart-producer-consumer": _quickstart_producer_consumer,
    "quickstart-coin-flip": _quickstart_coin_flip,
    "model-search": _model_search,
    "gui-nightly-etl": gui_and_server.flaky_workflow,
    "sqlflow-train": lambda: sql_to_ir(sqlflow_pipeline.TRAIN_SQL),
    "sqlflow-predict": lambda: sql_to_ir(sqlflow_pipeline.PREDICT_SQL),
    "big-split-small": lambda: build_big_workflow(num_layers=3, width=4),
}

BACKENDS = {
    "argo": ("yaml", lambda ir: yaml.safe_dump(
        ArgoBackend().compile(ir), sort_keys=True, default_flow_style=False
    )),
    "airflow": ("py", lambda ir: AirflowBackend().compile(ir)),
    "tekton": ("yaml", lambda ir: yaml.safe_dump(
        TektonBackend().compile(ir), sort_keys=True, default_flow_style=False
    )),
}


def _golden_path(workflow: str, backend: str, suffix: str) -> Path:
    return GOLDEN_DIR / f"{workflow}.{backend}.{suffix}"


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("workflow", sorted(WORKFLOWS))
def test_backend_output_matches_golden(workflow, backend, update_golden):
    suffix, compile_fn = BACKENDS[backend]
    text = compile_fn(WORKFLOWS[workflow]())
    assert text.strip(), f"{backend} produced empty output for {workflow}"
    path = _golden_path(workflow, backend, suffix)
    if update_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"updated {path.name}")
    assert path.exists(), (
        f"missing snapshot {path.name}; run with --update-golden to create"
    )
    assert text == path.read_text(encoding="utf-8"), (
        f"{backend} output for {workflow!r} drifted from {path.name}; "
        "if intentional, regenerate with --update-golden"
    )


@pytest.mark.parametrize("workflow", sorted(WORKFLOWS))
def test_compilation_is_deterministic(workflow):
    """Two fresh builds of the same example compile byte-identically."""
    for backend, (suffix, compile_fn) in sorted(BACKENDS.items()):
        first = compile_fn(WORKFLOWS[workflow]())
        couler.reset_context()
        second = compile_fn(WORKFLOWS[workflow]())
        assert first == second, f"{backend} nondeterministic for {workflow}"


#: Examples whose manifests hold a string PyYAML double-quotes that runs
#: past the line width: the coin flip's indented script source.  The C
#: and Python emitters fold such a string differently (3 bytes apart
#: here); everywhere else their text is identical.
FOLDED_DOUBLE_QUOTED = {"quickstart-coin-flip"}


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_c_and_python_emitters_agree():
    """``dump_yaml`` renders with libyaml's C emitter when PyYAML has it.
    Over every example, a 16-entry corpus and 100 fuzzer workflows its
    text equals the pure-Python emitter's byte for byte, except on the
    examples pinned in :data:`FOLDED_DOUBLE_QUOTED`, whose two texts
    still load to the same manifest."""
    labelled = [(name, build()) for name, build in sorted(WORKFLOWS.items())]
    labelled += [
        (ir.name, ir)
        for _entry, ir in build_corpus(CorpusSpec(seed=1, size=16)).workflows()
    ]
    labelled += [
        (f"fuzzer-{index}-{seed}", generate_ir(seed, config))
        for index, config in enumerate((DETERMINISTIC_CONFIG, STOCHASTIC_CONFIG))
        for seed in range(50)
    ]
    differ = set()
    for label, ir in labelled:
        for backend in (ArgoBackend(), TektonBackend()):
            manifest = backend.compile(ir)
            c_text = dump_yaml(manifest)
            python_text = yaml.dump(manifest, Dumper=yaml.SafeDumper, sort_keys=False)
            if c_text != python_text:
                assert yaml.safe_load(c_text) == yaml.safe_load(python_text), label
                differ.add(label)
    assert differ == FOLDED_DOUBLE_QUOTED
