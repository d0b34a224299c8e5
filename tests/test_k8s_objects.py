"""Unit tests for API objects, pods and CRD helpers."""


from repro.k8s.objects import (
    APIObject,
    ObjectMeta,
    Pod,
    PodPhase,
    crd_yaml_size,
    dump_yaml,
    make_crd,
)
from repro.k8s.resources import ResourceQuantity


class TestObjectMeta:
    def test_round_trip(self):
        meta = ObjectMeta(
            name="x", namespace="prod", labels={"a": "1"}, annotations={"b": "2"},
            uid="u-1",
        )
        restored = ObjectMeta.from_dict(meta.to_dict())
        assert restored == ObjectMeta(
            name="x", namespace="prod", labels={"a": "1"},
            annotations={"b": "2"}, uid="u-1",
        )

    def test_minimal_dict(self):
        meta = ObjectMeta.from_dict({"name": "y"})
        assert meta.namespace == "default"
        assert meta.labels == {}


class TestAPIObject:
    def test_key_format(self):
        obj = make_crd("Workflow", "wf-1", spec={})
        assert obj.key == "Workflow/default/wf-1"

    def test_round_trip(self):
        obj = make_crd("Workflow", "wf", spec={"entrypoint": "main"},
                       annotations={"k": "v"})
        restored = APIObject.from_dict(obj.to_dict())
        assert restored.kind == "Workflow"
        assert restored.api_version == "argoproj.io/v1alpha1"
        assert restored.spec == {"entrypoint": "main"}
        assert restored.metadata.annotations == {"k": "v"}

    def test_serialized_size_grows_with_spec(self):
        small = make_crd("Workflow", "a", spec={})
        big = make_crd("Workflow", "a", spec={"blob": "x" * 1000})
        assert big.serialized_size() > small.serialized_size() + 900

    def test_to_dict_deep_copies(self):
        obj = make_crd("Workflow", "a", spec={"nested": {"v": 1}})
        dumped = obj.to_dict()
        dumped["spec"]["nested"]["v"] = 99
        assert obj.spec["nested"]["v"] == 1


class TestPod:
    def test_lifecycle_fields(self):
        pod = Pod("p", requests=ResourceQuantity(cpu=1.0))
        assert pod.phase == PodPhase.PENDING
        assert not pod.phase.is_terminal()
        pod.phase = PodPhase.RUNNING
        pod.node_name = "node-1"
        assert pod.spec["nodeName"] == "node-1"
        pod.phase = PodPhase.SUCCEEDED
        assert pod.phase.is_terminal()

    def test_labels_and_annotations(self):
        pod = Pod("p", labels={"workflow": "w"}, annotations={"sim/x": "1"})
        assert pod.metadata.labels["workflow"] == "w"
        assert pod.to_dict()["metadata"]["annotations"]["sim/x"] == "1"


class TestCrdYamlSize:
    def test_matches_yaml_dump_length(self):
        manifest = make_crd("Workflow", "a", spec={"steps": list(range(50))}).to_dict()
        assert crd_yaml_size(manifest) == len(dump_yaml(manifest).encode("utf-8"))

    def test_dump_is_block_yaml_in_insertion_order(self):
        text = dump_yaml({"kind": "Workflow", "apiVersion": "v1", "spec": {"b": 1, "a": [2]}})
        assert text == "kind: Workflow\napiVersion: v1\nspec:\n  b: 1\n  a:\n  - 2\n"
