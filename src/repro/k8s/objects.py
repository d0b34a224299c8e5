"""Kubernetes-style API objects for the simulated cluster.

The simulator stores every object as a typed Python wrapper around a plain
``dict`` manifest, mirroring how real Kubernetes objects are JSON documents
with ``apiVersion`` / ``kind`` / ``metadata`` / ``spec`` / ``status``
sections.  Keeping manifests as dicts lets the Argo backend emit the exact
YAML the paper's workflow operator consumes, and lets the API server
enforce size limits on the serialized form (the 2 MB CRD constraint that
motivates Algorithm 3).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .resources import ResourceQuantity

#: The PyYAML dumper :func:`dump_yaml` renders with.  ``None`` picks
#: libyaml's C emitter when this PyYAML was built with it, else the
#: pure-Python one; they differ only in how they fold a long
#: double-quoted string across lines.
_SafeDumper = None


class PodPhase(str, Enum):
    """Lifecycle phases of a simulated pod (matches Kubernetes)."""

    PENDING = "Pending"
    RUNNING = "Running"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"

    def is_terminal(self) -> bool:
        return self in (PodPhase.SUCCEEDED, PodPhase.FAILED)


@dataclass
class ObjectMeta:
    """Metadata carried by every API object."""

    name: str
    namespace: str = "default"
    labels: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)
    uid: Optional[str] = None
    creation_time: Optional[float] = None

    def to_dict(self) -> dict:
        out: dict = {"name": self.name, "namespace": self.namespace}
        if self.labels:
            out["labels"] = dict(self.labels)
        if self.annotations:
            out["annotations"] = dict(self.annotations)
        if self.uid is not None:
            out["uid"] = self.uid
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectMeta":
        return cls(
            name=data["name"],
            namespace=data.get("namespace", "default"),
            labels=dict(data.get("labels", {})),
            annotations=dict(data.get("annotations", {})),
            uid=data.get("uid"),
        )


@dataclass
class APIObject:
    """Base wrapper for a manifest stored in the simulated API server."""

    api_version: str
    kind: str
    metadata: ObjectMeta
    spec: dict = field(default_factory=dict)
    status: dict = field(default_factory=dict)
    resource_version: int = 0

    @property
    def key(self) -> str:
        """Unique storage key, e.g. ``Pod/default/train-step-1``."""
        return f"{self.kind}/{self.metadata.namespace}/{self.metadata.name}"

    def to_dict(self) -> dict:
        return {
            "apiVersion": self.api_version,
            "kind": self.kind,
            "metadata": self.metadata.to_dict(),
            "spec": copy.deepcopy(self.spec),
            "status": copy.deepcopy(self.status),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "APIObject":
        return cls(
            api_version=data.get("apiVersion", "v1"),
            kind=data["kind"],
            metadata=ObjectMeta.from_dict(data.get("metadata", {})),
            spec=copy.deepcopy(data.get("spec", {})),
            status=copy.deepcopy(data.get("status", {})),
        )

    def serialized_size(self) -> int:
        """Size in bytes of the JSON-serialized manifest.

        This is the quantity the API server's CRD size limit applies to.
        The ``alpha`` term of the workflow split budget (Sec. IV.B) is
        the YAML size instead: see :func:`crd_yaml_size`.
        """
        return len(json.dumps(self.to_dict(), sort_keys=True).encode("utf-8"))


@dataclass
class Pod(APIObject):
    """A simulated pod: a unit of step execution with resource requests.

    Simulation hints (duration, output artifact size, failure profile)
    ride in ``metadata.annotations`` under ``sim/*`` keys, the same way a
    real operator would attach scheduling hints.
    """

    def __init__(
        self,
        name: str,
        requests: Optional[ResourceQuantity] = None,
        namespace: str = "default",
        labels: Optional[dict] = None,
        annotations: Optional[dict] = None,
        spec: Optional[dict] = None,
    ) -> None:
        super().__init__(
            api_version="v1",
            kind="Pod",
            metadata=ObjectMeta(
                name=name,
                namespace=namespace,
                labels=dict(labels or {}),
                annotations=dict(annotations or {}),
            ),
            spec=dict(spec or {}),
            status={"phase": PodPhase.PENDING.value},
        )
        self._requests = requests or ResourceQuantity()

    @property
    def requests(self) -> ResourceQuantity:
        return self._requests

    @property
    def phase(self) -> PodPhase:
        return PodPhase(self.status.get("phase", PodPhase.PENDING.value))

    @phase.setter
    def phase(self, value: PodPhase) -> None:
        self.status["phase"] = value.value

    @property
    def node_name(self) -> Optional[str]:
        return self.spec.get("nodeName")

    @node_name.setter
    def node_name(self, value: Optional[str]) -> None:
        if value is None:
            self.spec.pop("nodeName", None)
        else:
            self.spec["nodeName"] = value

    @property
    def reason(self) -> Optional[str]:
        """Machine-readable cause of the current phase (e.g. ``Evicted``,
        ``NodeLost``), mirroring ``status.reason`` on real pods."""
        return self.status.get("reason")

    @reason.setter
    def reason(self, value: Optional[str]) -> None:
        if value is None:
            self.status.pop("reason", None)
        else:
            self.status["reason"] = value


def make_crd(
    kind: str,
    name: str,
    spec: dict,
    group: str = "argoproj.io",
    version: str = "v1alpha1",
    namespace: str = "default",
    annotations: Optional[dict] = None,
) -> APIObject:
    """Construct a Custom Resource object (e.g. an Argo ``Workflow``)."""
    return APIObject(
        api_version=f"{group}/{version}",
        kind=kind,
        metadata=ObjectMeta(
            name=name, namespace=namespace, annotations=dict(annotations or {})
        ),
        spec=copy.deepcopy(spec),
    )


def dump_yaml(manifest: dict) -> str:
    """Render a manifest as block YAML, keys in insertion order.

    The one YAML renderer behind :func:`crd_yaml_size` and the
    backends' ``compile_to_text``, so the split budget measures exactly
    the text a backend emits.  PyYAML is imported on the first render,
    so a simulation that renders no manifest never loads it.
    """
    import yaml

    dumper = _SafeDumper or getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    return yaml.dump(manifest, Dumper=dumper, sort_keys=False)


def crd_yaml_size(manifest: dict) -> int:
    """Byte size of a manifest as YAML — the budget unit in Algorithm 3."""
    return len(dump_yaml(manifest).encode("utf-8"))
