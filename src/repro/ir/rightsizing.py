"""Resource-request optimization (paper Sec. II.D).

"The considerations for this plan include optimizing large workflows,
**resource request optimization**, and the reuse of intermediate
results."  Users habitually over-request; the server maintains
historical usage profiles per container image and rewrites requests to
a safe quantile of observed usage, which lets more pods pack onto the
same cluster.

:class:`HistoricalProfiles` accumulates observed usage samples (fed by
completed runs or offline profiling); :class:`ResourceRightSizingPass`
is the IR pass that applies the recommendations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..k8s.resources import ResourceQuantity
from .graph import WorkflowIR
from .passes import IRPass


@dataclass
class _UsageSamples:
    cpu: List[float] = field(default_factory=list)
    memory: List[int] = field(default_factory=list)


def _quantile(values: List[float], q: float) -> float:
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


@dataclass
class HistoricalProfiles:
    """Per-image observed resource usage, with quantile recommendations.

    ``headroom`` multiplies the recommended quantile so transient spikes
    do not evict the pod; ``min_samples`` guards against rewriting
    requests off a handful of observations.
    """

    quantile: float = 0.95
    headroom: float = 1.2
    min_samples: int = 5
    _samples: Dict[str, _UsageSamples] = field(default_factory=dict)

    def record(self, image: str, cpu_used: float, memory_used: int) -> None:
        """Ingest one observed usage sample for ``image``."""
        if cpu_used < 0 or memory_used < 0:
            raise ValueError("usage samples must be >= 0")
        bucket = self._samples.setdefault(image, _UsageSamples())
        bucket.cpu.append(cpu_used)
        bucket.memory.append(memory_used)

    def recommendation(self, image: str) -> Optional[ResourceQuantity]:
        """Quantile-with-headroom request, or None without enough data."""
        bucket = self._samples.get(image)
        if bucket is None or len(bucket.cpu) < self.min_samples:
            return None
        return ResourceQuantity(
            cpu=_quantile(bucket.cpu, self.quantile) * self.headroom,
            memory=int(_quantile([float(m) for m in bucket.memory], self.quantile)
                       * self.headroom),
        )


class ResourceRightSizingPass(IRPass):
    """Shrink (never grow) over-provisioned requests from history.

    Only *reductions* are applied: if the historical recommendation is
    above the user's request, the user knew something the profile does
    not (a new workload shape), and their request stands.  GPU counts
    are never touched — they are allocation units, not rates.
    """

    name = "resource-rightsizing"

    def __init__(self, profiles: HistoricalProfiles) -> None:
        self.profiles = profiles
        #: (node name, old, new) rewrites from the latest run, for audit.
        self.rewrites: List[tuple] = []

    def run(self, ir: WorkflowIR) -> WorkflowIR:
        self.rewrites = []
        for node in ir.nodes.values():
            recommended = self.profiles.recommendation(node.image)
            if recommended is None:
                continue
            new_cpu = min(node.resources.cpu, recommended.cpu) or node.resources.cpu
            new_memory = (
                min(node.resources.memory, recommended.memory)
                or node.resources.memory
            )
            if (new_cpu, new_memory) == (node.resources.cpu, node.resources.memory):
                continue
            old = node.resources
            node.resources = ResourceQuantity(
                cpu=new_cpu, memory=new_memory, gpu=old.gpu
            )
            self.rewrites.append((node.name, old, node.resources))
        return ir
