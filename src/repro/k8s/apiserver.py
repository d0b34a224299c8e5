"""Simulated Kubernetes API server.

Stores :class:`~repro.k8s.objects.APIObject` manifests in an
:class:`~repro.k8s.etcd.EtcdStore`, enforces the CRD size limit that
motivates the paper's big-workflow splitting (Sec. IV.B: "the size of
YAML can not [be] bigger than 2MB in practice"), rate-limits bursts with
``TooManyRequestsErr``, and delivers watch events to registered
informers the way a real controller runtime would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from .etcd import EtcdStore, KeyNotFoundError
from .objects import APIObject

#: Production limit from the paper: CRDs larger than this are rejected.
DEFAULT_CRD_SIZE_LIMIT = 2 * 1024 * 1024


class APIServerError(RuntimeError):
    """Base class for API-server-level failures."""


class TooManyRequestsErr(APIServerError):
    """API server overloaded (retryable; paper Appendix B.B)."""


class CRDTooLargeError(APIServerError):
    """Manifest exceeds the CRD size limit — the trigger for Algorithm 3."""


class AlreadyExistsError(APIServerError):
    """Create of an object whose key already exists."""


class NotFoundError(APIServerError, KeyError):
    """Get/update/delete of a missing object."""


class EventType(str, Enum):
    ADDED = "ADDED"
    MODIFIED = "MODIFIED"
    DELETED = "DELETED"


@dataclass(frozen=True)
class WatchEvent:
    type: EventType
    obj: APIObject


WatchHandler = Callable[[WatchEvent], None]


@dataclass
class APIServer:
    """The cluster's object store front-end.

    Parameters
    ----------
    etcd:
        Backing store; a fresh quota-bounded store is created by default.
    crd_size_limit:
        Maximum serialized manifest size accepted for custom resources.
    rate_limit:
        If set, the number of requests allowed per call to
        :meth:`tick`; further requests raise
        :class:`TooManyRequestsErr` until the next tick.  ``None``
        disables rate limiting (the default for unit tests).
    """

    etcd: EtcdStore = field(default_factory=EtcdStore)
    crd_size_limit: int = DEFAULT_CRD_SIZE_LIMIT
    rate_limit: Optional[int] = None
    _objects: Dict[str, APIObject] = field(default_factory=dict)
    _watchers: Dict[str, List[WatchHandler]] = field(default_factory=dict)
    _requests_this_window: int = 0
    request_count: int = 0

    # ------------------------------------------------------------------ utils

    def tick(self) -> None:
        """Open a new rate-limit window (called once per sim step)."""
        self._requests_this_window = 0

    def _admit(self) -> None:
        self.request_count += 1
        if self.rate_limit is not None:
            self._requests_this_window += 1
            if self._requests_this_window > self.rate_limit:
                raise TooManyRequestsErr(
                    f"rate limit of {self.rate_limit} requests/window exceeded"
                )

    def _persist(self, obj: APIObject) -> None:
        payload = json.dumps(obj.to_dict(), sort_keys=True).encode("utf-8")
        self.etcd.put(obj.key, payload)

    def _is_custom_resource(self, obj: APIObject) -> bool:
        return "/" in obj.api_version and not obj.api_version.startswith("v")

    def _check_size(self, obj: APIObject) -> None:
        if self._is_custom_resource(obj):
            size = obj.serialized_size()
            if size > self.crd_size_limit:
                raise CRDTooLargeError(
                    f"{obj.key}: manifest is {size} bytes, "
                    f"limit is {self.crd_size_limit}"
                )

    def _notify(self, event: WatchEvent) -> None:
        for handler in self._watchers.get(event.obj.kind, []):
            handler(event)
        for handler in self._watchers.get("*", []):
            handler(event)

    # ------------------------------------------------------------------- CRUD

    def create(self, obj: APIObject) -> APIObject:
        self._admit()
        self._check_size(obj)
        if obj.key in self._objects:
            raise AlreadyExistsError(obj.key)
        obj.resource_version = self.etcd.revision + 1
        self._objects[obj.key] = obj
        self._persist(obj)
        self._notify(WatchEvent(EventType.ADDED, obj))
        return obj

    def get(self, kind: str, name: str, namespace: str = "default") -> APIObject:
        self._admit()
        key = f"{kind}/{namespace}/{name}"
        obj = self._objects.get(key)
        if obj is None:
            raise NotFoundError(key)
        return obj

    def update(self, obj: APIObject) -> APIObject:
        self._admit()
        self._check_size(obj)
        if obj.key not in self._objects:
            raise NotFoundError(obj.key)
        obj.resource_version = self.etcd.revision + 1
        self._objects[obj.key] = obj
        self._persist(obj)
        self._notify(WatchEvent(EventType.MODIFIED, obj))
        return obj

    def update_status(self, obj: APIObject) -> APIObject:
        """Status-subresource update: skips the CRD size check like k8s."""
        self._admit()
        if obj.key not in self._objects:
            raise NotFoundError(obj.key)
        obj.resource_version = self.etcd.revision + 1
        self._objects[obj.key] = obj
        self._persist(obj)
        self._notify(WatchEvent(EventType.MODIFIED, obj))
        return obj

    def delete(self, kind: str, name: str, namespace: str = "default") -> None:
        self._admit()
        key = f"{kind}/{namespace}/{name}"
        obj = self._objects.pop(key, None)
        if obj is None:
            raise NotFoundError(key)
        try:
            self.etcd.delete(key)
        except KeyNotFoundError:
            pass
        self._notify(WatchEvent(EventType.DELETED, obj))

    def list(self, kind: str, namespace: Optional[str] = None) -> List[APIObject]:
        self._admit()
        out = []
        for key in sorted(self._objects):
            obj = self._objects[key]
            if obj.kind != kind:
                continue
            if namespace is not None and obj.metadata.namespace != namespace:
                continue
            out.append(obj)
        return out

    # ------------------------------------------------------------------ watch

    def watch(self, kind: str, handler: WatchHandler) -> None:
        """Register ``handler`` for events on ``kind`` (``"*"`` = all)."""
        self._watchers.setdefault(kind, []).append(handler)
