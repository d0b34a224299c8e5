"""A tiny etcd stand-in: versioned key-value store with quota errors.

The paper's failure handler (Appendix B.B) names two production error
patterns the retry policy must absorb: ``ExceededQuotaErr`` (etcd space
quota exceeded while updating) and ``TooManyRequestsErr`` (API-server
overload).  This module models the etcd side: a KV store with an overall
byte quota, per-key revisions, and optional fault injection so tests can
exercise the retry paths deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional


class EtcdError(RuntimeError):
    """Base class for simulated etcd failures."""


class ExceededQuotaErr(EtcdError):
    """etcd space quota exceeded during an update (retryable)."""


class KeyNotFoundError(EtcdError, KeyError):
    """Requested key does not exist."""


class RevisionConflictError(EtcdError):
    """Compare-and-swap failed: the stored revision moved on."""


@dataclass
class _Entry:
    value: bytes
    revision: int


@dataclass
class EtcdStore:
    """Byte-quota-bounded KV store with monotonic revisions.

    Parameters
    ----------
    quota_bytes:
        Total bytes of stored values allowed; writes beyond this raise
        :class:`ExceededQuotaErr`, matching the production pattern the
        workflow controller must retry.
    fault_injector:
        Optional callable ``(op, key) -> Exception | None`` consulted
        before every operation; returning an exception raises it.  Used
        by failure-injection tests.
    """

    quota_bytes: int = 8 * 1024 * 1024
    fault_injector: Optional[Callable[[str, str], Optional[Exception]]] = None
    _data: Dict[str, _Entry] = field(default_factory=dict)
    _revision: int = 0
    _used: int = 0

    def _check_fault(self, op: str, key: str) -> None:
        if self.fault_injector is not None:
            err = self.fault_injector(op, key)
            if err is not None:
                raise err

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def revision(self) -> int:
        return self._revision

    def put(self, key: str, value: bytes) -> int:
        """Store ``value`` under ``key``; returns the new revision."""
        self._check_fault("put", key)
        old = self._data.get(key)
        new_used = self._used - (len(old.value) if old else 0) + len(value)
        if new_used > self.quota_bytes:
            raise ExceededQuotaErr(
                f"etcd quota exceeded: {new_used} > {self.quota_bytes} bytes"
            )
        self._revision += 1
        self._data[key] = _Entry(value=value, revision=self._revision)
        self._used = new_used
        return self._revision

    def get(self, key: str) -> bytes:
        self._check_fault("get", key)
        entry = self._data.get(key)
        if entry is None:
            raise KeyNotFoundError(key)
        return entry.value

    def compare_and_put(self, key: str, value: bytes, expected_revision: int) -> int:
        """Atomic update guarded on the key's current revision."""
        self._check_fault("cas", key)
        entry = self._data.get(key)
        current = entry.revision if entry else 0
        if current != expected_revision:
            raise RevisionConflictError(
                f"{key}: expected revision {expected_revision}, found {current}"
            )
        return self.put(key, value)

    def delete(self, key: str) -> None:
        self._check_fault("delete", key)
        entry = self._data.pop(key, None)
        if entry is None:
            raise KeyNotFoundError(key)
        self._used -= len(entry.value)
        self._revision += 1

    def contains(self, key: str) -> bool:
        return key in self._data

    def keys(self, prefix: str = "") -> Iterator[str]:
        """Iterate keys under ``prefix`` in sorted order."""
        for key in sorted(self._data):
            if key.startswith(prefix):
                yield key
