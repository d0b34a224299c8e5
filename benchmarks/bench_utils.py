"""Shared helpers for the benchmarks."""

from __future__ import annotations

import hashlib


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under the benchmark timer.

    The experiment drivers are whole simulations; timing them for one
    round is the honest measurement (pytest-benchmark would otherwise
    re-run them many times).
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def placement_digest(records) -> str:
    """Digest of everything admission decided for ``records``.

    Virtual times, cluster choices and deferral counts only: wall-clock
    timings stay out, so two same-seed runs hash identically.
    """
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(
            (
                f"{record.workflow_name}:{record.admitted}:{record.reject_reason}:"
                f"{record.admit_time}:{record.place_time}:{record.finish_time}:"
                f"{record.cluster_name}:{record.deferrals}:{record.preemptions}"
            ).encode()
        )
    return hasher.hexdigest()
