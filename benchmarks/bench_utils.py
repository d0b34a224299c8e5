"""Shared helpers for the benchmarks."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under the benchmark timer.

    The experiment drivers are whole simulations; timing them for one
    round is the honest measurement (pytest-benchmark would otherwise
    re-run them many times).
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def save_payload(results_dir: Path, name: str, payload: dict) -> str:
    """Write ``payload`` to ``BENCH_<name>.json`` under ``results_dir``.

    Returns the report line that names the file by its path from the
    repository root, so a committed report reads the same from any
    checkout.
    """
    out = results_dir / f"BENCH_{name}.json"
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return f"  [payload saved to {out.resolve().relative_to(REPO_ROOT).as_posix()}]"


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
