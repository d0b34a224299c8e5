"""Shared helpers for the benchmarks."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Iterable, Tuple

#: One ratchet bound: ``(metric, value, baseline, bound, better)``, where
#: ``better`` is ``"lower"`` (``bound`` is a ceiling) or ``"higher"`` (a
#: floor).
Bound = Tuple[str, float, float, float, str]

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


def ratchet(
    results_dir: Path,
    name: str,
    keys: Iterable,
    bounds: Callable[[object, dict], Iterable[Bound]],
) -> str:
    """Gate a run against the committed ``BENCH_<name>_baselines.json``.

    A run may beat its baselines, never regress past a bound.  For each
    of ``keys`` with an entry in the file, ``bounds(key, entry)`` yields
    the bounds that entry sets, and each must hold.  Returns the report
    note; a missing file, or no entry for any key, skips the gate.
    """
    path = results_dir / f"BENCH_{name}_baselines.json"
    if not path.exists():
        return f"no {path.name}; ratchet gate skipped"
    baselines = json.loads(path.read_text(encoding="utf-8"))
    checked = [key for key in keys if str(key) in baselines]
    if not checked:
        return f"no baseline entry in {path.name}; ratchet gate skipped"
    count = 0
    for key in checked:
        for metric, value, baseline, bound, better in bounds(key, baselines[str(key)]):
            kind = "ceiling" if better == "lower" else "floor"
            assert value <= bound if better == "lower" else value >= bound, (
                f"{name} ratchet at {key}: {metric} {value} vs baseline "
                f"{baseline} ({kind} {bound:.6g}); if the regression is "
                f"intended, update {path.name}"
            )
            count += 1
    return (
        f"ratchet ok: {count} bounds vs {path.name} at "
        f"{', '.join(str(key) for key in checked)}"
    )


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
