"""Determinism lint: no wall-clock or unseeded randomness in the engine.

The whole verification story rests on the engine being a deterministic
function of (workflow, seed).  A single ``time.time()`` or module-level
``random.random()`` silently breaks replay and every differential
oracle, so this test greps the engine and verify packages, the
cluster, metrics, Code Lake and IR packages whose memoized values the
engine reads, and the request-path packages (NL and SQL frontends,
splitting, caching) whose outputs the corpus digests pin, for the
offending calls.  ``simclock.py`` is the one legitimate time authority
and is exempt.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Packages that must be wall-clock-free and seeded-RNG-only.
LINTED_PACKAGES = (
    "engine",
    "verify",
    "k8s",
    "obs",
    "llm",
    "ir",
    "nl2wf",
    "sqlflow",
    "parallelism",
    "caching",
)

#: The simulated clock itself may reference real time in docs/comments;
#: it is the boundary the rest of the engine must go through.
EXEMPT_FILES = {"simclock.py"}

_FORBIDDEN = re.compile(
    r"""
      \btime\.time\(
    | \btime\.monotonic\(
    | \btime\.perf_counter\(
    | \bdatetime\.now\(
    | \bdatetime\.utcnow\(
    | \bdate\.today\(
    # Module-level RNG functions share unseeded global state; the
    # engine must draw from an explicit random.Random(seed) instance.
    | \brandom\.(?:random|randint|randrange|choice|choices|sample|shuffle|uniform|gauss)\(
    """,
    re.VERBOSE,
)


def _strip_comments(line: str) -> str:
    return line.split("#", 1)[0]


def _linted_files():
    for package in LINTED_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            if path.name not in EXEMPT_FILES:
                yield path


def test_linted_packages_exist():
    files = list(_linted_files())
    assert len(files) > 5, "lint scope unexpectedly empty — wrong path?"


@pytest.mark.parametrize(
    "path", list(_linted_files()), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_wall_clock_or_unseeded_random(path):
    violations = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        match = _FORBIDDEN.search(_strip_comments(line))
        if match:
            violations.append(f"{path.name}:{number}: {match.group().rstrip('(')}")
    assert not violations, (
        "wall-clock / unseeded-random calls in deterministic code "
        f"(route time through SimClock, randomness through random.Random(seed)): "
        f"{violations}"
    )
