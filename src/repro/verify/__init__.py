"""Differential verification subsystem.

A seeded workflow fuzzer (:mod:`generator`), a canonical semantic
fingerprint for execution outcomes (:mod:`fingerprint`), differential
oracles asserting the engine's advertised equivalences per seed
(:mod:`oracles`), structural backend conformance checks
(:mod:`backends_conformance`), and a node-deletion shrinker that
reduces any failing workflow to a minimal repro (:mod:`shrink`).

``python -m repro verify --seeds N`` sweeps seeds through every oracle
and is the CI gate next to the chaos gate.
"""

from .backends_conformance import conformance_problems
from .fingerprint import Fingerprint, fingerprint_record
from .generator import GeneratorConfig, generate_ir
from .oracles import CORPUS_ORACLES, ORACLES, OracleOutcome, corpus_ir, run_seed, run_suite
from .shrink import shrink_ir

__all__ = [
    "CORPUS_ORACLES",
    "Fingerprint",
    "GeneratorConfig",
    "ORACLES",
    "OracleOutcome",
    "conformance_problems",
    "corpus_ir",
    "fingerprint_record",
    "generate_ir",
    "run_seed",
    "run_suite",
    "shrink_ir",
]
