"""pass@k evaluation harness (Table II).

Follows the Codex/CodeGen evaluation procedure the paper cites: for
each task draw ``n`` independent samples, count correct ones ``c``, and
estimate ``pass@k = 1 - C(n-c, k) / C(n, k)`` (the unbiased estimator).
Each model is evaluated at temperatures {0.2, 0.6, 0.8} and the best
temperature per k is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..llm.simulated import PROFILES, SimulatedLLM
from .corpus import NLTask
from .pipeline import NLToWorkflow

DEFAULT_TEMPERATURES = (0.2, 0.6, 0.8)
DEFAULT_KS = (1, 3, 5)


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased pass@k estimator from n samples with c passes."""
    if n <= 0:
        raise ValueError("n must be > 0")
    if not 0 <= c <= n:
        raise ValueError(f"c must be in [0, n]: c={c}, n={n}")
    if k > n:
        raise ValueError(f"k must be <= n: k={k}, n={n}")
    if n - c < k:
        return 1.0
    return 1.0 - math.prod((n - c - i) / (n - i) for i in range(k))


@dataclass
class SampleOutcome:
    task_name: str
    temperature: float
    passed: bool


@dataclass
class PassKResult:
    """pass@k per temperature for one model and prompt variant."""

    model: str
    variant: str  # "raw" or "ours"
    per_temperature: Dict[float, Dict[int, float]] = field(default_factory=dict)


#: A sampler maps (task, temperature, sample_index) -> passed?
Sampler = Callable[[NLTask, float, int], bool]


def evaluate_sampler(
    tasks: Sequence[NLTask],
    sampler: Sampler,
    num_samples: int = 5,
    temperatures: Sequence[float] = DEFAULT_TEMPERATURES,
    ks: Sequence[int] = DEFAULT_KS,
) -> Dict[float, Dict[int, float]]:
    """Run the sampler over the corpus; mean pass@k per temperature."""
    if num_samples < max(ks):
        raise ValueError("num_samples must be >= max(ks)")
    per_temperature: Dict[float, Dict[int, float]] = {}
    for temperature in temperatures:
        per_task_scores: Dict[int, List[float]] = {k: [] for k in ks}
        for task in tasks:
            passes = sum(
                1
                for index in range(num_samples)
                if sampler(task, temperature, index)
            )
            for k in ks:
                per_task_scores[k].append(pass_at_k(num_samples, passes, k))
        per_temperature[temperature] = {
            k: sum(scores) / len(scores) for k, scores in per_task_scores.items()
        }
    return per_temperature


def make_raw_sampler(model: str, seed: int = 0) -> Sampler:
    """Single-shot whole-workflow generation with the raw model."""

    def sampler(task: NLTask, temperature: float, index: int) -> bool:
        llm = SimulatedLLM(
            PROFILES[model],
            temperature=temperature,
            seed=_sample_seed(seed, task.name, temperature, index),
        )
        pipeline = NLToWorkflow(llm)
        return pipeline.convert_single_shot(task).passed

    return sampler


def make_ours_sampler(
    model: str,
    seed: int = 0,
    use_retrieval: bool = True,
    use_calibration: bool = True,
    baseline_score: float = 0.7,
    user_feedback_rounds: int = 0,
) -> Sampler:
    """The full Algorithm 1 pipeline ("+Ours").

    ``user_feedback_rounds > 0`` additionally enables Step 4 (textual
    user feedback on failed validations).
    """

    def sampler(task: NLTask, temperature: float, index: int) -> bool:
        llm = SimulatedLLM(
            PROFILES[model],
            temperature=temperature,
            seed=_sample_seed(seed, task.name, temperature, index),
        )
        pipeline = NLToWorkflow(
            llm,
            baseline_score=baseline_score,
            use_retrieval=use_retrieval,
            use_calibration=use_calibration,
        )
        return pipeline.convert(
            task, user_feedback_rounds=user_feedback_rounds
        ).passed

    return sampler


def _sample_seed(base: int, task_name: str, temperature: float, index: int) -> int:
    import zlib

    return zlib.crc32(f"{base}|{task_name}|{temperature}|{index}".encode("utf-8"))
