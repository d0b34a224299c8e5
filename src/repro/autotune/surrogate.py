"""Training-dynamics surrogate: the stand-in for real GPU training.

The paper's Algorithm 4 asks an LLM to *predict a training log* for
each candidate hyperparameter set, then picks the best-performing
candidate — no actual training during the search.  This module supplies
both sides of that substitution:

- :class:`TrainingSurrogate` — a parametric response-surface model of
  training dynamics (ground truth in this reproduction: the thing real
  hardware would have produced).  Loss decays exponentially at a rate
  set by how far the learning rate sits from a batch-size-dependent
  optimum (a linear-scaling-rule-shaped surface), with divergence when
  the lr is far too high, plateau levels set by model capacity vs.
  dataset size, and seeded noise.
- a *predictor* view with configurable bias/noise, modelling that an
  LLM's predicted logs are informative but imperfect.

The response surface is smooth and unimodal in log-lr for fixed batch
size, so "pick the best candidate by (predicted) final metric" behaves
the way the paper's experiment assumes.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import Dict, List

from .cards import DataCard, HyperparameterSet, ModelCard


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    loss: float
    accuracy: float


@dataclass(frozen=True)
class TrainingCurve:
    """A full training trajectory for one hyperparameter setting."""

    hyperparameters: HyperparameterSet
    epochs: List[EpochMetrics]
    diverged: bool = False

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss

    @property
    def final_accuracy(self) -> float:
        return self.epochs[-1].accuracy


_FAMILY_BASE_LR: Dict[str, float] = {
    # Optimal lr at batch size 256, per model family (heuristic priors).
    "vit": 3e-4,
    "resnet": 1e-1,
    "densenet": 1e-1,
    "gpt": 6e-4,
    "lstm": 1e-3,
    "mlp": 1e-3,
}


@dataclass
class TrainingSurrogate:
    """Deterministic (seeded) synthetic training dynamics."""

    data: DataCard
    model: ModelCard
    seed: int = 0
    noise_scale: float = 0.01

    def optimal_lr(self, batch_size: int) -> float:
        """Linear-scaling-rule-shaped optimum: lr* grows with sqrt(B)."""
        base = _FAMILY_BASE_LR.get(self.model.family, 1e-3)
        return base * math.sqrt(batch_size / 256.0)

    def _capacity_plateau(self) -> float:
        """Best achievable accuracy given model capacity vs. data size.

        Larger models and more data help with diminishing returns; more
        classes make the task harder.
        """
        capacity = math.log10(self.model.num_params)  # ~7..9
        data_term = math.log10(self.data.num_samples)  # ~5..7
        class_penalty = math.log10(self.data.num_classes + 1) / 10.0
        raw = 0.30 + 0.06 * capacity + 0.035 * data_term - class_penalty
        return max(0.05, min(0.97, raw))

    def _initial_loss(self) -> float:
        return math.log(self.data.num_classes)

    def train(self, hp: HyperparameterSet) -> TrainingCurve:
        """Ground-truth training curve for ``hp``."""
        # zlib.crc32 keeps the stream stable across processes (str hash
        # randomization would break reproducibility).
        key = f"{self.seed}|{self.model.name}|{self.data.name}|{hp.render()}"
        rng = random.Random(zlib.crc32(key.encode("utf-8")))
        lr_star = self.optimal_lr(hp.batch_size)
        mistune = abs(math.log10(hp.learning_rate / lr_star))

        # Divergence: lr more than ~30x above optimum blows up.
        diverged = hp.learning_rate > 30.0 * lr_star
        plateau_acc = self._capacity_plateau() * math.exp(-0.35 * mistune**2)
        # Weight decay: small amounts help generalization, too much hurts.
        wd_effect = -2.0 * (hp.weight_decay - 0.02) ** 2 + 0.0008
        plateau_acc = max(0.01, min(0.99, plateau_acc + wd_effect * 10))
        # Warmup mildly helps transformers at high lr.
        if self.model.family in ("vit", "gpt") and hp.warmup_fraction > 0:
            plateau_acc = min(0.99, plateau_acc + 0.01)

        loss0 = self._initial_loss()
        plateau_loss = loss0 * (1.0 - plateau_acc) * 0.35 + 0.05
        # Convergence rate: best near lr*, slower when mistuned; small
        # batches add gradient noise that slows late convergence.
        rate = 0.55 * math.exp(-0.5 * mistune**2) * min(
            1.0, math.sqrt(hp.batch_size / 64.0)
        )
        rate = max(0.02, rate)

        epochs: List[EpochMetrics] = []
        for epoch in range(1, hp.epochs + 1):
            if diverged:
                loss = loss0 * (1.3 ** epoch) + rng.gauss(0, self.noise_scale)
                acc = max(0.0, 1.0 / self.data.num_classes + rng.gauss(0, 1e-4))
            else:
                progress = 1.0 - math.exp(-rate * epoch)
                loss = plateau_loss + (loss0 - plateau_loss) * math.exp(-rate * epoch)
                acc = plateau_acc * progress
                loss += rng.gauss(0, self.noise_scale * loss0 / 10.0)
                acc = min(0.999, max(0.0, acc + rng.gauss(0, self.noise_scale / 4.0)))
            epochs.append(EpochMetrics(epoch=epoch, loss=max(0.0, loss), accuracy=acc))
        return TrainingCurve(hyperparameters=hp, epochs=epochs, diverged=diverged)


@dataclass
class NoisyLogPredictor:
    """An imperfect view of the surrogate: what the "LLM" predicts.

    Adds a systematic bias and extra noise to the ground-truth curve,
    modelling that predicted training logs track real dynamics but are
    not exact.  ``fidelity`` in [0, 1]: 1 reproduces ground truth.
    """

    surrogate: TrainingSurrogate
    fidelity: float = 0.85
    seed: int = 1

    def predict(self, hp: HyperparameterSet) -> TrainingCurve:
        truth = self.surrogate.train(hp)
        rng = random.Random(zlib.crc32(f"{self.seed}|{hp.render()}".encode("utf-8")))
        distortion = (1.0 - self.fidelity) * 0.5
        epochs = [
            EpochMetrics(
                epoch=e.epoch,
                loss=max(0.0, e.loss * (1.0 + rng.gauss(0, distortion))),
                accuracy=min(0.999, max(0.0, e.accuracy * (1.0 + rng.gauss(0, distortion)))),
            )
            for e in truth.epochs
        ]
        return TrainingCurve(
            hyperparameters=hp, epochs=epochs, diverged=truth.diverged
        )
