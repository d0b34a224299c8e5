"""Adaptive-policy ablation benchmark: controller vs static defaults.

Runs ``repro.experiments.adaptive_ablation`` — the controller tunes a
:class:`~repro.control.policy.PolicyConfig` over the scenario corpus by
successive halving, then the tuned policy and the paper's static
constants run the same corpus across a cache-size sweep — and gates:

* **determinism** — same seed reruns to an identical
  :meth:`AblationResult.digest` (the tune, the sweep and the held-out
  comparison are all seed-pure virtual time),
* **wins** — at the committed size the adaptive policy beats static
  defaults on at least two of the three headline metrics (sweep-mean
  hit ratio, batch-lane queue p99, starvation gap),
* **ratchet** — headline numbers may improve on the committed
  baselines in ``BENCH_adaptive_baselines.json`` but not regress past
  them (1.2× on the latency metrics, -0.05 on hit ratio).

Sizes come from ``BENCH_ADAPTIVE_SIZE`` / ``BENCH_ADAPTIVE_ROUNDS``
(defaults 24 / 3; CI smoke shrinks them, which skips the wins gate and
any baseline entry for other sizes).  The payload lands in
``benchmarks/results/BENCH_adaptive.json``.
"""

from __future__ import annotations

import os

from bench_utils import ratchet, save_payload

from repro.experiments import adaptive_ablation

SEED = 7
SIZE = int(os.environ.get("BENCH_ADAPTIVE_SIZE", "24"))
ROUNDS = int(os.environ.get("BENCH_ADAPTIVE_ROUNDS", "3"))
#: The committed configuration the wins gate and baselines apply to.
GATED_SIZE = 24
MIN_WINS = 2
LATENCY_RATCHET = 1.2
HIT_RATIO_SLACK = 0.05


def _run() -> adaptive_ablation.AblationResult:
    return adaptive_ablation.run(seed=SEED, tune_size=SIZE, rounds=ROUNDS)


def _ratchet_bounds(result, entry: dict):
    for metric, direction in adaptive_ablation.HEADLINE_METRICS.items():
        base = entry["headline"][metric]["adaptive"]
        bound = base - HIT_RATIO_SLACK if direction == "higher" else base * LATENCY_RATCHET
        yield metric, result.headline[metric]["adaptive"], base, bound, direction
    yield "wins", result.wins, entry["wins"], entry["wins"], "higher"


def test_adaptive_ablation(results_dir, save_report):
    result = _run()

    # Determinism: tune + sweep + held-out replay bit-for-bit.
    rerun = _run()
    assert rerun.adaptation_digest == result.adaptation_digest, (
        "controller tune diverged between same-seed runs"
    )
    assert rerun.digest() == result.digest(), (
        "same-seed ablation runs diverged"
    )

    # The search actually searched, and the winner is not the default.
    assert result.tune_evaluations > len(result.headline)
    assert result.tuned_policy, "controller returned the static defaults"

    # The committed configuration must beat static defaults on >=2
    # headline metrics; smoke sizes only record their wins.
    if SIZE == GATED_SIZE:
        assert result.wins >= MIN_WINS, (
            f"adaptive policy won only {result.wins} headline metrics "
            f"(need {MIN_WINS}): {result.headline}"
        )

    ratchet_note = ratchet(
        results_dir, "adaptive", [SIZE], lambda _size, entry: _ratchet_bounds(result, entry)
    )

    payload = {
        "seed": SEED,
        "tune_size": SIZE,
        "rounds": ROUNDS,
        "tuned_policy": result.tuned_policy,
        "adaptation_digest": result.adaptation_digest,
        "tune_evaluations": result.tune_evaluations,
        "sweep": result.sweep,
        "held_out": result.held_out,
        "headline": result.headline,
        "wins": result.wins,
        "determinism": {"digest": result.digest(), "rerun_identical": True},
        "ratchet": ratchet_note,
    }
    saved = save_payload(results_dir, "adaptive", payload)

    lines = [
        adaptive_ablation.report(result),
        f"  determinism digest {result.digest()[:16]}… (rerun identical)",
        f"  {ratchet_note}",
        saved,
    ]
    save_report("bench_adaptive", "\n".join(lines))
