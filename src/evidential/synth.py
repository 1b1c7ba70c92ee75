"""Synthetic lab-case generator with controllable outcome separation.

Every outcome gets a signature over the parameters: for each parameter it
tends below, inside, or above the reference interval. The separation factor
scales how far outside the interval the below/above means sit (in interval
widths), so larger values make outcomes easier to tell apart; values are
drawn around the signature mean with a spread of one third of the interval
width. Missing values are injected uniformly at the configured rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import MAX_FRAME_SIZE
from .records import CaseRecord, ReferenceIntervals


@dataclass(frozen=True)
class SynthConfig:
    outcomes: int = 14
    params: int = 12
    cases: int = 280
    seed: int = 42
    separation: float = 1.5
    missing_rate: float = 0.1

    def __post_init__(self) -> None:
        if not 1 <= self.outcomes <= MAX_FRAME_SIZE:
            raise ValueError(f"outcomes must be between 1 and {MAX_FRAME_SIZE}")
        if self.params < 1 or self.cases < 1:
            raise ValueError("params and cases must be at least 1")
        if self.separation < 0:
            raise ValueError("separation must be non-negative")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must be in [0, 1)")


def outcome_labels(count: int) -> list[str]:
    return [f"g{i:02d}" for i in range(1, count + 1)]


def parameter_names(count: int) -> list[str]:
    return [f"P{i:02d}" for i in range(1, count + 1)]


def generate_cases(config: SynthConfig) -> tuple[list[CaseRecord], ReferenceIntervals]:
    """Deterministic for a fixed config: same seed, same dataset."""
    rng = np.random.default_rng(config.seed)
    labels = outcome_labels(config.outcomes)
    params = parameter_names(config.params)
    centers = rng.uniform(40.0, 60.0, size=config.params)
    widths = rng.uniform(10.0, 20.0, size=config.params)
    bounds = {
        p: (round(centers[j] - widths[j] / 2.0, 4), round(centers[j] + widths[j] / 2.0, 4))
        for j, p in enumerate(params)
    }
    offsets = rng.integers(-1, 2, size=(config.outcomes, config.params))
    cases = []
    for i in range(config.cases):
        outcome_idx = i % config.outcomes
        values = {}
        for j, p in enumerate(params):
            if rng.random() < config.missing_rate:
                continue
            mean = centers[j] + offsets[outcome_idx, j] * config.separation * widths[j]
            values[p] = round(float(rng.normal(mean, widths[j] / 3.0)), 4)
        cases.append(CaseRecord._of_floats(f"c{i + 1:04d}", labels[outcome_idx], values))
    return cases, ReferenceIntervals(bounds)
