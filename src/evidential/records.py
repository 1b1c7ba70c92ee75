"""Case records, reference intervals, and evidence-item identity."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class Region(str, Enum):
    """Where a measured value sits relative to its reference interval."""

    ABOVE = "above"
    WITHIN = "within"
    BELOW = "below"


class EvidenceItemId(NamedTuple):
    """One kind of evidence: a parameter observed in one interval region."""

    parameter: str
    region: Region


@dataclass
class CaseRecord:
    """A single case: identifier, true outcome label, measured values.

    Parameters without a measurement are simply absent from values; a value
    of None is treated as missing and dropped.
    """

    case_id: str
    outcome: str
    values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = {p: float(v) for p, v in self.values.items() if v is not None}


@dataclass(frozen=True)
class ReferenceIntervals:
    """Per-parameter normal ranges (low, high), with low strictly below high."""

    bounds: dict[str, tuple[float, float]]

    def __post_init__(self) -> None:
        clean = {}
        for param, (low, high) in self.bounds.items():
            low, high = float(low), float(high)
            if not (math.isfinite(low) and math.isfinite(high)):
                raise ValueError(f"non-finite reference interval for {param!r}")
            if not low < high:
                raise ValueError(
                    f"reference interval for {param!r} needs low < high, got ({low}, {high})"
                )
            clean[param] = (low, high)
        object.__setattr__(self, "bounds", clean)

    def parameters(self) -> tuple[str, ...]:
        return tuple(self.bounds)

    def region(self, param: str, value: float) -> Region:
        bounds = self.bounds.get(param)
        if bounds is None:
            raise ValueError(f"no reference interval for parameter {param!r}")
        return discretize(value, bounds)


def discretize(value: float, bounds: tuple[float, float]) -> Region:
    """Classify a value against (low, high); both boundaries count as within."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot discretize non-finite value {value!r}")
    low, high = bounds
    if value < low:
        return Region.BELOW
    if value <= high:
        return Region.WITHIN
    return Region.ABOVE
