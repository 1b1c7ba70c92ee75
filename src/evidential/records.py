"""Case records, reference intervals, and evidence-item identity.

A case record is slotted and holds its measured values as a dict of floats.
Stages that read a whole case list (the frequency table, the Pearson screen)
read it once, through value_columns, as one float64 column per parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np


class Region(str, Enum):
    """Where a measured value sits relative to its reference interval."""

    ABOVE = "above"
    WITHIN = "within"
    BELOW = "below"


class EvidenceItemId(NamedTuple):
    """One kind of evidence: a parameter observed in one interval region."""

    parameter: str
    region: Region


@dataclass(slots=True)
class CaseRecord:
    """A single case: identifier, true outcome label, measured values.

    Parameters without a measurement are simply absent from values; a value
    of None is treated as missing and dropped. Slotted: a record has no
    instance __dict__.
    """

    case_id: str
    outcome: str
    values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = {p: float(v) for p, v in self.values.items() if v is not None}

    @classmethod
    def _of_floats(cls, case_id: str, outcome: str, values: dict[str, float]) -> "CaseRecord":
        """Trusted constructor for values that already map names to floats,
        as the case-table parser and the synthetic generator build them.
        Nothing is converted, and the dict is adopted, not copied."""
        self = cls.__new__(cls)
        self.case_id, self.outcome, self.values = case_id, outcome, values
        return self


def value_columns(
    cases: Sequence[CaseRecord], params: Iterable[str]
) -> dict[str, np.ndarray] | None:
    """Each parameter's values as one float64 column in case order, NaN
    where a case has no value.

    None when a case measured a non-finite value for one of params: a
    measured NaN cannot be told from a missing one in the column, so the
    finite cells are counted against the measured ones instead.
    """
    values = [case.values for case in cases]
    columns = {
        p: np.fromiter((v.get(p, math.nan) for v in values), float, len(values))
        for p in params
    }
    finite = sum(int(np.count_nonzero(np.isfinite(col))) for col in columns.values())
    # usually every measured value is one of params; only otherwise count them one by one
    if finite != sum(map(len, values)) and finite != sum(len(v.keys() & columns) for v in values):
        return None
    return columns


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
