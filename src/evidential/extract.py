"""Conditional frequency tables from case data, and the three ways to turn a
frequency vector into a mass function.

* method1_consonant ranks outcomes by descending frequency and weights each
  top-j prefix by the frequency drop after it, scaled by the top frequency.
  The foci form a nested chain, and outcomes that never occur stay out of
  every focus (their plausibility is zero by construction).
* method2 hunts for one dominant focus: the top singleton when its share
  exceeds 0.5, otherwise the shortest descending prefix pushing past 0.5,
  absorbing any singletons tied with the last one added. The leftover share
  goes either to the remaining positive-share outcomes as one set
  ("complement") or to the whole frame ("theta").
* method3 scores every subset by its summed member shares and normalizes,
  globally or per cardinality, after pinning the whole-frame score to 0 or 1.
  Dense by construction: up to 2^n - 1 foci.

Counts are kept as exact integers and divided only when a frequency vector is
read, so normalization checks never see accumulated rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import lattice
from .belief import Frame, Mask, MassFunction
from .combine import DENSE_MAX_OUTCOMES
from .errors import DataFormatError, FrameMismatchError
from .records import CaseRecord, EvidenceItemId, ReferenceIntervals, Region

METHODS = ("1", "2a", "2b", "3")
M3_NORMS = ("global", "size")
M3_THETAS = ("one", "zero")
# method-3 variant name, such as "size-zero", -> its (norm, theta) pair
M3_VARIANTS = {f"{norm}-{theta}": (norm, theta) for norm in M3_NORMS for theta in M3_THETAS}
M3_DEFAULT_VARIANT = "global-one"


@dataclass(frozen=True)
class FrequencyEntry:
    """Per-outcome counts for one evidence item."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")
        if sum(self.counts) == 0:
            raise ValueError("an entry needs at least one observation")

    @property
    def support(self) -> int:
        """Number of cases exhibiting the item."""
        return sum(self.counts)

    @property
    def freq(self) -> tuple[float, ...]:
        """Conditional outcome distribution given the item."""
        support = self.support
        return tuple(c / support for c in self.counts)


@dataclass(frozen=True)
class FrequencyTable:
    """Outcome counts per evidence item, all over one frame."""

    frame: Frame
    entries: dict[EvidenceItemId, FrequencyEntry]


def build_frequency_table(
    cases: Iterable[CaseRecord],
    intervals: ReferenceIntervals,
    frame: Frame,
) -> FrequencyTable:
    """Count outcomes per (parameter, region) item over all measured values.

    Missing measurements contribute to no item. Every measured parameter must
    have a reference interval and every case outcome must be a frame label.
    """
    counts: dict[EvidenceItemId, list[int]] = {}
    for case in cases:
        outcome_idx = frame.index(case.outcome)
        for param, value in case.values.items():
            item = EvidenceItemId(param, intervals.region(param, value))
            row = counts.get(item)
            if row is None:
                row = counts[item] = [0] * frame.n
            row[outcome_idx] += 1
    entries = {item: FrequencyEntry(tuple(row)) for item, row in sorted(counts.items())}
    return FrequencyTable(frame, entries)


def _proportions(freq: Sequence[float], n: int) -> list[float]:
    """Validate a frequency vector and rescale it to proportions of its sum."""
    values = [float(x) for x in freq]
    if len(values) != n:
        raise ValueError(f"frequency vector has {len(values)} entries for a {n}-outcome frame")
    if any(not math.isfinite(x) or x < 0.0 for x in values):
        raise ValueError("frequencies must be finite and non-negative")
    total = math.fsum(values)
    if total <= 0.0:
        raise ValueError("frequency vector has no positive entries")
    # keep already-normalized vectors verbatim so exact ties and exact-0.5
    # comparisons on count ratios survive
    if abs(total - 1.0) > 1e-12:
        values = [x / total for x in values]
    return values


def method1_consonant(frame: Frame, freq: Sequence[float]) -> MassFunction:
    """Consonant mass function from a frequency vector.

    Outcomes are ranked by descending frequency, ties by frame order. The
    prefix of the top j outcomes gets mass (f_j - f_{j+1}) / f_1, with the
    final positive-frequency prefix getting f_last / f_1. Equal neighbours
    contribute zero and are dropped, so ties cost nothing. The last focus is
    the whole frame exactly when every outcome occurs.
    """
    values = _proportions(freq, frame.n)
    ranked = [i for i in sorted(range(frame.n), key=lambda i: (-values[i], i)) if values[i] > 0]
    top = values[ranked[0]]
    masses: dict[Mask, float] = {}
    prefix = 0
    for j, i in enumerate(ranked):
        prefix |= 1 << i
        nxt = values[ranked[j + 1]] if j + 1 < len(ranked) else 0.0
        share = (values[i] - nxt) / top
        if share > 0.0:
            masses[prefix] = share
    return MassFunction(frame, masses)


def method2(frame: Frame, freq: Sequence[float], remainder: str) -> MassFunction:
    """One dominant focus plus a remainder.

    Focus B is the top singleton when its share exceeds 0.5; otherwise
    singletons accumulate into B in descending order until the total passes
    0.5, then any further singletons tied with the last one added are
    absorbed too. remainder="complement" sends the leftover share to the set
    of remaining positive-share outcomes (when that set is empty, B already
    carries everything and ends at mass 1); remainder="theta" sends it to the
    whole frame.
    """
    if remainder not in ("complement", "theta"):
        raise ValueError(f"remainder must be 'complement' or 'theta', got {remainder!r}")
    values = _proportions(freq, frame.n)
    order = sorted(range(frame.n), key=lambda i: (-values[i], i))
    b_mask = 1 << order[0]
    b_val = values[order[0]]
    pos = 1
    if b_val <= 0.5:
        while b_val <= 0.5:
            i = order[pos]
            b_mask |= 1 << i
            b_val += values[i]
            pos += 1
        last = values[order[pos - 1]]
        while pos < frame.n and values[order[pos]] == last:
            b_mask |= 1 << order[pos]
            b_val += values[order[pos]]
            pos += 1
    masses: dict[Mask, float] = {b_mask: b_val}
    if remainder == "theta":
        leftover = 1.0 - b_val
        if leftover > 0.0:
            theta = frame.full_mask
            masses[theta] = masses.get(theta, 0.0) + leftover
    else:
        c_mask = 0
        c_val = 0.0
        for i in order[pos:]:
            if values[i] > 0.0:
                c_mask |= 1 << i
                c_val += values[i]
        if c_mask:
            masses[c_mask] = c_val
    return MassFunction(frame, masses)


def method3(frame: Frame, freq: Sequence[float], norm: str = "global", theta: str = "one") -> MassFunction:
    """Mass spread over every subset from summed member shares.

    Every non-empty subset scores the sum of its members' shares, except the
    whole frame whose score is pinned to 1 (theta="one") or 0 (theta="zero")
    first. norm="global" divides every score by the grand total, which keeps
    singleton mass ratios equal to frequency ratios. norm="size" normalizes
    scores within each cardinality to sum 1, then splits evenly across the
    cardinalities that scored anything.
    """
    if norm not in M3_NORMS:
        raise ValueError(f"norm must be one of {M3_NORMS}, got {norm!r}")
    if theta not in M3_THETAS:
        raise ValueError(f"theta must be one of {M3_THETAS}, got {theta!r}")
    n = frame.n
    if n > DENSE_MAX_OUTCOMES:
        raise ValueError(f"dense subset scoring supports at most {DENSE_MAX_OUTCOMES} outcomes, got {n}")
    values = _proportions(freq, n)
    size = 1 << n
    raw = np.zeros(size)
    for i, v in enumerate(values):
        raw[1 << i] = v
    lattice.subset_sum(raw, n)
    raw[size - 1] = 1.0 if theta == "one" else 0.0
    masses: dict[Mask, float] = {}
    if norm == "global":
        total = math.fsum(raw[1:])
        if total <= 0.0:
            raise ValueError("every subset scored zero; nothing to normalize")
        for mask in range(1, size):
            if raw[mask] > 0.0:
                masses[mask] = raw[mask] / total
    else:
        strata: list[list[float]] = [[] for _ in range(n + 1)]
        for mask in range(1, size):
            strata[mask.bit_count()].append(raw[mask])
        stratum_total = [math.fsum(vals) for vals in strata]
        active = sum(1 for t in stratum_total if t > 0.0)
        if active == 0:
            raise ValueError("every subset scored zero; nothing to normalize")
        for mask in range(1, size):
            if raw[mask] > 0.0:
                masses[mask] = raw[mask] / (stratum_total[mask.bit_count()] * active)
    return MassFunction(frame, masses)


@dataclass
class BpaSet:
    """Mass functions keyed by evidence item, all over one frame."""

    frame: Frame
    entries: dict[EvidenceItemId, MassFunction]
    method: str = ""
    variant: str = ""
    comments: dict[EvidenceItemId, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for item, m in self.entries.items():
            if m.frame != self.frame:
                raise FrameMismatchError(f"entry {item} uses a different frame")

    def label(self) -> str:
        """Short descriptor for reports."""
        base = self.method or "bpa"
        return f"{base}({self.variant})" if self.variant else base

    def to_dict(self) -> dict:
        doc: dict = {"method": self.method}
        if self.variant:
            doc["variant"] = self.variant
        doc["frame"] = list(self.frame.labels)
        items = []
        for item in sorted(self.entries):
            entry: dict = {
                "parameter": item.parameter,
                "class": item.region.value,
                "focal": self.entries[item].to_dict()["focal"],
            }
            comment = self.comments.get(item)
            if comment:
                entry["comment"] = comment
            items.append(entry)
        doc["items"] = items
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "BpaSet":
        frame = Frame(tuple(doc["frame"]))
        entries: dict[EvidenceItemId, MassFunction] = {}
        comments: dict[EvidenceItemId, str] = {}
        for raw in doc["items"]:
            item = EvidenceItemId(raw["parameter"], Region(raw["class"]))
            if item in entries:
                raise DataFormatError(f"duplicate evidence item {item}")
            entries[item] = MassFunction.from_dict(
                {"frame": doc["frame"], "focal": raw["focal"]}, frame=frame
            )
            if raw.get("comment"):
                comments[item] = raw["comment"]
        return cls(
            frame,
            entries,
            method=doc.get("method", ""),
            variant=doc.get("variant", ""),
            comments=comments,
        )


def extract_bpas(
    table: FrequencyTable,
    method: str,
    *,
    m3_norm: str = "global",
    m3_theta: str = "one",
    min_support: int = 1,
) -> BpaSet:
    """Run one extraction method over every table entry with enough support.

    Entries whose support falls below min_support are suppressed (the default
    floor of 1 keeps everything).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    entries: dict[EvidenceItemId, MassFunction] = {}
    for item in sorted(table.entries):
        entry = table.entries[item]
        if entry.support < min_support:
            continue
        f = entry.freq
        if method == "1":
            m = method1_consonant(table.frame, f)
        elif method == "2a":
            m = method2(table.frame, f, "complement")
        elif method == "2b":
            m = method2(table.frame, f, "theta")
        else:
            m = method3(table.frame, f, m3_norm, m3_theta)
        entries[item] = m
    variant = f"{m3_norm}-{m3_theta}" if method == "3" else ""
    return BpaSet(table.frame, entries, method=method, variant=variant)
