"""Conditional frequency tables from case data, and the three ways to turn a
frequency vector into a mass function.

* method1_consonant (`--method 1`) ranks outcomes by descending frequency
  and weights each top-j prefix by the frequency drop after it, scaled by the
  top frequency. The foci form a nested chain, and outcomes that never occur
  stay out of every focus (their plausibility is zero by construction).
* method2 (`--method 2a` and `2b`) hunts for one dominant focus: the top
  singleton when its share exceeds 0.5, otherwise the shortest descending
  prefix pushing past 0.5, absorbing any singletons tied with the last one
  added. The leftover share goes either to the remaining positive-share
  outcomes as one set ("complement", 2a) or to the whole frame ("theta", 2b).
* method3 (`--method 3`) scores every subset by its summed member shares,
  pins the whole-frame score to 1 or 0, and normalizes globally or per
  cardinality: `--m3-variant` global-one (the default), global-zero,
  size-one or size-zero. Dense by construction: up to 2^n - 1 foci.

Counts are kept as exact integers and divided only when a frequency vector is
read, so normalization checks never see accumulated rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

from . import lattice
from .belief import Frame, Mask, MassFunction, is_vacuous
from .errors import DataFormatError, FrameMismatchError
from .records import CaseRecord, EvidenceItemId, ReferenceIntervals, Region, value_columns

# --m3-variant name -> method 3's (normalisation, whole-frame score)
_M3_PARAMS = {"global-one": ("global", 1.0), "global-zero": ("global", 0.0),
              "size-one": ("size", 1.0), "size-zero": ("size", 0.0)}
M3_VARIANTS = tuple(_M3_PARAMS)
M3_DEFAULT_VARIANT = "global-one"
# Most focal elements, summed over entries, that a method-3 BPA set may have.
# A focus costs about 1 KB of peak memory through extraction, the BPA-set
# JSON and its reload (577k foci on 14 outcomes peak near 620 MB), so the
# budget keeps a pipeline near 1 GB.
M3_MAX_FOCI = 1 << 20


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
    """Outcome counts per evidence item, all over one frame. Immutable:
    entries is a read-only view of a copy taken at construction."""

    frame: Frame
    entries: Mapping[EvidenceItemId, FrequencyEntry]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))


_REGION_OF_CODE = (Region.BELOW, Region.WITHIN, Region.ABOVE)


def build_frequency_table(
    cases: Iterable[CaseRecord],
    intervals: ReferenceIntervals,
    frame: Frame,
) -> FrequencyTable:
    """Count outcomes per (parameter, region) item over all measured values.

    Missing measurements contribute to no item. Every measured parameter must
    have a reference interval, every measured value must be finite and every
    case outcome must be a frame label; the first case that breaks a rule
    raises its ValueError, as ReferenceIntervals.region and Frame.index word
    it. cases may be any iterable and is read once.

    Counting is column-wise: each measured parameter's values form one
    float64 column (records.value_columns), whose region codes
    (x >= low) + (x > high), 0 below, 1 within and 2 above, are counted
    against the outcome codes by one np.bincount. Counts are integers, so
    the table does not depend on the order of counting.
    """
    cases = list(cases)
    outcome_of = frame._index
    outcomes = [outcome_of.get(case.outcome, -1) for case in cases]
    params = set().union(*(case.values for case in cases))
    columns = value_columns(cases, params)
    if columns is None or -1 in outcomes or not params <= intervals.bounds.keys():
        _refuse_first(cases, intervals, frame)
    outcome_codes = np.array(outcomes, dtype=np.intp)
    n = frame.n
    entries = {}
    for param, x in columns.items():
        low, high = intervals.bounds[param]
        measured = ~np.isnan(x)
        x = x[measured]
        codes = ((x >= low).astype(np.intp) + (x > high)) * n + outcome_codes[measured]
        rows = np.bincount(codes, minlength=3 * n).reshape(3, n).tolist()
        for region, row in zip(_REGION_OF_CODE, rows):
            if any(row):
                entries[EvidenceItemId(param, region)] = FrequencyEntry(tuple(row))
    return FrequencyTable(frame, dict(sorted(entries.items())))


def _refuse_first(cases: list[CaseRecord], intervals: ReferenceIntervals, frame: Frame) -> NoReturn:
    """Raise the error of the first case, in case order, that has an unknown
    outcome, a parameter without an interval or a non-finite value."""
    for case in cases:
        frame.index(case.outcome)
        for param, value in case.values.items():
            intervals.region(param, value)
    raise AssertionError("no case breaks a rule")


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


def method3(frame: Frame, freq: Sequence[float], variant: str = M3_DEFAULT_VARIANT) -> MassFunction:
    """Mass spread over every subset from summed member shares.

    Every non-empty subset scores the sum of its members' shares, except the
    whole frame whose score is pinned to 1 ("-one" variants) or 0 ("-zero")
    first. "global-" variants divide every score by the grand total, which
    keeps singleton mass ratios equal to frequency ratios. "size-" variants
    normalize scores within each cardinality to sum 1, then split evenly
    across the cardinalities that scored anything.
    """
    check_method("3", variant)
    norm, theta_score = _M3_PARAMS[variant]
    n = frame.n
    if n > lattice.DENSE_MAX_OUTCOMES:
        raise ValueError(
            f"dense subset scoring supports at most {lattice.DENSE_MAX_OUTCOMES} outcomes, got {n}"
        )
    values = _proportions(freq, n)
    size = 1 << n
    raw = np.zeros(size)
    raw[1 << np.arange(n)] = values
    lattice.subset_sum(raw, n)
    raw[size - 1] = theta_score
    total = math.fsum(raw[1:])
    if total <= 0.0:
        raise ValueError("every subset scored zero; nothing to normalize")
    kept = np.flatnonzero(raw > 0.0)  # raw[0], the empty set, scores 0
    if norm == "global":
        quotients = raw[kept] / total
    else:
        size_of = np.zeros(size, dtype=np.intp)  # member count, by doubling
        for k in range(n):
            size_of[1 << k: 2 << k] = size_of[: 1 << k] + 1
        stratum_total = np.array([math.fsum(raw[size_of == k]) for k in range(n + 1)])
        active = np.count_nonzero(stratum_total > 0.0)
        quotients = raw[kept] / (stratum_total[size_of[kept]] * active)
    masses = dict(zip(kept.tolist(), quotients.tolist()))
    return MassFunction(frame, masses)


# --method name -> its builder from (frame, frequency vector, method-3 variant)
_BUILDERS = {
    "1": lambda frame, freq, variant: method1_consonant(frame, freq),
    "2a": lambda frame, freq, variant: method2(frame, freq, "complement"),
    "2b": lambda frame, freq, variant: method2(frame, freq, "theta"),
    "3": method3,
}
METHODS = tuple(_BUILDERS)


def check_method(method: str, m3_variant: str) -> None:
    """A method and a method-3 variant are keys of the two tables above."""
    if method not in _BUILDERS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if m3_variant not in _M3_PARAMS:
        raise ValueError(f"m3_variant must be one of {M3_VARIANTS}, got {m3_variant!r}")


@dataclass(frozen=True)
class BpaSet:
    """Mass functions keyed by evidence item, all over one frame.

    Immutable: entries and comments are read-only views of private copies of
    the mappings passed in, so the evidence index built from them never goes
    stale.
    """

    frame: Frame
    entries: Mapping[EvidenceItemId, MassFunction]
    method: str = ""
    variant: str = ""
    comments: Mapping[EvidenceItemId, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for item, m in self.entries.items():
            if m.frame != self.frame:
                raise FrameMismatchError(f"entry {item} uses a different frame")
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "comments", MappingProxyType(dict(self.comments)))

    @cached_property
    def _index(self) -> dict[str, dict[Region, tuple[EvidenceItemId, MassFunction | None]]]:
        """The entries by parameter, then region, built on first use and kept;
        read by evaluate.diagnose_case.

        Each value is (item, mass function), with None in place of a vacuous
        mass function: it is the identity of Dempster's rule, so a diagnosis
        counts it as a match but combines nothing. Vacuity is decided here,
        once per entry, not once per case.
        """
        index: dict = {}
        for item, m in self.entries.items():
            index.setdefault(item.parameter, {})[item.region] = (
                item, None if is_vacuous(m) else m
            )
        return index

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


def check_min_support(min_support: int) -> None:
    """Every table entry has at least one observation, so a floor below 1 is a mistake."""
    if min_support < 1:
        raise ValueError("min_support must be at least 1")


def extract_bpas(
    table: FrequencyTable,
    method: str,
    *,
    m3_variant: str = M3_DEFAULT_VARIANT,
    min_support: int = 1,
) -> BpaSet:
    """Run one extraction method over every table entry with enough support.

    Entries whose support falls below min_support are suppressed (the default
    floor of 1 keeps everything). Only a method-3 BPA set records m3_variant.
    Method 3 may give an entry every non-empty subset as a focus, so a set
    whose bound, entries * (2^n - 1), exceeds M3_MAX_FOCI is refused with
    ValueError before any entry is built.
    """
    check_method(method, m3_variant)
    check_min_support(min_support)
    kept = [(item, entry) for item, entry in sorted(table.entries.items())
            if entry.support >= min_support]
    if method == "3":
        per_entry = (1 << table.frame.n) - 1
        if len(kept) * per_entry > M3_MAX_FOCI:
            raise ValueError(
                f"method 3 over {len(kept)} entries on a {table.frame.n}-outcome frame may "
                f"build {len(kept) * per_entry} focal elements, over the budget of {M3_MAX_FOCI}"
            )
    entries = {item: _BUILDERS[method](table.frame, entry.freq, m3_variant) for item, entry in kept}
    variant = m3_variant if method == "3" else ""
    return BpaSet(table.frame, entries, method=method, variant=variant)
