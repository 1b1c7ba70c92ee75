"""Diagnosis by evidence combination, match categories against ground truth,
aggregate reports, and exact paired comparison between configurations.

A CaseTrace is a DiagnosisResult plus the truth and its match category, and a
report's tallies are computed from its traces and errors."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .belief import BeliefInterval, Frame, Mask, MassFunction
from .combine import combine_all
from .errors import CaseSetMismatchError, EvidenceError, NoEvidenceError, TotalConflictError
from .extract import BpaSet
from .records import CaseRecord, EvidenceItemId, ReferenceIntervals, discretize


class MatchCategory(str, Enum):
    PM = "PM"  # observed set is exactly the true singleton
    IM = "IM"  # true outcome sits inside a larger observed set
    NM = "NM"  # true outcome missing from the observed set


CATEGORIES = (MatchCategory.PM, MatchCategory.IM, MatchCategory.NM)

# What one bad case can raise: a domain error, or the ValueError of an outcome
# label outside the frame or a non-finite value. It is reported, never fatal.
CASE_ERRORS = (EvidenceError, ValueError)


@dataclass(frozen=True)
class DiagnosisResult:
    case_id: str
    observed: Mask
    observed_labels: tuple[str, ...]
    observed_mass: float
    conflict: float
    intervals: tuple[BeliefInterval, ...]  # one per frame label, frame order
    evidence_used: tuple[EvidenceItemId, ...]


def observed_set(m: MassFunction) -> Mask:
    """The focal element the combined evidence points at; see
    MassFunction.observed for the tie rule."""
    return m.observed()[0]


def diagnose_case(
    case: CaseRecord,
    bpa: BpaSet,
    intervals: ReferenceIntervals,
    drop_params: Iterable[str] = (),
) -> DiagnosisResult:
    """Discretize, look up, and combine the case's evidence.

    Parameters that are missing, dropped, lack a reference interval, or have
    no entry for their observed region are skipped. Vacuous entries are
    identities under combination and are skipped too; a case whose matched
    entries are all vacuous still yields a result (full ignorance). Raises
    NoEvidenceError when nothing matched at all, and re-raises total conflict
    tagged with the case id.

    Entries are read from the set's evidence index (BpaSet._index), which has
    decided each entry's vacuity once. combine_all keeps each sparse fold
    step as a node on its left operand and each whole sparse fold, as its
    one CombinationResult, on its first operand: a case that shares a prefix
    of informative evidence with an earlier case combines only the rest,
    and one that repeats it gets that result back for one dict lookup. The
    combined mass function caches its observed focus and singleton
    intervals, so the case reuses both too.
    """
    dropped = frozenset(drop_params)
    index = bpa._index
    reference = intervals.bounds
    values = case.values
    matched = False
    used: list[EvidenceItemId] = []
    informative: list[MassFunction] = []
    for param in sorted(values):
        bounds = reference.get(param)
        if bounds is None or param in dropped:
            continue
        region = discretize(values[param], bounds)
        regions = index.get(param)
        hit = regions.get(region) if regions else None
        if hit is None:
            continue
        matched = True
        item, m = hit
        if m is not None:
            used.append(item)
            informative.append(m)
    if not matched:
        raise NoEvidenceError(case.case_id)
    if informative:
        try:
            result = combine_all(informative)
        except TotalConflictError as exc:
            raise TotalConflictError(
                f"case {case.case_id!r}: {exc}",
                conflict=exc.conflict,
                step=exc.step,
                case_id=case.case_id,
            ) from exc
        combined, conflict = result.combined, result.conflict
    else:
        combined, conflict = MassFunction.vacuous(bpa.frame), 0.0
    observed, observed_labels, observed_mass = combined.observed()
    return DiagnosisResult(
        case_id=case.case_id,
        observed=observed,
        observed_labels=observed_labels,
        observed_mass=observed_mass,
        conflict=conflict,
        intervals=combined.singleton_intervals(),
        evidence_used=tuple(used),
    )


def classify_match(observed: Mask, expected: str, frame: Frame) -> MatchCategory:
    """Precise when the observed set is exactly the true singleton, imprecise
    when the truth sits in a larger observed set, non-match otherwise."""
    bit = frame.bit(expected)
    observed = frame.check_mask(observed)
    if observed == bit:
        return MatchCategory.PM
    if observed & bit:
        return MatchCategory.IM
    return MatchCategory.NM


@dataclass(frozen=True)
class CaseTrace(DiagnosisResult):
    """One scored case: its diagnosis, the true outcome, and the category."""

    expected: str
    category: MatchCategory


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate accuracy of one configuration over a test set.

    Cases that could not be diagnosed are listed under errors and excluded
    from the percentage base. Every tally is derived from traces and errors.
    """

    label: str
    frame: Frame
    traces: tuple[CaseTrace, ...]
    errors: tuple[tuple[str, str], ...]

    @property
    def total_cases(self) -> int:
        return len(self.traces) + len(self.errors)

    @property
    def evaluated(self) -> int:
        return len(self.traces)

    @property
    def counts(self) -> dict[MatchCategory, int]:
        tally = Counter(trace.category for trace in self.traces)
        return {cat: tally[cat] for cat in CATEGORIES}

    @property
    def percentages(self) -> dict[MatchCategory, float] | None:
        counts, base = self.counts, self.evaluated
        return {cat: 100.0 * counts[cat] / base for cat in CATEGORIES} if base else None


def evaluate_set(
    test_cases: Sequence[CaseRecord],
    bpa: BpaSet,
    intervals: ReferenceIntervals,
    drop_params: Iterable[str] = (),
) -> EvaluationReport:
    """Diagnose every case and score it against the truth."""
    drop_params = frozenset(drop_params)
    traces: list[CaseTrace] = []
    errors: list[tuple[str, str]] = []
    for case in test_cases:
        try:
            result = diagnose_case(case, bpa, intervals, drop_params)
            category = classify_match(result.observed, case.outcome, bpa.frame)
        except CASE_ERRORS as exc:
            errors.append((case.case_id, str(exc)))
            continue
        traces.append(CaseTrace(**vars(result), expected=case.outcome, category=category))
    return EvaluationReport(bpa.label(), bpa.frame, tuple(traces), tuple(errors))


@dataclass(frozen=True)
class ComparisonVerdict:
    """Exact McNemar verdict on paired precise-match indicators."""

    label_a: str
    label_b: str
    pm_only_a: int
    pm_only_b: int
    p_value: float
    alpha: float
    significant: bool
    degenerate: bool


def mcnemar_exact_p(b: int, c: int) -> float:
    """Two-sided exact McNemar p-value from the discordant-pair counts.

    Doubles the binomial(n=b+c, 1/2) tail at max(b, c), capped at 1. With no
    discordant pairs the test carries no information and returns 1.
    """
    if b < 0 or c < 0:
        raise ValueError("discordant counts must be non-negative")
    n = b + c
    if n == 0:
        return 1.0
    k = max(b, c)
    tail = sum(math.comb(n, i) for i in range(k, n + 1))
    return float(min(Fraction(2 * tail, 2**n), Fraction(1)))


def _listed_categories(report: EvaluationReport) -> dict[str, MatchCategory | None]:
    """Category of every case the report lists; None for an errored case."""
    cats: dict[str, MatchCategory | None] = dict.fromkeys(cid for cid, _ in report.errors)
    cats.update((t.case_id, t.category) for t in report.traces)
    return cats


def compare_methods(
    report_a: EvaluationReport,
    report_b: EvaluationReport,
    paired: Mapping[str, tuple[str, str]] | None = None,
    alpha: float = 0.05,
) -> ComparisonVerdict:
    """Exact McNemar test on paired precise-match-or-not outcomes.

    By default every case id that either report lists, under its traces or
    its errors, is paired by id. A case a report lists as an error counts as
    not PM under that report, so a method is charged for the cases it failed
    to diagnose. Both reports must list the same case ids; a case absent
    from one of them entirely raises CaseSetMismatchError. paired overrides
    this: case id -> (category under A, category under B). A comparison with
    zero discordant pairs is flagged degenerate and never significant.
    Raises ValueError unless 0 < alpha < 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if paired is None:
        cats_a, cats_b = _listed_categories(report_a), _listed_categories(report_b)
        if cats_a.keys() != cats_b.keys():
            raise CaseSetMismatchError("reports cover different case sets")
        paired = {cid: (cats_a[cid], cats_b[cid]) for cid in cats_a}
    b = sum(1 for ca, cb in paired.values() if ca == MatchCategory.PM and cb != MatchCategory.PM)
    c = sum(1 for ca, cb in paired.values() if cb == MatchCategory.PM and ca != MatchCategory.PM)
    p = mcnemar_exact_p(b, c)
    degenerate = (b + c) == 0
    return ComparisonVerdict(
        label_a=report_a.label,
        label_b=report_b.label,
        pm_only_a=b,
        pm_only_b=c,
        p_value=p,
        alpha=alpha,
        significant=(not degenerate) and p < alpha,
        degenerate=degenerate,
    )
