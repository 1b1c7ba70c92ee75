"""Diagnosis by evidence combination, match categories against ground truth,
aggregate reports, and exact paired comparison between configurations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .belief import BeliefInterval, Frame, Mask, MassFunction
from .combine import combine_all
from .errors import CaseSetMismatchError, EvidenceError, NoEvidenceError, TotalConflictError
from .expert import is_vacuous
from .extract import BpaSet
from .records import CaseRecord, EvidenceItemId, ReferenceIntervals


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
    """The focal element the combined evidence points at.

    Highest mass wins; ties fall to higher belief, then fewer outcomes, then
    the smallest mask, so the choice is deterministic.
    """
    best_mass = max(v for _, v in m.items())
    candidates = [mask for mask, v in m.items() if v == best_mass]
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=lambda mask: (-m.belief(mask), mask.bit_count(), mask))


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
    """
    dropped = set(drop_params)
    found: list[tuple[EvidenceItemId, MassFunction]] = []
    for param in sorted(case.values):
        if param in dropped or param not in intervals:
            continue
        item = EvidenceItemId(param, intervals.region(param, case.values[param]))
        m = bpa.entries.get(item)
        if m is not None:
            found.append((item, m))
    if not found:
        raise NoEvidenceError(case.case_id)
    informative = [(item, m) for item, m in found if not is_vacuous(m)]
    if informative:
        try:
            result = combine_all([m for _, m in informative])
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
    mask = observed_set(combined)
    return DiagnosisResult(
        case_id=case.case_id,
        observed=mask,
        observed_labels=bpa.frame.labels_of(mask),
        observed_mass=combined.mass(mask),
        conflict=conflict,
        intervals=tuple(combined.interval(bit) for bit in bpa.frame.singleton_masks()),
        evidence_used=tuple(item for item, _ in informative),
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
class CaseTrace:
    case_id: str
    expected: str
    category: MatchCategory
    observed_labels: tuple[str, ...]
    observed_mass: float
    conflict: float
    intervals: tuple[BeliefInterval, ...]
    evidence_used: tuple[EvidenceItemId, ...]


@dataclass(frozen=True)
class EvaluationReport:
    """Aggregate accuracy of one configuration over a test set.

    Cases that could not be diagnosed are listed under errors and excluded
    from the percentage base.
    """

    label: str
    frame: Frame
    total_cases: int
    counts: dict[MatchCategory, int]
    traces: tuple[CaseTrace, ...]
    errors: tuple[tuple[str, str], ...]

    @property
    def evaluated(self) -> int:
        return sum(self.counts.values())

    @property
    def percentages(self) -> dict[MatchCategory, float] | None:
        base = self.evaluated
        if base == 0:
            return None
        return {cat: 100.0 * self.counts[cat] / base for cat in CATEGORIES}


def evaluate_set(
    test_cases: Sequence[CaseRecord],
    bpa: BpaSet,
    intervals: ReferenceIntervals,
    drop_params: Iterable[str] = (),
    label: str = "",
) -> EvaluationReport:
    """Diagnose every case and tally match categories against the truth."""
    test_cases = list(test_cases)
    drop_params = frozenset(drop_params)
    counts = {cat: 0 for cat in CATEGORIES}
    traces: list[CaseTrace] = []
    errors: list[tuple[str, str]] = []
    for case in test_cases:
        try:
            result = diagnose_case(case, bpa, intervals, drop_params)
            category = classify_match(result.observed, case.outcome, bpa.frame)
        except CASE_ERRORS as exc:
            errors.append((case.case_id, str(exc)))
            continue
        counts[category] += 1
        traces.append(
            CaseTrace(
                case_id=result.case_id,
                expected=case.outcome,
                category=category,
                observed_labels=result.observed_labels,
                observed_mass=result.observed_mass,
                conflict=result.conflict,
                intervals=result.intervals,
                evidence_used=result.evidence_used,
            )
        )
    return EvaluationReport(
        label=label or bpa.label(),
        frame=bpa.frame,
        total_cases=len(test_cases),
        counts=counts,
        traces=tuple(traces),
        errors=tuple(errors),
    )


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

    @property
    def discordant(self) -> int:
        return self.pm_only_a + self.pm_only_b


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


def compare_methods(
    report_a: EvaluationReport,
    report_b: EvaluationReport,
    paired: Mapping[str, tuple[str, str]] | None = None,
    alpha: float = 0.05,
) -> ComparisonVerdict:
    """Exact McNemar test on paired precise-match-or-not outcomes.

    paired overrides the pairing source: case id -> (category under A,
    category under B). By default the reports' own traces are paired by case
    id, which requires both reports to have evaluated exactly the same cases.
    A comparison with zero discordant pairs is flagged degenerate and never
    significant.
    """
    if paired is None:
        cats_a = {t.case_id: t.category for t in report_a.traces}
        cats_b = {t.case_id: t.category for t in report_b.traces}
        if set(cats_a) != set(cats_b):
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
