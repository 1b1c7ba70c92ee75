import functools
import math
import sys
import threading
from fractions import Fraction

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import combine, evaluate, extract, formats
from evidential.belief import Frame, MassFunction
from evidential.errors import CaseSetMismatchError, NoEvidenceError, TotalConflictError
from evidential.evaluate import (
    CaseTrace,
    EvaluationReport,
    MatchCategory,
    classify_match,
    compare_methods,
    diagnose_case,
    evaluate_set,
    mcnemar_exact_p,
    observed_set,
)
from evidential.extract import BpaSet
from evidential.records import CaseRecord, EvidenceItemId, Region, ReferenceIntervals

from helpers import diagnose_case_reference, frame_of, masses_on, synthetic_2b

ABC = Frame(("a", "b", "c"))
INTERVALS = ReferenceIntervals({"P1": (10.0, 20.0), "P2": (10.0, 20.0)})


def bpa_with(entries):
    return BpaSet(ABC, entries, method="test")


def simple(labels, s):
    return MassFunction.from_labels(ABC, {tuple(labels): s, ABC.labels: 1.0 - s})


class TestObservedSet:
    def test_max_mass_wins(self):
        m = MassFunction.from_labels(ABC, {("a",): 0.7, ("b",): 0.3})
        assert observed_set(m) == ABC.bit("a")

    def test_mass_tie_falls_to_belief(self):
        # {a} and {b,c} tie on mass; belief breaks it: Bel({b,c}) = 0.4 + 0.2
        m = MassFunction.from_labels(
            ABC, {("a",): 0.4, ("b", "c"): 0.4, ("b",): 0.2}
        )
        assert observed_set(m) == ABC.mask_of(["b", "c"])

    def test_belief_tie_falls_to_cardinality(self):
        m = MassFunction.from_labels(ABC, {("a",): 0.4, ("b", "c"): 0.4, ABC.labels: 0.2})
        assert observed_set(m) == ABC.bit("a")

    def test_cardinality_tie_falls_to_smallest_mask(self):
        m = MassFunction.from_labels(ABC, {("a",): 0.5, ("b",): 0.5})
        assert observed_set(m) == ABC.bit("a")


class TestDiagnoseCase:
    def test_single_evidence_item(self):
        bpa = bpa_with({EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.8)})
        case = CaseRecord("c1", "a", {"P1": 5.0})
        result = diagnose_case(case, bpa, INTERVALS)
        assert result.observed_labels == ("a",)
        interval = result.intervals[0]
        assert interval.lower == pytest.approx(0.8, abs=1e-12)
        assert interval.upper == 1.0

    def test_support_reinforcement(self):
        bpa = bpa_with(
            {
                EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.6),
                EvidenceItemId("P2", Region.ABOVE): simple(["a"], 0.5),
            }
        )
        case = CaseRecord("c1", "a", {"P1": 5.0, "P2": 25.0})
        result = diagnose_case(case, bpa, INTERVALS)
        assert result.observed_labels == ("a",)
        assert result.observed_mass == pytest.approx(0.8, abs=1e-12)
        assert len(result.evidence_used) == 2

    def test_all_missing_raises(self):
        bpa = bpa_with({EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.8)})
        with pytest.raises(NoEvidenceError):
            diagnose_case(CaseRecord("c1", "a", {}), bpa, INTERVALS)

    def test_unmatched_region_is_unknown(self):
        bpa = bpa_with({EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.8)})
        case = CaseRecord("c1", "a", {"P1": 25.0})  # above; only below is known
        with pytest.raises(NoEvidenceError):
            diagnose_case(case, bpa, INTERVALS)

    def test_dropped_parameter_excluded(self):
        bpa = bpa_with(
            {
                EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.8),
                EvidenceItemId("P2", Region.BELOW): simple(["b"], 0.8),
            }
        )
        case = CaseRecord("c1", "a", {"P1": 5.0, "P2": 5.0})
        result = diagnose_case(case, bpa, INTERVALS, drop_params={"P2"})
        assert result.observed_labels == ("a",)
        assert result.evidence_used == (EvidenceItemId("P1", Region.BELOW),)

    def test_all_vacuous_yields_full_ignorance(self):
        bpa = bpa_with({EvidenceItemId("P1", Region.BELOW): MassFunction.vacuous(ABC)})
        case = CaseRecord("c1", "a", {"P1": 5.0})
        result = diagnose_case(case, bpa, INTERVALS)
        assert result.observed == ABC.full_mask
        assert result.evidence_used == ()

    def test_total_conflict_tagged_with_case(self):
        bpa = bpa_with(
            {
                EvidenceItemId("P1", Region.BELOW): MassFunction.from_labels(ABC, {("a",): 1.0}),
                EvidenceItemId("P2", Region.BELOW): MassFunction.from_labels(ABC, {("b",): 1.0}),
            }
        )
        case = CaseRecord("c9", "a", {"P1": 5.0, "P2": 5.0})
        with pytest.raises(TotalConflictError) as err:
            diagnose_case(case, bpa, INTERVALS)
        assert err.value.case_id == "c9"

    def test_parameter_order_does_not_matter(self):
        bpa = bpa_with(
            {
                EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.6),
                EvidenceItemId("P2", Region.ABOVE): simple(["a", "b"], 0.7),
            }
        )
        one = diagnose_case(CaseRecord("c1", "a", {"P1": 5.0, "P2": 25.0}), bpa, INTERVALS)
        two = diagnose_case(CaseRecord("c1", "a", {"P2": 25.0, "P1": 5.0}), bpa, INTERVALS)
        assert one == two

    def test_drop_params_any_iterable(self):
        bpa = bpa_with(
            {
                EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.8),
                EvidenceItemId("P2", Region.BELOW): simple(["b"], 0.8),
            }
        )
        case = CaseRecord("c1", "a", {"P1": 5.0, "P2": 5.0})
        expected = diagnose_case(case, bpa, INTERVALS, drop_params={"P2"})
        for drop in (["P2"], (p for p in ["P2"]), frozenset({"P2"})):
            assert diagnose_case(case, bpa, INTERVALS, drop_params=drop) == expected

    def test_drop_of_missing_parameter_changes_nothing(self):
        bpa = bpa_with({EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.8)})
        case = CaseRecord("c1", "a", {"P1": 5.0})
        assert diagnose_case(case, bpa, INTERVALS) == diagnose_case(
            case, bpa, INTERVALS, drop_params={"P2"}
        )


# P1-P4 have reference intervals, P5 has none.
_INDEX_PARAMS = ("P1", "P2", "P3", "P4", "P5")
_INDEX_INTERVALS = ReferenceIntervals({p: (10.0, 20.0) for p in _INDEX_PARAMS[:4]})
_VALUES = (5.0, 10.0, 15.0, 20.0, 25.0, math.nan, math.inf, -math.inf, None)


def _outcome(diagnose, case, bpa, drop):
    try:
        return diagnose(case, bpa, _INDEX_INTERVALS, drop())
    except (ValueError, NoEvidenceError, TotalConflictError) as exc:
        return type(exc), str(exc), vars(exc)


@st.composite
def _indexed_cases(draw):
    """A BPA set whose slots are absent, vacuous or informative, a case with
    missing, boundary and non-finite values, and a drop list of any iterable
    type."""
    frame = frame_of(draw(st.integers(1, 4)))
    entries = {}
    for param in _INDEX_PARAMS:
        if draw(st.booleans()):
            continue  # no entry for any region of this parameter
        for region in Region:
            kind = draw(st.sampled_from(("absent", "vacuous", "informative")))
            if kind == "vacuous":
                entries[EvidenceItemId(param, region)] = MassFunction.vacuous(frame)
            elif kind == "informative":
                entries[EvidenceItemId(param, region)] = draw(masses_on(frame, max_foci=3))
    values = {p: draw(st.sampled_from(_VALUES)) for p in _INDEX_PARAMS if draw(st.booleans())}
    dropped = draw(st.lists(st.sampled_from(_INDEX_PARAMS + ("P9",)), max_size=3))
    kind = draw(st.sampled_from((list, set, frozenset, iter)))
    return BpaSet(frame, entries), CaseRecord("c", frame.labels[0], values), lambda: kind(dropped)


class TestEvidenceIndex:
    @settings(max_examples=400, deadline=None)
    @given(_indexed_cases())
    def test_same_results_and_errors_as_per_item_loop(self, drawn):
        bpa, case, drop = drawn
        expected = _outcome(diagnose_case_reference, case, bpa, drop)
        assert _outcome(diagnose_case, case, bpa, drop) == expected
        # again, with the index built and the observed focus cached
        assert _outcome(diagnose_case, case, bpa, drop) == expected

    def test_non_finite_value_checked_before_lookup(self):
        bpa = bpa_with({EvidenceItemId("P1", Region.BELOW): simple(["a"], 0.8)})
        # P4 has an interval but no entry at all, yet its value is discretized
        with pytest.raises(ValueError, match="non-finite"):
            diagnose_case(CaseRecord("c1", "a", {"P1": 5.0, "P4": math.inf}), bpa, _INDEX_INTERVALS)
        # P5 has no interval: skipped before its value is read
        case = CaseRecord("c2", "a", {"P1": 5.0, "P5": math.nan})
        result = diagnose_case(case, bpa, _INDEX_INTERVALS)
        assert result.evidence_used == (EvidenceItemId("P1", Region.BELOW),)

    def test_built_once_per_set(self, monkeypatch):
        decided = []
        inner = extract.is_vacuous
        monkeypatch.setattr(extract, "is_vacuous", lambda m: decided.append(m) or inner(m))
        doc, cases, intervals = synthetic_2b()
        bpa = BpaSet.from_dict(doc)
        evaluate_set(cases, bpa, intervals)
        evaluate_set(cases, bpa, intervals)
        assert len(decided) == len(bpa.entries)
        assert bpa._index is bpa._index

    def test_observed_set_runs_once_per_combined_result(self, monkeypatch):
        seen = []  # mass functions whose observed focus was computed, not read back
        inner = MassFunction.observed

        def spy(m):
            if m._observed is None:
                seen.append(m)
            return inner(m)

        monkeypatch.setattr(MassFunction, "observed", spy)
        doc, cases, intervals = synthetic_2b()
        bpa = BpaSet.from_dict(doc)
        first = evaluate_set(cases, bpa, intervals)
        assert seen and len({id(m) for m in seen}) == len(seen)
        assert len(seen) < first.evaluated  # some cases share a combined result
        calls = len(seen)
        assert evaluate_set(cases, bpa, intervals) == first
        assert len(seen) == calls

    def test_bpa_set_is_read_only(self):
        item = EvidenceItemId("P1", Region.BELOW)
        source = {item: simple(["a"], 0.8)}
        bpa = BpaSet(ABC, source, comments={item: "stated"})
        with pytest.raises(TypeError):
            bpa.entries[EvidenceItemId("P2", Region.BELOW)] = simple(["b"], 0.8)
        with pytest.raises(TypeError):
            del bpa.comments[item]
        with pytest.raises(dataclasses.FrozenInstanceError):
            bpa.entries = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            bpa._index = {}  # the index is private and never reassigned
        source.clear()  # the set keeps its own copy
        assert list(bpa.entries) == [item] and bpa._index["P1"][Region.BELOW][0] == item


class TestClassifyMatch:
    def test_precise(self):
        assert classify_match(ABC.bit("a"), "a", ABC) is MatchCategory.PM

    def test_imprecise(self):
        assert classify_match(ABC.mask_of(["a", "b"]), "a", ABC) is MatchCategory.IM

    def test_non_match(self):
        assert classify_match(ABC.mask_of(["b", "c"]), "a", ABC) is MatchCategory.NM

    def test_unknown_expected_label(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            classify_match(ABC.bit("a"), "z", ABC)

    def test_full_frame_always_imprecise(self):
        for label in ABC.labels:
            assert classify_match(ABC.full_mask, label, ABC) is MatchCategory.IM

    def test_pm_implies_singleton(self):
        for mask in range(1, ABC.full_mask + 1):
            for label in ABC.labels:
                if classify_match(mask, label, ABC) is MatchCategory.PM:
                    assert mask.bit_count() == 1


class TestEvaluateSet:
    def perfect_bpa(self):
        return bpa_with(
            {
                EvidenceItemId("P1", Region.BELOW): MassFunction.from_labels(ABC, {("a",): 1.0}),
                EvidenceItemId("P1", Region.WITHIN): MassFunction.from_labels(ABC, {("b",): 1.0}),
                EvidenceItemId("P1", Region.ABOVE): MassFunction.from_labels(ABC, {("c",): 1.0}),
            }
        )

    def test_perfect_discriminator(self):
        cases = [
            CaseRecord("c1", "a", {"P1": 5.0}),
            CaseRecord("c2", "b", {"P1": 15.0}),
            CaseRecord("c3", "c", {"P1": 25.0}),
        ]
        report = evaluate_set(cases, self.perfect_bpa(), INTERVALS)
        assert report.counts[MatchCategory.PM] == 3
        assert report.percentages[MatchCategory.PM] == 100.0

    def test_errors_excluded_from_base(self):
        cases = [
            CaseRecord("c1", "a", {"P1": 5.0}),
            CaseRecord("c2", "b", {}),  # no evidence
        ]
        report = evaluate_set(cases, self.perfect_bpa(), INTERVALS)
        assert report.total_cases == 2
        assert report.evaluated == 1
        assert len(report.errors) == 1
        assert report.percentages[MatchCategory.PM] == 100.0

    def test_zero_base_report(self):
        report = evaluate_set(
            [CaseRecord("c1", "a", {})], self.perfect_bpa(), INTERVALS
        )
        assert report.evaluated == 0
        assert report.percentages is None

    def test_percentages_sum_to_100(self):
        cases = [
            CaseRecord("c1", "a", {"P1": 5.0}),
            CaseRecord("c2", "b", {"P1": 5.0}),
            CaseRecord("c3", "c", {"P1": 15.0}),
        ]
        report = evaluate_set(cases, self.perfect_bpa(), INTERVALS)
        assert math.fsum(report.percentages.values()) == pytest.approx(100.0, abs=0.1)

    def test_exactly_one_category_per_case(self):
        cases = [CaseRecord(f"c{i}", "a", {"P1": 5.0}) for i in range(5)]
        report = evaluate_set(cases, self.perfect_bpa(), INTERVALS)
        assert report.evaluated == len(report.traces) == 5


def test_report_bytes_equal_on_fresh_and_warm_memo(tmp_path, monkeypatch):
    doc, cases, intervals = synthetic_2b()
    fresh_path, warm_path = tmp_path / "fresh.json", tmp_path / "warm.json"
    formats.write_report(evaluate_set(cases, BpaSet.from_dict(doc), intervals), fresh_path)
    calls = []
    for name in ("dempster_combine", "_shared_frame", "_prefer_dense"):
        inner = getattr(combine, name)
        monkeypatch.setattr(combine, name, functools.partial(_spy, calls, name, inner))
    warm = BpaSet.from_dict(doc)
    evaluate_set(cases, warm, intervals)
    assert {name for name, _ in calls} == {"dempster_combine", "_shared_frame", "_prefer_dense"}
    calls.clear()
    formats.write_report(evaluate_set(cases, warm, intervals), warm_path)
    assert warm_path.read_bytes() == fresh_path.read_bytes()
    # the warm run finds every whole fold in the memo: one lookup each, no
    # frame check, no path choice, nothing combined
    assert calls == []


def _spy(calls, name, inner, *args):
    calls.append((name, args))
    return inner(*args)


def test_shared_bpa_set_diagnoses_under_thread_races():
    doc, cases, intervals = synthetic_2b()
    expected = evaluate_set(cases, BpaSet.from_dict(doc), intervals)
    shared = BpaSet.from_dict(doc)
    reports = [None] * 6
    barrier = threading.Barrier(len(reports))

    def worker(slot):
        barrier.wait(timeout=10)
        reports[slot] = evaluate_set(cases, shared, intervals)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(reports))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(report == expected for report in reports)
    # each whole fold kept on an entry ends the chain of nodes that its key's
    # ids spell out from that entry, so each id it names is held there
    folds = 0
    for m in shared.entries.values():
        for key, result in m._combinations.items():
            if isinstance(key, int):
                continue
            assert key[1] == id(m)
            acc = m
            for i in key[2:]:
                right, acc, _ = acc._combinations[i]
                assert id(right) == i
            assert result.combined is acc
            folds += 1
    assert folds


class TestMcNemar:
    def test_exact_values_against_fraction_oracle(self):
        for b, c in [(0, 0), (1, 0), (3, 1), (10, 10), (20, 0), (7, 2), (15, 25)]:
            n = b + c
            if n == 0:
                expected = 1.0
            else:
                k = max(b, c)
                tail = sum(math.comb(n, i) for i in range(k, n + 1))
                expected = float(min(Fraction(2 * tail, 2**n), Fraction(1)))
            assert mcnemar_exact_p(b, c) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        assert mcnemar_exact_p(3, 8) == mcnemar_exact_p(8, 3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mcnemar_exact_p(-1, 2)


def make_report(label, categories, errors=()):
    traces = [CaseTrace(cid, 0b1, ("a",), 1.0, 0.0, (), (), "a", cat)
              for cid, cat in categories.items()]
    return EvaluationReport(
        label=label,
        frame=ABC,
        traces=tuple(traces),
        errors=tuple((cid, "total conflict") for cid in errors),
    )


class TestCompareMethods:
    def test_identical_reports(self):
        cats = {f"c{i}": MatchCategory.PM for i in range(10)}
        verdict = compare_methods(make_report("A", cats), make_report("B", cats))
        assert verdict.p_value == 1.0
        assert not verdict.significant
        assert verdict.degenerate

    def test_one_sided_dominance_significant(self):
        cats_a = {}
        cats_b = {}
        for i in range(40):
            cid = f"c{i}"
            cats_a[cid] = MatchCategory.PM if i < 30 else MatchCategory.NM
            cats_b[cid] = MatchCategory.PM if i < 10 else MatchCategory.NM
        verdict = compare_methods(make_report("A", cats_a), make_report("B", cats_b))
        assert verdict.pm_only_a == 20
        assert verdict.pm_only_b == 0
        assert verdict.p_value == pytest.approx(2 * 0.5**20, rel=1e-9)
        assert verdict.significant

    def test_degenerate_flagged(self):
        cats = {f"c{i}": MatchCategory.IM for i in range(5)}
        verdict = compare_methods(make_report("A", cats), make_report("B", cats))
        assert verdict.degenerate and not verdict.significant

    def test_case_set_mismatch(self):
        report_a = make_report("A", {"c1": MatchCategory.PM})
        report_b = make_report("B", {"c2": MatchCategory.PM})
        with pytest.raises(CaseSetMismatchError):
            compare_methods(report_a, report_b)

    def test_errors_count_as_not_pm(self):
        cats = {f"c{i}": MatchCategory.PM for i in range(10)}
        failed = ["c7", "c8", "c9"]
        report_a = make_report("A", cats, errors=["c10"])
        report_b = make_report(
            "B", {cid: cat for cid, cat in cats.items() if cid not in failed}, errors=failed + ["c10"]
        )
        verdict = compare_methods(report_a, report_b)
        assert verdict.pm_only_a == len(failed)
        assert verdict.pm_only_b == 0
        assert verdict.p_value == pytest.approx(2 * 0.5**3, rel=1e-9)

    def test_explicit_pairing_overrides(self):
        report_a = make_report("A", {"c1": MatchCategory.PM})
        report_b = make_report("B", {"c2": MatchCategory.PM})
        paired = {f"c{i}": ("PM", "NM") for i in range(8)}
        verdict = compare_methods(report_a, report_b, paired=paired)
        assert verdict.pm_only_a == 8
        assert verdict.p_value == pytest.approx(2 * 0.5**8, rel=1e-9)
