"""Acceptance suite: one test per criterion, each printing a pass/fail line
(via the conftest hook). Timing bounds are asserted inside the tests."""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from evidential.belief import Frame, MassFunction
from evidential.cli import main as cli_main
from evidential.combine import combine_all, dempster_combine, fast_combine_via_commonality
from evidential.correlate import CorrelationGraph, Group, prune_components
from evidential.errors import TotalConflictError
from evidential.evaluate import (
    CaseTrace,
    EvaluationReport,
    MatchCategory,
    classify_match,
    compare_methods,
    evaluate_set,
)
from evidential.expert import all_modify, part_modify
from evidential.extract import (
    BpaSet,
    build_frequency_table,
    extract_bpas,
    method1_consonant,
    method2,
    method3,
)
from evidential import formats
from evidential.records import EvidenceItemId, Region

from helpers import (
    assert_valid_mass,
    combine_oracle,
    frame_of,
    is_consonant,
    max_mass_diff,
    random_freq,
    random_mass,
)

DATA = Path(__file__).parent / "data"


def test_criterion_1_consonant_extraction_suite():
    """1000 random frequency vectors, n in 2..14: normalized, consonant,
    and singleton plausibilities reconstruct the frequency ratios."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for trial in range(1000):
        n = int(rng.integers(2, 15))
        freq = random_freq(n, rng)
        frame = Frame(tuple(f"o{i}" for i in range(n)))
        m = method1_consonant(frame, freq)
        assert_valid_mass(m)  # masses positive, empty set unused, total 1 +- 1e-9
        assert is_consonant(m)
        top = max(freq)
        for i, f in enumerate(freq):
            assert abs(m.interval(1 << i).upper - f / top) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"suite took {elapsed:.2f}s"


def test_criterion_2_combination_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # vacuous identity, exact
    frame = frame_of(4)
    m = random_mass(frame, rng)
    result = dempster_combine(MassFunction.vacuous(frame), m)
    assert dict(result.combined.items()) == dict(m.items())
    assert result.conflict == 0.0

    # commutativity <= 1e-12
    for _ in range(200):
        fr = frame_of(int(rng.integers(2, 7)))
        m1, m2 = random_mass(fr, rng), random_mass(fr, rng)
        try:
            ab, ba = dempster_combine(m1, m2), dempster_combine(m2, m1)
        except TotalConflictError:
            continue
        assert max_mass_diff(ab.combined, ba.combined) <= 1e-12
        assert abs(ab.conflict - ba.conflict) <= 1e-12

    # associativity over random triples <= 1e-9
    for _ in range(200):
        fr = frame_of(int(rng.integers(2, 7)))
        ms = [random_mass(fr, rng) for _ in range(3)]
        try:
            left = dempster_combine(dempster_combine(ms[0], ms[1]).combined, ms[2])
            right = dempster_combine(ms[0], dempster_combine(ms[1], ms[2]).combined)
        except TotalConflictError:
            continue
        assert max_mass_diff(left.combined, right.combined) <= 1e-9

    # sparse pairwise vs dense brute-force oracle: all pairs, n <= 4
    for n in range(1, 5):
        fr = frame_of(n)
        pool = [random_mass(fr, rng) for _ in range(10)]
        for m1 in pool:
            for m2 in pool:
                oracle_masses, oracle_conflict = combine_oracle(m1, m2)
                if oracle_conflict >= 1.0 - 1e-9:
                    continue
                result = dempster_combine(m1, m2)
                assert abs(result.conflict - oracle_conflict) <= 1e-12
                masks = set(oracle_masses) | set(dict(result.combined.items()))
                for mask in masks:
                    assert abs(
                        result.combined.mass(mask) - oracle_masses.get(mask, 0.0)
                    ) <= 1e-12

    # commonality-product path vs pairwise path, n <= 6
    for _ in range(60):
        fr = frame_of(int(rng.integers(2, 7)))
        ms = [random_mass(fr, rng) for _ in range(int(rng.integers(2, 6)))]
        try:
            sparse = combine_all(ms, path="sparse")
        except TotalConflictError:
            continue
        dense = fast_combine_via_commonality(ms)
        assert max_mass_diff(sparse.combined, dense.combined) <= 1e-9
        assert abs(sparse.conflict - dense.conflict) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"suite took {elapsed:.2f}s"


GROUPS14 = Frame(tuple(str(i) for i in range(1, 15)))


def _aalb_generated():
    return BpaSet(
        GROUPS14,
        {
            EvidenceItemId("AALB", Region.ABOVE): MassFunction.from_labels(
                GROUPS14, {("5", "6"): 0.6, GROUPS14.labels: 0.4}
            ),
            EvidenceItemId("AALB", Region.WITHIN): MassFunction.from_labels(
                GROUPS14, {("3",): 0.7, GROUPS14.labels: 0.3}
            ),
            EvidenceItemId("AALB", Region.BELOW): MassFunction.from_labels(
                GROUPS14, {("2", "1"): 0.8, GROUPS14.labels: 0.2}
            ),
        },
        method="generated",
    )


def _aalb_expert():
    return BpaSet(
        GROUPS14,
        {
            EvidenceItemId("AALB", Region.ABOVE): MassFunction.vacuous(GROUPS14),
            EvidenceItemId("AALB", Region.WITHIN): MassFunction.vacuous(GROUPS14),
            EvidenceItemId("AALB", Region.BELOW): MassFunction.from_labels(
                GROUPS14, {("6",): 0.46, ("9",): 0.27, ("13",): 0.27}
            ),
        },
        method="expert",
    )


def test_criterion_3_aalb_golden(tmp_path):
    """The documented AALB overwrite example, byte-exact against stored JSON."""
    parted = part_modify(_aalb_generated(), _aalb_expert())
    alled = all_modify(_aalb_generated(), _aalb_expert())

    part_path = tmp_path / "part.json"
    all_path = tmp_path / "all.json"
    formats.write_bpa_set(parted, part_path)
    formats.write_bpa_set(alled, all_path)

    assert part_path.read_bytes() == (DATA / "aalb_expected_part.json").read_bytes()
    assert all_path.read_bytes() == (DATA / "aalb_expected_all.json").read_bytes()


def test_criterion_4_method2_structure_suite():
    rng = np.random.default_rng(4040)
    passed = 0
    for trial in range(1000):
        n = int(rng.integers(2, 15))
        freq = random_freq(n, rng)
        order = sorted(range(n), key=lambda i: (-freq[i], i))
        top = freq[order[0]]
        # independent re-derivation of the primary focus: running sum + tie sweep
        if top > 0.5:
            cut = 1
        else:
            running, cut = 0.0, 0
            while running <= 0.5:
                running += freq[order[cut]]
                cut += 1
            last = freq[order[cut - 1]]
            while cut < n and freq[order[cut]] == last:
                cut += 1
        b_mask = 0
        for i in order[:cut]:
            b_mask |= 1 << i
        rest = [i for i in order[cut:] if freq[i] > 0]

        frame = Frame(tuple(f"o{i}" for i in range(n)))
        for remainder in ("complement", "theta"):
            m = method2(frame, freq, remainder)
            assert_valid_mass(m)
            assert len(m) <= 3
            assert b_mask in m
            if top > 0.5:
                assert b_mask == 1 << order[0]
                assert abs(m.mass(b_mask) - top) <= 1e-12
            else:
                assert m.mass(b_mask) > 0.5
            others = set(dict(m.items())) - {b_mask}
            if remainder == "theta":
                assert others <= {frame.full_mask}
            else:
                c_mask = 0
                for i in rest:
                    c_mask |= 1 << i
                assert others == ({c_mask} if c_mask else set())
        passed += 1
    assert passed == 1000


def test_criterion_5_pruning_golden_graphs():
    def graph(nodes, edges):
        return CorrelationGraph(Group.BIOCHEMICAL, tuple(nodes), tuple(edges), 0.5)

    pair = graph(["P", "Q"], [("P", "Q", 0.7)])
    triangle = graph(
        ["P", "Q", "R"], [("P", "Q", 0.6), ("P", "R", 0.7), ("Q", "R", 0.5)]
    )
    star_plus_edge = graph(
        ["A", "B", "C", "D"],
        [("A", "B", 0.6), ("A", "C", 0.55), ("A", "D", 0.5), ("B", "C", 0.52)],
    )
    expected = [
        (pair, {"P"}, {"Q"}),
        (triangle, {"P"}, {"Q", "R"}),
        (star_plus_edge, {"A", "B", "C"}, {"D"}),
    ]
    for _ in range(10):
        for g, kept, removed in expected:
            result = prune_components(g)
            assert result.kept == kept
            assert result.removed == removed


def test_criterion_6_end_to_end_synthetic(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "synth"
    code = cli_main(
        [
            "synth", "--outcomes", "14", "--params", "12", "--cases", "280",
            "--seed", "42", "--separation", "1.5", "--holdout", "40",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    train = formats.parse_cases(out / "train.csv")
    test = formats.parse_cases(out / "test.csv")
    assert (len(train), len(test)) == (240, 40)
    intervals = formats.parse_intervals(out / "intervals.csv")
    frame = Frame(tuple(sorted({c.outcome for c in train + test})))
    table = build_frequency_table(train, intervals, frame)

    report_2a = evaluate_set(test, extract_bpas(table, "2a"), intervals)
    report_3 = evaluate_set(test, extract_bpas(table, "3"), intervals)

    pm_2a = report_2a.percentages[MatchCategory.PM]
    assert pm_2a >= 50.0, f"method 2a PM {pm_2a:.1f}% below 50%"
    nm_2a = report_2a.percentages[MatchCategory.NM]
    nm_3 = report_3.percentages[MatchCategory.NM]
    assert nm_2a <= nm_3, f"NM ordering violated: 2a {nm_2a:.1f}% vs 3 {nm_3:.1f}%"

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"


def test_criterion_7_performance_contract():
    frame = Frame(tuple(f"o{i:02d}" for i in range(14)))
    rng = np.random.default_rng(0)

    # 40 mixed consonant / dominant-focus items, all sharing full support
    items = []
    for k in range(40):
        f = rng.random(14) + 0.05
        f = (f / f.sum()).tolist()
        if k % 3 == 0:
            items.append(method1_consonant(frame, f))
        elif k % 3 == 1:
            items.append(method2(frame, f, "complement"))
        else:
            items.append(method2(frame, f, "theta"))
    start = time.perf_counter()
    result = combine_all(items)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"40-item combination took {elapsed:.2f}s"
    assert_valid_mass(result.combined)

    # dense all-subsets extraction for 12 parameters x 3 regions, then the
    # commonality-product path over all 36 items
    start = time.perf_counter()
    dense = []
    for _ in range(36):
        f = rng.random(14) + 0.05
        dense.append(method3(frame, (f / f.sum()).tolist(), "global-one"))
    result = fast_combine_via_commonality(dense)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"dense extraction + combination took {elapsed:.2f}s"
    assert_valid_mass(result.combined)


# every (observed, expected) pair for a four-outcome frame, tabulated by hand
TRUTH_TABLE = [
    (("a",), {"a": "PM", "b": "NM", "c": "NM", "d": "NM"}),
    (("b",), {"a": "NM", "b": "PM", "c": "NM", "d": "NM"}),
    (("c",), {"a": "NM", "b": "NM", "c": "PM", "d": "NM"}),
    (("d",), {"a": "NM", "b": "NM", "c": "NM", "d": "PM"}),
    (("a", "b"), {"a": "IM", "b": "IM", "c": "NM", "d": "NM"}),
    (("a", "c"), {"a": "IM", "b": "NM", "c": "IM", "d": "NM"}),
    (("a", "d"), {"a": "IM", "b": "NM", "c": "NM", "d": "IM"}),
    (("b", "c"), {"a": "NM", "b": "IM", "c": "IM", "d": "NM"}),
    (("b", "d"), {"a": "NM", "b": "IM", "c": "NM", "d": "IM"}),
    (("c", "d"), {"a": "NM", "b": "NM", "c": "IM", "d": "IM"}),
    (("a", "b", "c"), {"a": "IM", "b": "IM", "c": "IM", "d": "NM"}),
    (("a", "b", "d"), {"a": "IM", "b": "IM", "c": "NM", "d": "IM"}),
    (("a", "c", "d"), {"a": "IM", "b": "NM", "c": "IM", "d": "IM"}),
    (("b", "c", "d"), {"a": "NM", "b": "IM", "c": "IM", "d": "IM"}),
    (("a", "b", "c", "d"), {"a": "IM", "b": "IM", "c": "IM", "d": "IM"}),
]


def test_criterion_8_match_taxonomy_truth_table():
    frame = Frame(("a", "b", "c", "d"))
    seen_masks = set()
    for observed_labels, row in TRUTH_TABLE:
        mask = frame.mask_of(observed_labels)
        seen_masks.add(mask)
        for expected, category in row.items():
            assert classify_match(mask, expected, frame) == MatchCategory(category)
    assert seen_masks == set(range(1, 16))  # exhaustive over non-empty subsets


def test_criterion_9_mcnemar_exact_values():
    def oracle(b, c):
        n = b + c
        if n == 0:
            return 1.0
        k = max(b, c)
        tail = sum(math.comb(n, i) for i in range(k, n + 1))
        return float(min(Fraction(2 * tail, 2**n), Fraction(1)))

    def report_from(cats, label):
        traces = [CaseTrace(cid, 0b1, ("a",), 1.0, 0.0, (), (), "a", cat)
                  for cid, cat in cats.items()]
        return EvaluationReport(label, Frame(("a", "b")), tuple(traces), ())

    for b, c in [(0, 0), (1, 0), (2, 7), (5, 5), (12, 3), (20, 0), (13, 27)]:
        paired = {}
        for i in range(b):
            paired[f"a{i}"] = (MatchCategory.PM, MatchCategory.NM)
        for i in range(c):
            paired[f"b{i}"] = (MatchCategory.IM, MatchCategory.PM)
        for i in range(5):
            paired[f"x{i}"] = (MatchCategory.PM, MatchCategory.PM)
        dummy = report_from({"z": MatchCategory.PM}, "A")
        verdict = compare_methods(dummy, dummy, paired=paired)
        assert verdict.pm_only_a == b and verdict.pm_only_b == c
        assert abs(verdict.p_value - oracle(b, c)) <= 1e-9

    # the same numbers derived through real report traces
    cats_a = {f"c{i}": (MatchCategory.PM if i < 30 else MatchCategory.NM) for i in range(40)}
    cats_b = {f"c{i}": (MatchCategory.PM if i < 10 else MatchCategory.NM) for i in range(40)}
    verdict = compare_methods(report_from(cats_a, "A"), report_from(cats_b, "B"))
    assert abs(verdict.p_value - oracle(20, 0)) <= 1e-9
    assert verdict.significant
