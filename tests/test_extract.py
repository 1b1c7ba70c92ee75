import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidential import extract
from evidential.belief import Frame, MassFunction
from evidential.extract import (
    M3_DEFAULT_VARIANT,
    M3_VARIANTS,
    METHODS,
    BpaSet,
    FrequencyEntry,
    FrequencyTable,
    build_frequency_table,
    extract_bpas,
    method1_consonant,
    method2,
    method3,
)
from evidential.pipeline import PipelineConfig
from evidential.records import CaseRecord, EvidenceItemId, ReferenceIntervals, Region

from helpers import (
    assert_valid_mass,
    frame_of,
    frequency_table_reference,
    frequency_vectors,
    is_consonant,
    method3_reference,
)

ABC = Frame(("a", "b", "c"))
INTERVALS = ReferenceIntervals({"AALB": (10.0, 20.0)})


def case(cid, outcome, aalb):
    return CaseRecord(cid, outcome, {} if aalb is None else {"AALB": aalb})


_INTERVALS = ReferenceIntervals({"A": (0.0, 1.0), "B": (-1.0, 0.0), "C": (2.0, 3.0)})
_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1.0000000000000002,
                           -1.0000000000000002, 5e-324]) | st.floats(-4.0, 4.0)
_BAD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf])


def _cases(bad: bool):
    """CaseRecords over A and B (C has an interval but is never measured);
    with bad, some outcomes are unknown, some values non-finite and some
    parameters lack an interval."""
    outcomes = ["a", "b", "c", "z"] if bad else ["a", "b", "c"]
    params = ["A", "B", "XYZ"] if bad else ["A", "B"]
    values = _VALUES | _BAD_VALUES if bad else _VALUES
    return st.builds(
        CaseRecord, st.sampled_from(["c1", "c2"]), st.sampled_from(outcomes),
        st.dictionaries(st.sampled_from(params), values, max_size=3),
    )


def _entries(table):
    """A table's items in order, with their counts, all as plain values."""
    rows = [((item.parameter, item.region.value), entry.counts)
            for item, entry in table.entries.items()]
    assert all(type(count) is int for _, counts in rows for count in counts)
    return rows


def _outcome(build, cases):
    try:
        return _entries(build(cases, _INTERVALS, ABC))
    except ValueError as exc:
        return str(exc)


class TestFrequencyTable:
    def test_degenerate_distribution(self):
        cases = [case(f"c{i}", "a", 5.0) for i in range(10)]
        table = build_frequency_table(cases, INTERVALS, ABC)
        entry = table.entries[EvidenceItemId("AALB", Region.BELOW)]
        assert entry.freq == (1.0, 0.0, 0.0)
        assert entry.support == 10

    def test_direct_counting(self):
        cases = [
            case("c1", "a", 5.0),
            case("c2", "a", 5.0),
            case("c3", "b", 5.0),
            case("c4", "c", 25.0),
        ]
        table = build_frequency_table(cases, INTERVALS, ABC)
        below = table.entries[EvidenceItemId("AALB", Region.BELOW)]
        assert below.freq == pytest.approx((2 / 3, 1 / 3, 0.0))
        assert below.support == 3
        above = table.entries[EvidenceItemId("AALB", Region.ABOVE)]
        assert above.freq == (0.0, 0.0, 1.0)
        assert above.support == 1

    def test_table_is_read_only(self):
        counts = {EvidenceItemId("AALB", Region.BELOW): FrequencyEntry((1, 0, 0))}
        table = FrequencyTable(ABC, counts)
        with pytest.raises(TypeError):
            table.entries[EvidenceItemId("AALB", Region.ABOVE)] = FrequencyEntry((0, 1, 0))
        counts.clear()  # the table keeps its own copy
        assert list(table.entries) == [EvidenceItemId("AALB", Region.BELOW)]

    def test_missing_value_contributes_nothing(self):
        cases = [case("c1", "a", 5.0), case("c2", "a", None)]
        table = build_frequency_table(cases, INTERVALS, ABC)
        assert table.entries[EvidenceItemId("AALB", Region.BELOW)].support == 1

    def test_unknown_outcome(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            build_frequency_table([case("c1", "z", 5.0)], INTERVALS, ABC)

    def test_parameter_without_interval(self):
        bad = CaseRecord("c1", "a", {"XYZ": 1.0})
        with pytest.raises(ValueError, match="no reference interval"):
            build_frequency_table([bad], INTERVALS, ABC)

    def test_entry_rejects_empty(self):
        with pytest.raises(ValueError):
            FrequencyEntry((0, 0, 0))

    def test_boundaries_signed_zeros_and_unmeasured_parameter(self):
        # B's high is 0.0, so -0.0 and 0.0 are both within; C is never measured
        intervals = ReferenceIntervals({"A": (0.0, 1.0), "B": (-1.0, 0.0), "C": (2.0, 3.0)})
        cases = [
            CaseRecord("c1", "a", {"A": 0.0, "B": -0.0}),
            CaseRecord("c2", "b", {"A": -0.0, "B": 0.0}),
            CaseRecord("c3", "c", {"A": 1.0, "B": -1.0}),
            CaseRecord("c4", "a", {"A": 1.0000000000000002, "B": -1.0000000000000002}),
            CaseRecord("c5", "b", {"A": -5e-324}),
            CaseRecord("c6", "c", {}),
        ]
        table = build_frequency_table(iter(cases), intervals, ABC)
        assert _entries(table) == _entries(frequency_table_reference(cases, intervals, ABC))
        assert _entries(table) == [
            (("A", "above"), (1, 0, 0)), (("A", "below"), (0, 1, 0)),
            (("A", "within"), (1, 1, 1)), (("B", "below"), (1, 0, 0)),
            (("B", "within"), (1, 1, 1)),
        ]

    @settings(max_examples=200, deadline=None)
    @given(cases=st.lists(_cases(bad=False), max_size=30), as_iterator=st.booleans())
    def test_matches_the_row_loop(self, cases, as_iterator):
        table = build_frequency_table(iter(cases) if as_iterator else cases, _INTERVALS, ABC)
        assert _entries(table) == _entries(frequency_table_reference(cases, _INTERVALS, ABC))
        assert table == frequency_table_reference(cases, _INTERVALS, ABC)

    @settings(max_examples=300, deadline=None)
    @given(cases=st.lists(_cases(bad=True), max_size=12))
    def test_first_refusal_in_case_order(self, cases):
        """An unknown outcome, a parameter without an interval and a
        non-finite value are refused with the row loop's message, naming the
        first offender in case order."""
        assert _outcome(build_frequency_table, cases) == _outcome(frequency_table_reference, cases)

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "case c2: non-finite value nan for AALB"),
        (math.inf, "case c2: non-finite value inf for AALB"),
        (-math.inf, "case c2: non-finite value -inf for AALB"),
    ], ids=["nan", "inf", "-inf"])
    def test_bad_parameter_before_a_later_unknown_outcome(self, bad, message):
        cases = [case("c1", "a", 5.0), case("c2", "b", bad), case("c3", "z", 5.0)]
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_frequency_table(cases, INTERVALS, ABC)
        cases = [case("c1", "a", 5.0), CaseRecord("c2", "b", {"XYZ": 1.0}), case("c3", "z", bad)]
        with pytest.raises(ValueError, match="^no reference interval for parameter 'XYZ'$"):
            build_frequency_table(iter(cases), INTERVALS, ABC)
        cases = [case("c1", "z", bad), CaseRecord("c2", "b", {"XYZ": 1.0})]
        with pytest.raises(ValueError, match="^unknown outcome label 'z'$"):
            build_frequency_table(cases, INTERVALS, ABC)


class TestMethod1:
    def test_canonical(self):
        m = method1_consonant(ABC, (0.5, 0.3, 0.2))
        assert m.mass(0b001) == pytest.approx(0.4, abs=1e-12)
        assert m.mass(0b011) == pytest.approx(0.2, abs=1e-12)
        assert m.mass(0b111) == pytest.approx(0.4, abs=1e-12)

    def test_uniform_is_vacuous(self):
        m = method1_consonant(ABC, (1 / 3, 1 / 3, 1 / 3))
        assert dict(m.items()) == {0b111: 1.0}

    def test_perfect_discriminator(self):
        m = method1_consonant(ABC, (1.0, 0.0, 0.0))
        assert dict(m.items()) == {0b001: 1.0}

    def test_zero_frequency_outcomes_excluded(self):
        m = method1_consonant(ABC, (0.5, 0.5, 0.0))
        assert dict(m.items()) == {0b011: pytest.approx(1.0)}
        assert m.interval(0b100).upper == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="no positive"):
            method1_consonant(ABC, (0.0, 0.0, 0.0))

    def test_scale_invariant(self):
        a = method1_consonant(ABC, (5, 3, 2))
        b = method1_consonant(ABC, (0.5, 0.3, 0.2))
        for mask, _ in a.items():
            assert a.mass(mask) == pytest.approx(b.mass(mask), abs=1e-12)


@settings(max_examples=300)
@given(frequency_vectors())
def test_method1_properties(nf):
    n, freq = nf
    frame = frame_of(n)
    m = method1_consonant(frame, freq)
    assert_valid_mass(m)
    assert is_consonant(m)
    top = max(freq)
    for i, f in enumerate(freq):
        assert m.interval(1 << i).upper == pytest.approx(f / top, abs=1e-12)


class TestMethod2:
    def test_dominant_singleton(self):
        m_comp = method2(ABC, (0.6, 0.3, 0.1), "complement")
        assert dict(m_comp.items()) == {
            0b001: pytest.approx(0.6),
            0b110: pytest.approx(0.4),
        }
        m_theta = method2(ABC, (0.6, 0.3, 0.1), "theta")
        assert dict(m_theta.items()) == {
            0b001: pytest.approx(0.6),
            0b111: pytest.approx(0.4),
        }

    def test_accumulation_branch(self):
        m = method2(ABC, (0.4, 0.35, 0.25), "complement")
        assert m.mass(0b011) == pytest.approx(0.75, abs=1e-12)
        assert m.mass(0b100) == pytest.approx(0.25, abs=1e-12)

    def test_certain_singleton_both_variants(self):
        for remainder in ("complement", "theta"):
            m = method2(ABC, (1.0, 0.0, 0.0), remainder)
            assert dict(m.items()) == {0b001: 1.0}

    def test_tie_absorption(self):
        frame = frame_of(4)
        m = method2(frame, (0.3, 0.3, 0.3, 0.1), "complement")
        assert m.mass(0b0111) == pytest.approx(0.9, abs=1e-12)
        assert m.mass(0b1000) == pytest.approx(0.1, abs=1e-12)

    def test_remainder_validation(self):
        with pytest.raises(ValueError, match="remainder"):
            method2(ABC, (0.6, 0.3, 0.1), "nowhere")

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="no positive"):
            method2(ABC, (0, 0, 0), "theta")


@settings(max_examples=300)
@given(frequency_vectors(), st.sampled_from(["complement", "theta"]))
def test_method2_structure(nf, remainder):
    n, freq = nf
    frame = frame_of(n)
    m = method2(frame, freq, remainder)
    assert_valid_mass(m)
    assert len(m) <= 3

    order = sorted(range(n), key=lambda i: (-freq[i], i))
    top = freq[order[0]]
    # re-derive the expected primary focus independently (cumsum + tie sweep)
    if top > 0.5:
        cut = 1
    else:
        running = 0.0
        cut = 0
        while running <= 0.5:
            running += freq[order[cut]]
            cut += 1
        last = freq[order[cut - 1]]
        while cut < n and freq[order[cut]] == last:
            cut += 1
    b_mask = 0
    for i in order[:cut]:
        b_mask |= 1 << i
    b_val = sum(freq[i] for i in order[:cut])
    assert m.mass(b_mask) == pytest.approx(b_val, abs=1e-9)
    if top > 0.5:
        assert b_mask == 1 << order[0]
    else:
        assert m.mass(b_mask) > 0.5

    rest = [i for i in order[cut:] if freq[i] > 0]
    if remainder == "theta":
        for mask, _ in m.items():
            assert mask in (b_mask, frame.full_mask)
        if b_mask != frame.full_mask and b_val < 1.0:
            assert m.mass(frame.full_mask) == pytest.approx(1.0 - b_val, abs=1e-9)
    else:
        c_mask = 0
        for i in rest:
            c_mask |= 1 << i
        if c_mask:
            assert m.mass(c_mask) == pytest.approx(sum(freq[i] for i in rest), abs=1e-9)
        else:
            assert dict(m.items()) == {b_mask: pytest.approx(1.0)}


@settings(max_examples=200)
@given(frequency_vectors(max_n=6))
def test_method2b_simple_support_when_b_singleton(nf):
    n, freq = nf
    frame = frame_of(n)
    m = method2(frame, freq, "theta")
    singleton_foci = [mask for mask, _ in m.items() if mask.bit_count() == 1]
    if singleton_foci and len(m) == 2:
        assert set(dict(m.items())) == {singleton_foci[0], frame.full_mask}


class TestMethod3:
    def test_global_theta_one(self):
        frame = Frame(("a", "b"))
        m = method3(frame, (0.75, 0.25), "global-one")
        assert m.mass(0b01) == pytest.approx(0.375, abs=1e-12)
        assert m.mass(0b10) == pytest.approx(0.125, abs=1e-12)
        assert m.mass(0b11) == pytest.approx(0.5, abs=1e-12)

    def test_global_theta_zero_drops_zero_raws(self):
        frame = Frame(("a", "b"))
        m = method3(frame, (1.0, 0.0), "global-zero")
        assert dict(m.items()) == {0b01: pytest.approx(1.0)}

    def test_size_strata_share_equally(self):
        frame = frame_of(4)
        m = method3(frame, (0.4, 0.3, 0.2, 0.1), "size-one")
        by_size = {}
        for mask, value in m.items():
            by_size[mask.bit_count()] = by_size.get(mask.bit_count(), 0.0) + value
        shares = list(by_size.values())
        assert all(s == pytest.approx(shares[0], abs=1e-9) for s in shares)

    def test_singleton_ratio_preservation(self):
        frame = frame_of(3)
        m = method3(frame, (0.5, 0.3, 0.2), "global-one")
        assert m.mass(0b001) / m.mass(0b010) == pytest.approx(0.5 / 0.3, abs=1e-9)
        assert m.mass(0b001) / m.mass(0b100) == pytest.approx(0.5 / 0.2, abs=1e-9)

    def test_singleton_frame_theta_zero_impossible(self):
        frame = Frame(("a",))
        with pytest.raises(ValueError, match="scored zero"):
            method3(frame, (1.0,), "global-zero")

    def test_variant_validation(self):
        for variant in ("sideways-one", "global-two", "global"):
            with pytest.raises(ValueError, match="^m3_variant must be one of"):
                method3(ABC, (0.5, 0.3, 0.2), variant)


@settings(max_examples=100)
@given(frequency_vectors(max_n=6), st.sampled_from(M3_VARIANTS))
def test_method3_always_valid(nf, variant):
    n, freq = nf
    m = method3(frame_of(n), freq, variant)
    assert_valid_mass(m)


def _items_or_error(build):
    try:
        m = build()
    except Exception as exc:
        return type(exc), str(exc)
    return [(mask, repr(value)) for mask, value in m.items()]


@st.composite
def _shares(draw):
    """1-10 outcomes with small counts, so zero and tied shares are common;
    as raw counts or as proportions, and all zero now and then."""
    n = draw(st.integers(1, 10))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    total = sum(counts)
    if total and draw(st.booleans()):
        return n, [c / total for c in counts]
    return n, counts


@settings(max_examples=300)
@given(_shares(), st.sampled_from(M3_VARIANTS))
def test_method3_matches_loop_reference(nf, variant):
    """Same foci in the same order, the same repr of every mass, and the same
    error, as the loop over every subset index that it replaced."""
    n, freq = nf
    frame = frame_of(n)
    assert _items_or_error(lambda: method3(frame, freq, variant)) == _items_or_error(
        lambda: method3_reference(frame, freq, variant)
    )


@settings(max_examples=150)
@given(frequency_vectors(max_n=6), st.permutations(range(6)), st.sampled_from(["1", "2a", "2b", "3"]))
def test_permutation_equivariance(nf, perm, method):
    n, freq = nf
    frame = frame_of(n)
    perm = [p for p in perm if p < n]
    shuffled_labels = tuple(frame.labels[p] for p in perm)
    shuffled_frame = Frame(shuffled_labels)
    shuffled_freq = [freq[p] for p in perm]

    def run(fr, fv):
        if method == "1":
            return method1_consonant(fr, fv)
        if method == "2a":
            return method2(fr, fv, "complement")
        if method == "2b":
            return method2(fr, fv, "theta")
        return method3(fr, fv)

    base = run(frame, freq)
    shuffled = run(shuffled_frame, shuffled_freq)
    for mask, value in base.items():
        relabeled = shuffled_frame.mask_of(frame.labels_of(mask))
        assert shuffled.mass(relabeled) == pytest.approx(value, abs=1e-9)


class TestExtractBpas:
    def build_table(self):
        cases = [
            case("c1", "a", 5.0),
            case("c2", "a", 5.0),
            case("c3", "b", 5.0),
            case("c4", "c", 25.0),
        ]
        return build_frequency_table(cases, INTERVALS, ABC)

    def test_dispatch(self):
        table = self.build_table()
        for method in ("1", "2a", "2b", "3"):
            bpa = extract_bpas(table, method)
            assert bpa.method == method
            assert set(bpa.entries) == set(table.entries)
            for m in bpa.entries.values():
                assert_valid_mass(m)

    def test_min_support_floor(self):
        table = self.build_table()
        bpa = extract_bpas(table, "2a", min_support=2)
        assert EvidenceItemId("AALB", Region.ABOVE) not in bpa.entries
        assert EvidenceItemId("AALB", Region.BELOW) in bpa.entries

    @pytest.mark.parametrize("min_support", [0, -5])
    def test_min_support_below_one_rejected(self, min_support):
        with pytest.raises(ValueError, match="^min_support must be at least 1$"):
            extract_bpas(self.build_table(), "1", min_support=min_support)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="^method must be one of"):
            extract_bpas(self.build_table(), "4")

    @pytest.mark.parametrize("variant", M3_VARIANTS)
    def test_variant_recorded_for_method_3_only(self, variant):
        table = self.build_table()
        assert extract_bpas(table, "3", m3_variant=variant).label() == f"3({variant})"
        assert extract_bpas(table, "1", m3_variant=variant).label() == "1"

    def test_round_trip(self):
        bpa = extract_bpas(self.build_table(), "3")
        assert BpaSet.from_dict(bpa.to_dict()) == bpa

    def test_json_uses_class_key(self):
        doc = extract_bpas(self.build_table(), "2b").to_dict()
        assert doc["method"] == "2b"
        assert all("class" in item and "parameter" in item for item in doc["items"])


class TestMethod3Budget:
    """The bound entries * (2^n - 1) is checked before any entry is built.
    Builders are replaced by a spy, so these tests allocate no lattice."""

    @staticmethod
    def table(n: int, entries: int) -> FrequencyTable:
        frame = Frame(tuple(f"g{i:02d}" for i in range(n)))
        return FrequencyTable(frame, {
            EvidenceItemId(f"P{j:03d}", Region.WITHIN): FrequencyEntry((1,) * n)
            for j in range(entries)
        })

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        monkeypatch.setitem(extract._BUILDERS, "3", lambda frame, freq, variant: calls.append(
            len(freq)) or MassFunction.vacuous(frame))
        return calls

    def test_over_budget_refused_before_building(self, built):
        # 17 entries on 16 outcomes: 17 * 65 535 = 1 114 095 foci
        with pytest.raises(ValueError, match=r"^method 3 over 17 entries on a 16-outcome frame "
                                             r"may build 1114095 focal elements, over the "
                                             r"budget of 1048576$"):
            extract_bpas(self.table(16, 17), "3")
        assert built == []

    def test_bound_counts_only_entries_with_enough_support(self, built):
        table = self.table(16, 17)
        assert len(extract_bpas(table, "3", min_support=17).entries) == 0
        assert built == []
        assert len(extract_bpas(table, "1").entries) == 17  # other methods have no budget

    def test_bound_at_budget_is_built(self, built):
        # 16 entries on 16 outcomes: 16 * 65 535 = 1 048 560 foci, within 2^20
        assert extract.M3_MAX_FOCI == 1 << 20
        assert len(extract_bpas(self.table(16, 16), "3").entries) == 16
        assert built == [16] * 16

    def test_benchmark_sized_set_is_within_budget(self):
        # 14 outcomes, 12 parameters in 3 regions: 36 * 16 383 = 589 788 foci
        assert 36 * ((1 << 14) - 1) <= extract.M3_MAX_FOCI


class TestMethodTables:
    def test_keys_are_the_cli_names(self):
        assert METHODS == ("1", "2a", "2b", "3")
        assert M3_VARIANTS == ("global-one", "global-zero", "size-one", "size-zero")
        assert M3_DEFAULT_VARIANT == "global-one"

    def test_one_check_one_wording(self):
        table = TestExtractBpas().build_table()

        def message(call):
            with pytest.raises(ValueError) as info:
                call()
            return str(info.value)

        bad_method = {
            message(lambda: PipelineConfig(method="4")),
            message(lambda: extract_bpas(table, "4")),
        }
        assert bad_method == {"method must be one of ('1', '2a', '2b', '3'), got '4'"}
        bad_variant = {
            message(lambda: PipelineConfig(m3_variant="x")),
            message(lambda: method3(ABC, (0.5, 0.3, 0.2), "x")),
        }
        assert bad_variant == {
            "m3_variant must be one of "
            "('global-one', 'global-zero', 'size-one', 'size-zero'), got 'x'"
        }
