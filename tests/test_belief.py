import functools
import json
import math
import operator
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evidential.belief import BeliefInterval, Frame, MassFunction, clip_interval
from evidential import combine
from evidential.combine import combine_all
from evidential.errors import (
    EmptySetMassError,
    FrameMismatchError,
    NonPositiveMassError,
    NotNormalizedError,
    TotalConflictError,
)

from helpers import (
    assert_valid_mass,
    bel_oracle,
    exact_combine,
    exact_singleton_intervals,
    frame_of,
    mass_functions,
    pl_oracle,
    q_oracle,
    singleton_intervals_reference,
)

ABC = Frame(("a", "b", "c"))


def abc_mass():
    return MassFunction.from_labels(ABC, {("a",): 0.4, ("a", "b"): 0.2, ("a", "b", "c"): 0.4})


class TestFrame:
    def test_singleton_frame(self):
        frame = Frame(("a",))
        assert frame.n == 1
        assert frame.full_mask == 0b1

    def test_fourteen_groups(self):
        frame = Frame(tuple(str(i) for i in range(1, 15)))
        assert frame.n == 14
        assert frame.full_mask + 1 == 16384

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Frame(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Frame(())

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            Frame(tuple(f"x{i}" for i in range(31)))

    def test_order_is_preserved(self):
        frame = Frame(("z", "a", "m"))
        assert frame.labels == ("z", "a", "m")
        assert frame.bit("z") == 0b001
        assert frame.bit("m") == 0b100

    def test_mask_round_trip(self):
        mask = ABC.mask_of(["c", "a"])
        assert ABC.labels_of(mask) == ("a", "c")

    def test_complement(self):
        # Pl({a}) is 1 - Bel of the complement {b, c}, which holds all the mass
        m = MassFunction(ABC, {ABC.mask_of(["b", "c"]): 1.0})
        assert m.interval(ABC.bit("a")).upper == 0.0 == pl_oracle(m, ABC.bit("a"))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            ABC.bit("z")

    def test_foreign_mask_rejected(self):
        with pytest.raises(FrameMismatchError):
            ABC.check_mask(0b1000)
        with pytest.raises(FrameMismatchError):
            ABC.check_mask(-1)


class TestConstruction:
    def test_vacuous_ok(self):
        m = MassFunction.vacuous(ABC)
        assert_valid_mass(m)
        assert m.mass(ABC.full_mask) == 1.0

    def test_simple_support_ok(self):
        m = MassFunction.from_labels(ABC, {("a",): 0.6, ("a", "b", "c"): 0.4})
        assert_valid_mass(m)

    def test_sum_violation_reports_total(self):
        with pytest.raises(NotNormalizedError) as err:
            MassFunction.from_labels(ABC, {("a",): 0.6, ("b",): 0.6})
        assert err.value.total == pytest.approx(1.2)

    @pytest.mark.parametrize("masses", [
        {0b001: math.nan},
        {0b001: 0.5, 0b111: math.nan},
        {0b001: math.nan, 0b111: 1.0},
    ])
    def test_nan_mass_rejected(self, masses):
        # abs(NaN - 1) > tol is False, so a NaN total must fail the check explicitly
        with pytest.raises(NotNormalizedError):
            MassFunction(ABC, masses)

    def test_empty_set_mass_rejected(self):
        with pytest.raises(EmptySetMassError):
            MassFunction(ABC, {0: 0.5, ABC.full_mask: 0.5})

    def test_negative_mass_rejected(self):
        with pytest.raises(NonPositiveMassError):
            MassFunction(ABC, {0b001: -0.1, ABC.full_mask: 1.1})

    def test_zero_entries_dropped(self):
        m = MassFunction(ABC, {0b001: 0.0, 0b010: 0.0, ABC.full_mask: 1.0, 0: 0.0})
        assert len(m) == 1

    def test_small_drift_rescaled(self):
        m = MassFunction(ABC, {0b001: 0.5 + 5e-10, ABC.full_mask: 0.5})
        assert math.fsum(v for _, v in m.items()) == pytest.approx(1.0, abs=1e-15)

    def test_literal_masses_kept_verbatim(self):
        # a total within float noise of 1 must not get rescaled
        m = MassFunction.from_labels(ABC, {("a",): 0.7, ("a", "b", "c"): 0.3})
        assert m.mass(ABC.bit("a")) == 0.7

    def test_frame_mismatch_on_foreign_mask(self):
        with pytest.raises(FrameMismatchError):
            MassFunction(ABC, {0b10000: 1.0})


@st.composite
def _unnormalised_masses(draw):
    """A frame and unnormalised masses as a combination collects them: zeros
    (also on the empty set) and subnormal values included."""
    frame = frame_of(draw(st.integers(1, 8)))
    weight = st.one_of(
        st.just(0.0), st.floats(5e-324, 1e-300), st.floats(1e-9, 1.0, allow_nan=False)
    )
    raw = draw(st.dictionaries(st.integers(1, frame.full_mask), weight, min_size=1, max_size=12))
    if draw(st.booleans()):
        raw[0] = 0.0
    return frame, raw


@settings(max_examples=200)
@given(_unnormalised_masses())
def test_trusted_constructor_equals_validating_one(case):
    """_renormalised keeps what the validating constructor keeps, and its
    result's Pl is the commonalities it is handed, over the same surviving
    mass: within 2 * eps of the exact Pl, which Bel shares bit for bit."""
    frame, raw = case
    surviving = math.fsum(raw.values())
    commonalities = [
        math.fsum(value for mask, value in raw.items() if mask >> i & 1) for i in range(frame.n)
    ]
    if surviving <= 1e-12:  # no mass, or only subnormal mass: total conflict
        with pytest.raises(TotalConflictError):
            combine._renormalised(frame, raw, 0.0, commonalities)
        return
    trusted = combine._renormalised(frame, raw, 0.0, commonalities).combined
    validated = MassFunction(frame, {mask: value / surviving for mask, value in raw.items()})
    assert trusted == validated
    assert list(trusted.items()) == list(validated.items())
    assert np.array_equal(trusted.commonality_vector(), validated.commonality_vector())
    assert trusted.singleton_plausibilities() == tuple(q / surviving for q in commonalities)
    exact_total = sum(map(Fraction, raw.values()))
    exact = exact_singleton_intervals(
        {mask: Fraction(value) / exact_total for mask, value in raw.items() if mask}, frame.n
    )
    for got, same, (_, pl) in zip(
        trusted.singleton_intervals(), validated.singleton_intervals(), exact
    ):
        assert got.lower == same.lower
        assert abs(Fraction(got.upper) - pl) <= 2 * Fraction(EPS)


class TestFunctionals:
    def test_belief_subset_sum(self):
        m = abc_mass()
        assert m.belief(ABC.mask_of(["a", "b"])) == pytest.approx(0.6, abs=1e-12)

    def test_belief_axioms_exact(self):
        m = abc_mass()
        assert m.belief(0) == 0.0
        assert m.belief(ABC.full_mask) == 1.0

    def test_vacuous_belief_zero_on_proper_subsets(self):
        m = MassFunction.vacuous(ABC)
        for mask in range(1, ABC.full_mask):
            assert m.belief(mask) == 0.0

    def test_plausibility_intersection_sum(self):
        m = abc_mass()
        assert m.interval(ABC.bit("c")).upper == pytest.approx(0.4, abs=1e-12)

    def test_plausibility_axioms_exact(self):
        m = abc_mass()
        assert m.interval(0).upper == 0.0
        assert m.interval(ABC.full_mask).upper == 1.0

    def test_vacuous_plausibility_one(self):
        m = MassFunction.vacuous(ABC)
        for mask in range(1, ABC.full_mask + 1):
            assert m.interval(mask).upper == 1.0

    def test_commonality(self):
        m = abc_mass()
        q = m.commonality_vector()
        assert q[ABC.bit("a")] == pytest.approx(1.0, abs=1e-12)
        assert q[ABC.mask_of(["a", "b"])] == pytest.approx(0.6, abs=1e-12)
        assert q[ABC.full_mask] == pytest.approx(0.4, abs=1e-12)
        assert q[0] == pytest.approx(1.0, abs=1e-12)

    def test_vacuous_commonality_all_one(self):
        q = MassFunction.vacuous(ABC).commonality_vector()
        for mask in range(ABC.full_mask + 1):
            assert q[mask] == 1.0

    def test_interval_vacuous(self):
        m = MassFunction.vacuous(ABC)
        interval = m.interval(ABC.bit("a"))
        assert (interval.lower, interval.upper) == (0.0, 1.0)

    def test_interval_simple_support(self):
        frame = Frame(("a", "b"))
        m = MassFunction.from_labels(frame, {("a",): 0.8, ("a", "b"): 0.2})
        interval = m.interval(frame.bit("a"))
        assert interval.lower == pytest.approx(0.8, abs=1e-12)
        assert interval.upper == 1.0

    def test_interval_theta(self):
        interval = abc_mass().interval(ABC.full_mask)
        assert (interval.lower, interval.upper) == (1.0, 1.0)

    def test_interval_clips_float_spill(self):
        interval = clip_interval(0.5, 0.5 - 1e-12)
        assert interval.lower <= interval.upper


_EDGE_FLOATS = st.sampled_from(
    [math.nan, 0.0, -0.0, 1.0, -1e-17, 1.0 + 2.0**-52, 5e-324, -math.inf, math.inf]
)


@settings(max_examples=500)
@given(st.one_of(st.floats(), _EDGE_FLOATS), st.one_of(st.floats(), _EDGE_FLOATS))
def test_clip_interval_matches_min_max_formula(lower, upper):
    clipped = min(max(lower, 0.0), 1.0)
    expected = BeliefInterval(clipped, min(max(upper, clipped), 1.0))
    got = clip_interval(lower, upper)
    assert type(got) is BeliefInterval
    assert repr(got) == repr(expected)


@settings(max_examples=200)
@given(mass_functions())
def test_duality(m):
    frame = m.frame
    for mask in range(frame.full_mask + 1):
        assert m.interval(mask).upper == pytest.approx(
            1.0 - m.belief(frame.full_mask & ~mask), abs=1e-12
        )


@settings(max_examples=200)
@given(mass_functions())
def test_interval_ordering(m):
    for mask in range(m.frame.full_mask + 1):
        assert m.belief(mask) <= pl_oracle(m, mask) + 1e-12


@settings(max_examples=150)
@given(mass_functions(), st.data())
def test_monotonicity(m, data):
    full = m.frame.full_mask
    b = data.draw(st.integers(0, full))
    a = b & data.draw(st.integers(0, full))  # a is a subset of b
    assert m.belief(a) <= m.belief(b) + 1e-12
    assert m.interval(a).upper <= m.interval(b).upper + 1e-12


@settings(max_examples=150)
@given(mass_functions())
def test_transform_consistency_against_dense_oracle(m):
    for mask in range(m.frame.full_mask + 1):
        assert m.belief(mask) == pytest.approx(bel_oracle(m, mask), abs=1e-12)
        assert m.interval(mask).upper == pytest.approx(pl_oracle(m, mask), abs=1e-12)


@settings(max_examples=100)
@given(mass_functions())
def test_commonality_vector_matches_oracle(m):
    q = m.commonality_vector()
    assert q.shape == (1 << m.frame.n,)
    for mask in range(m.frame.full_mask + 1):
        assert q[mask] == pytest.approx(q_oracle(m, mask), abs=1e-12)


@pytest.mark.parametrize("n", [21, 30])
def test_commonality_vector_refuses_oversized_frame(n):
    m = MassFunction.vacuous(Frame(tuple(f"x{i}" for i in range(n))))
    with pytest.raises(ValueError, match="at most 20 outcomes"):
        m.commonality_vector()


def test_commonality_vector_filled_once_under_thread_races():
    frame = frame_of(8)
    masses = {0b1: 0.2, 0b1011: 0.3, frame.full_mask: 0.5}
    expected = MassFunction(frame, masses).commonality_vector()
    shared = [MassFunction(frame, masses) for _ in range(200)]
    results = [[] for _ in range(6)]
    barrier = threading.Barrier(len(results))

    def worker(out):
        barrier.wait(timeout=10)
        for m in shared:
            q = m.commonality_vector()
            out.append((q.flags.writeable, q.copy()))  # as seen on return

    threads = [threading.Thread(target=worker, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert len(out) == len(shared)
        for writeable, q in out:
            assert not writeable
            assert np.array_equal(q, expected)


EPS = 2.0**-52


def assert_intervals_near_exact(m, ms):
    """m's singleton intervals are within 2 * k * eps of the exact fold of
    the k operands ms, and its Bel is the whole-frame walk's bit for bit."""
    exact, _ = exact_combine(ms)
    bound = 2 * len(ms) * Fraction(EPS)
    intervals = m.singleton_intervals()
    for got, (bel, pl) in zip(intervals, exact_singleton_intervals(exact, m.frame.n)):
        assert abs(Fraction(got.lower) - bel) <= bound
        assert abs(Fraction(got.upper) - pl) <= bound
    assert [i.lower for i in intervals] == [i.lower for i in singleton_intervals_reference(m)]


@settings(max_examples=200)
@given(mass_functions(min_n=1, max_n=8, max_foci=12))
def test_singleton_intervals_near_exact(m):
    assert_intervals_near_exact(m, [m])
    assert m.singleton_intervals() is m.singleton_intervals()


@settings(max_examples=200)
@given(mass_functions(min_n=1, max_n=8, max_foci=12))
def test_plausibility_is_fsum_of_containing_foci(m):
    assert m.singleton_plausibilities() == tuple(
        math.fsum(value for mask, value in m.items() if mask >> i & 1)
        for i in range(m.frame.n)
    )
    assert m.singleton_plausibilities() is m.singleton_plausibilities()


@st.composite
def _results_in_a_core(draw):
    """A combination of 1-3 operands on n = 1-12 outcomes whose foci all lie
    in one drawn mask, so the result's core is often smaller than the frame."""
    n = draw(st.integers(1, 12))
    frame = frame_of(n)
    within = draw(st.integers(1, frame.full_mask))
    bits = [1 << i for i in range(n) if within >> i & 1]

    def operand():
        picks = draw(st.lists(st.integers(1, (1 << len(bits)) - 1),
                              min_size=1, max_size=8, unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(picks), max_size=len(picks)))
        total = math.fsum(weights)
        return MassFunction(frame, {
            sum(bit for k, bit in enumerate(bits) if pick >> k & 1): w / total
            for pick, w in zip(picks, weights)
        })

    ms = [operand() for _ in range(draw(st.integers(1, 3)))]
    try:
        path = draw(st.sampled_from(["auto", "sparse", "commonality"]))
        return combine_all(ms, path=path).combined, ms
    except TotalConflictError:
        return ms[0], ms[:1]


@settings(max_examples=300, deadline=None)
@given(_results_in_a_core())
def test_result_intervals_in_a_core_near_exact(case):
    m, ms = case
    assert_intervals_near_exact(m, ms)


@settings(max_examples=200)
@given(mass_functions(min_n=1, max_n=8, max_foci=12))
def test_core_is_the_union_of_the_foci(m):
    assert m.core() == functools.reduce(operator.or_, (mask for mask, _ in m.items()))


def test_core_computed_once():
    class CountingDict(dict):
        iterations = 0

        def __iter__(self):
            CountingDict.iterations += 1
            return super().__iter__()

    trusted = MassFunction._normalised(ABC, {0b001: 0.25, 0b011: 0.75}, (1.0, 0.75, 0.0))
    for m in (abc_mass(), trusted):
        core = functools.reduce(operator.or_, (mask for mask, _ in m.items()))
        m._focal = CountingDict(m._focal)
        CountingDict.iterations = 0
        assert [m.core(), m.core()] == [core, core]
        m.singleton_intervals()
        assert m.core() == core
        assert CountingDict.iterations == 1


def test_singleton_intervals_one_outcome_frame():
    # a total within 1e-12 of 1 is kept verbatim, yet Bel of the frame is 1
    m = MassFunction(Frame(("a",)), {0b1: 1.0 - 5e-13})
    assert m.singleton_intervals() == (m.interval(0b1),) == (BeliefInterval(1.0, 1.0),)


@settings(max_examples=100)
@given(mass_functions())
def test_commonality_monotone_under_supersets(m):
    q = m.commonality_vector()
    for mask in range(m.frame.full_mask + 1):
        for i in range(m.frame.n):
            wider = mask | (1 << i)
            assert q[wider] <= q[mask] + 1e-12


class TestSerialization:
    def test_round_trip(self):
        m = abc_mass()
        doc = m.to_dict()
        assert MassFunction.from_dict(doc) == m

    def test_subsets_are_label_lists(self):
        doc = abc_mass().to_dict()
        assert doc["focal"][0]["subset"] == ["a"]
        assert all(isinstance(e["subset"], list) for e in doc["focal"])

    def test_survives_frame_reordering(self):
        m = abc_mass()
        doc = m.to_dict()
        reordered = Frame(("c", "b", "a"))
        m2 = MassFunction.from_dict(doc, frame=reordered)
        for labels in (("a",), ("a", "b"), ("b", "c")):
            assert m2.belief(reordered.mask_of(labels)) == pytest.approx(
                m.belief(ABC.mask_of(labels)), abs=1e-12
            )

    def test_label_set_mismatch_rejected(self):
        doc = abc_mass().to_dict()
        with pytest.raises(FrameMismatchError):
            MassFunction.from_dict(doc, frame=Frame(("a", "b", "x")))

    def test_json_stable(self):
        doc = abc_mass().to_dict()
        assert json.dumps(doc) == json.dumps(abc_mass().to_dict())


@settings(max_examples=100)
@given(mass_functions())
def test_serialization_round_trip_property(m):
    assert MassFunction.from_dict(m.to_dict()) == m
