import functools
import gc
import math
import operator
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evidential.belief import BeliefInterval, Frame, MassFunction
from evidential.combine import (
    CombinationResult,
    combine_all,
    dempster_combine,
    fast_combine_via_commonality,
)
from evidential.errors import FrameMismatchError, TotalConflictError
from evidential.evaluate import evaluate_set
from evidential.extract import BpaSet
from evidential import combine, lattice

from helpers import (
    combine_oracle,
    exact_combine,
    exact_lattice_combine,
    exact_singleton_intervals,
    fold_reference,
    frame_of,
    full_lattice_combine,
    heavy_conflict_folds,
    mass_function_lists,
    masses_on,
    max_mass_diff,
    memo_entries,
    random_mass,
    singleton_intervals_reference,
    synthetic_2b,
)

AB = Frame(("a", "b"))


def simple(frame, labels, s):
    return MassFunction.from_labels(frame, {tuple(labels): s, frame.labels: 1.0 - s})


class TestDempsterCombine:
    def test_canonical_example(self):
        m1 = simple(AB, ["a"], 0.6)
        m2 = simple(AB, ["b"], 0.5)
        result = dempster_combine(m1, m2)
        assert result.conflict == pytest.approx(0.3, abs=1e-12)
        assert result.combined.mass(AB.bit("a")) == pytest.approx(3 / 7, abs=1e-12)
        assert result.combined.mass(AB.bit("b")) == pytest.approx(2 / 7, abs=1e-12)
        assert result.combined.mass(AB.full_mask) == pytest.approx(2 / 7, abs=1e-12)

    def test_vacuous_identity_exact(self):
        m = simple(AB, ["a"], 0.6)
        result = dempster_combine(MassFunction.vacuous(AB), m)
        assert result.conflict == 0.0
        assert dict(result.combined.items()) == dict(m.items())

    def test_total_conflict(self):
        m1 = MassFunction.from_labels(AB, {("a",): 1.0})
        m2 = MassFunction.from_labels(AB, {("b",): 1.0})
        with pytest.raises(TotalConflictError) as err:
            dempster_combine(m1, m2)
        assert err.value.conflict == pytest.approx(1.0)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatchError):
            dempster_combine(MassFunction.vacuous(AB), MassFunction.vacuous(frame_of(3)))

    def test_repeat_call_returns_cached_result(self):
        m1 = simple(AB, ["a"], 0.6)
        m2 = simple(AB, ["b"], 0.5)
        # dempster_combine itself is pure: no cache, neither operand touched
        direct = dempster_combine(m1, m2)
        assert dempster_combine(m1, m2) == direct
        assert dempster_combine(m1, m2).combined is not direct.combined
        assert m1._combinations == {} and m2._combinations == {}
        # the sparse fold keeps the step on its left operand, and the whole
        # fold on its first operand under the requested path and the ids
        first = combine_all([m1, m2], path="sparse")
        assert first.combined == direct.combined
        assert first.conflict == 1.0 - (1.0 - direct.conflict)
        assert combine_all([m1, m2], path="sparse") is first
        node = m1._combinations[id(m2)]
        assert node[0] is m2 and node[1] is first.combined and node[2] == 1.0 - direct.conflict
        assert m1._combinations[("sparse", id(m1), id(m2))] is first
        # "auto" is a key of its own with a result of its own, built on the
        # same chain
        auto = combine_all([m1, m2], path="auto")
        assert auto is not first and auto == first
        assert auto.combined is first.combined
        assert m1._combinations[("auto", id(m1), id(m2))] is auto
        assert combine_all([m1, m2], path="auto") is auto
        # keyed on the right operand's identity: an equal copy is combined anew
        again = combine_all([m1, simple(AB, ["b"], 0.5)], path="sparse")
        assert again is not first
        assert again == first


class TestFoldMemo:
    def test_repeated_fold_is_one_lookup(self, monkeypatch):
        frame = frame_of(3)
        ms = [simple(frame, ["a"], 0.7), simple(frame, ["a", "b"], 0.6), simple(frame, ["c"], 0.2)]
        first = combine_all(ms)
        for name in ("dempster_combine", "_shared_frame", "_prefer_dense"):
            monkeypatch.setattr(combine, name, _unexpected(name))
        assert combine_all(ms) is first
        assert combine_all(tuple(ms)) is first

    def test_prefix_chain_shared_by_longer_fold(self, monkeypatch):
        frame = frame_of(3)
        ms = [simple(frame, ["a"], 0.7), simple(frame, ["a", "b"], 0.6), simple(frame, ["c"], 0.2)]
        prefix = combine_all(ms[:2])
        calls = []
        inner = combine.dempster_combine
        monkeypatch.setattr(combine, "dempster_combine", lambda m1, m2: calls.append(m1) or inner(m1, m2))
        whole = combine_all(ms)
        # only the last step is new, and it starts from the prefix's result
        assert calls == [prefix.combined]
        step1 = dempster_combine(ms[0], ms[1])
        step2 = dempster_combine(step1.combined, ms[2])
        assert whole.conflict == 1.0 - (1.0 - step1.conflict) * (1.0 - step2.conflict)

    def test_fold_started_on_a_step_result_counts_its_own_conflict(self):
        frame = frame_of(3)
        ms = [simple(frame, ["a"], 0.7), simple(frame, ["b"], 0.6), simple(frame, ["c"], 0.2)]
        whole = combine_all(ms, path="sparse")
        middle = combine_all(ms[:2], path="sparse").combined
        tail = combine_all([middle, ms[2]], path="sparse")
        assert tail.combined is whole.combined
        assert tail.conflict == 1.0 - (1.0 - dempster_combine(middle, ms[2]).conflict)
        assert tail.conflict != whole.conflict
        assert combine_all([middle, ms[2]], path="sparse") is tail
        # and the other way round: the chain begun on the step result
        other = [simple(frame, ["a"], 0.5), simple(frame, ["b"], 0.4), simple(frame, ["a", "c"], 0.3)]
        middle = combine_all(other[:2], path="sparse").combined
        tail = combine_all([middle, other[2]], path="sparse")
        whole = combine_all(other, path="sparse")
        assert whole.combined is tail.combined
        assert_same_fold(whole, fold_reference(other, "sparse"))

    def test_auto_never_answered_by_forced_sparse(self):
        """A tuple "auto" resolves dense: its forced "sparse" result is kept,
        but the "auto" call still takes the commonality product and stores
        nothing."""
        frame = frame_of(4)
        rng = np.random.default_rng(5)
        ms = [random_mass(frame, rng, max_foci=15) for _ in range(4)]
        assert combine._prefer_dense(ms, frame)
        sparse = combine_all(ms, path="sparse")
        memo = ms[0]._combinations = _Watched(ms[0]._combinations)
        assert memo[("sparse", *map(id, ms))] is sparse
        memo.touched.clear()
        auto = combine_all(ms, path="auto")
        assert auto is not sparse
        assert_same_fold(auto, fast_combine_via_commonality(ms))
        assert memo.touched == ["get"]
        # and the dense result never answers a "sparse" call
        assert combine_all(ms, path="sparse") is sparse

    def test_commonality_path_never_touches_the_memo(self):
        ms = [simple(AB, ["a"], 0.6), simple(AB, ["b"], 0.5)]
        sparse = combine_all(ms, path="sparse")
        memo = ms[0]._combinations = _Watched(ms[0]._combinations)
        dense = combine_all(ms, path="commonality")
        assert dense is not sparse
        assert memo.touched == []

    def test_transient_operands(self):
        """Operands dropped after their fold, then new ones allocated in
        their place: every fold is still that of its own operands."""
        frame = frame_of(3)
        base = simple(frame, ["a"], 0.7)
        for trial in range(200):
            s = 0.05 + 0.9 * (trial % 17) / 17
            labels = [["b"], ["a", "c"], ["c"]][trial % 3]
            others = [simple(frame, labels, s), simple(frame, ["a", "b"], 1.0 - s)]
            assert_same_fold(combine_all([base, *others]), fold_reference([base, *others]))
            del others
        # every id a whole-fold key names is an operand the chain still holds
        named = {i for key in base._combinations if not isinstance(key, int) for i in key[1:]}
        held = {id(base)}
        held |= {id(node[0]) for key, node in memo_entries(base) if isinstance(key, int)}
        assert len(named) > 200 and named <= held


class _Watched(dict):
    """A fold memo that records every read and write made through it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.touched = []

    def get(self, *args):
        self.touched.append("get")
        return super().get(*args)

    def setdefault(self, *args):
        self.touched.append("setdefault")
        return super().setdefault(*args)

    def __getitem__(self, key):
        self.touched.append("getitem")
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        self.touched.append("setitem")
        super().__setitem__(key, value)


def assert_same_fold(got, expected):
    """Masses, conflict and singleton plausibilities equal, repr for repr."""
    assert repr(got.conflict) == repr(expected.conflict)
    assert {mask: repr(v) for mask, v in got.combined.items()} == {
        mask: repr(v) for mask, v in expected.combined.items()
    }
    assert repr(got.combined.singleton_plausibilities()) == repr(
        expected.combined.singleton_plausibilities()
    )


@st.composite
def shared_prefix_calls(draw):
    """A pool of operands, fold lists that share prefixes of one trunk list,
    and every (list, path) call twice over, in a shuffled order."""
    frame = frame_of(draw(st.integers(2, 4)))
    pool = [draw(masses_on(frame, max_foci=4)) for _ in range(draw(st.integers(2, 4)))]
    index = st.integers(0, len(pool) - 1)
    trunk = draw(st.lists(index, min_size=1, max_size=5))
    tails = draw(st.lists(
        st.tuples(st.integers(1, len(trunk)), st.lists(index, max_size=2)), min_size=1, max_size=5
    ))
    lists = [trunk] + [trunk[:k] + tail for k, tail in tails]
    calls = [(ops, path) for ops in lists for path in ("auto", "sparse", "commonality")]
    return pool, draw(st.permutations(calls * 2))


@settings(max_examples=200, deadline=None)
@given(shared_prefix_calls())
def test_memoized_folds_equal_reference_fold(case):
    pool, calls = case
    for ops, path in calls:
        ms = [pool[i] for i in ops]
        try:
            expected = fold_reference(ms, path)
        except TotalConflictError as exc:
            with pytest.raises(TotalConflictError) as err:
                combine_all(ms, path=path)
            assert err.value.step == exc.step
            continue
        assert_same_fold(combine_all(ms, path=path), expected)


def _unexpected(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called on a repeated fold")
    return fail


def _stored_results(m):
    """Every CombinationResult m's fold memo keeps, down its chains of nodes."""
    return [value for key, value in memo_entries(m) if not isinstance(key, int)]


def _live_mass_functions():
    return sum(isinstance(o, MassFunction) for o in gc.get_objects())


def test_cached_results_freed_without_cycle_collection():
    doc, cases, intervals = synthetic_2b()
    gc.collect()
    gc.disable()
    try:
        before = _live_mass_functions()
        bpa = BpaSet.from_dict(doc)
        report = evaluate_set(cases, bpa, intervals)
        refs = [
            weakref.ref(result)
            for m in bpa.entries.values()
            for result in _stored_results(m)
        ]
        steps = sum(
            isinstance(key, int) for m in bpa.entries.values() for key, _ in memo_entries(m)
        )
        assert len(refs) > len(bpa.entries)
        assert all(ref() is not None for ref in refs)  # kept by the memo
        assert _live_mass_functions() >= before + len(bpa.entries) + steps
        del bpa  # the report holds intervals only, never a mass function
        assert all(ref() is None for ref in refs)
        # so is every step's mass function, which no weakref can watch
        assert _live_mass_functions() == before
    finally:
        gc.enable()
    assert report.evaluated == len(cases)


@settings(max_examples=200)
@given(mass_function_lists(count=2))
def test_commutativity(ms):
    m1, m2 = ms
    try:
        ab = dempster_combine(m1, m2)
        ba = dempster_combine(m2, m1)
    except TotalConflictError:
        assume(False)
    assert max_mass_diff(ab.combined, ba.combined) <= 1e-12
    assert abs(ab.conflict - ba.conflict) <= 1e-12


@settings(max_examples=150)
@given(mass_function_lists(count=3))
def test_associativity(ms):
    try:
        left = dempster_combine(dempster_combine(ms[0], ms[1]).combined, ms[2])
        right = dempster_combine(ms[0], dempster_combine(ms[1], ms[2]).combined)
    except TotalConflictError:
        assume(False)
    assert max_mass_diff(left.combined, right.combined) <= 1e-9


@settings(max_examples=200)
@given(mass_function_lists(count=2, max_n=4))
def test_pairwise_matches_brute_force_oracle(ms):
    m1, m2 = ms
    masses, conflict = combine_oracle(m1, m2)
    assume(conflict < 1.0 - 1e-9)
    result = dempster_combine(m1, m2)
    assert abs(result.conflict - conflict) <= 1e-12
    for mask, value in masses.items():
        assert result.combined.mass(mask) == pytest.approx(value, abs=1e-12)


class TestCombineAll:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine_all([])

    def test_single_passes_through(self):
        m = simple(AB, ["a"], 0.6)
        result = combine_all([m])
        assert result.combined is m
        assert result.conflict == 0.0

    def test_vacuous_fold(self):
        vac = MassFunction.vacuous(AB)
        result = combine_all([vac, vac, vac])
        assert result.combined == vac
        assert result.conflict == 0.0

    def test_order_independence(self):
        m1 = simple(AB, ["a"], 0.6)
        m2 = simple(AB, ["b"], 0.5)
        fwd = combine_all([m1, m2])
        rev = combine_all([m2, m1])
        assert max_mass_diff(fwd.combined, rev.combined) <= 1e-12

    def test_aggregate_conflict_formula(self):
        frame = frame_of(3)
        ms = [
            simple(frame, ["a"], 0.7),
            simple(frame, ["b"], 0.6),
            simple(frame, ["a", "c"], 0.5),
        ]
        step1 = dempster_combine(ms[0], ms[1])
        step2 = dempster_combine(step1.combined, ms[2])
        expected = 1.0 - (1.0 - step1.conflict) * (1.0 - step2.conflict)
        result = combine_all(ms, path="sparse")
        assert result.conflict == pytest.approx(expected, abs=1e-12)

    def test_total_conflict_reports_step(self):
        frame = frame_of(3)
        ms = [
            MassFunction.from_labels(frame, {("a",): 1.0}),
            MassFunction.from_labels(frame, {("a",): 1.0}),
            MassFunction.from_labels(frame, {("b",): 1.0}),
        ]
        with pytest.raises(TotalConflictError) as err:
            combine_all(ms)
        assert err.value.step == 2

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            combine_all([MassFunction.vacuous(AB)] * 2, path="mystery")


class TestCommonalityPath:
    def test_matches_pairwise_on_canonical_example(self):
        m1 = simple(AB, ["a"], 0.6)
        m2 = simple(AB, ["b"], 0.5)
        sparse = combine_all([m1, m2], path="sparse")
        dense = fast_combine_via_commonality([m1, m2])
        assert max_mass_diff(sparse.combined, dense.combined) <= 1e-12
        assert abs(sparse.conflict - dense.conflict) <= 1e-12

    def test_single_input_unchanged(self):
        m = simple(AB, ["a"], 0.6)
        result = fast_combine_via_commonality([m])
        assert result.combined is m
        assert result.conflict == 0.0

    def test_total_conflict(self):
        m1 = MassFunction.from_labels(AB, {("a",): 1.0})
        m2 = MassFunction.from_labels(AB, {("b",): 1.0})
        with pytest.raises(TotalConflictError):
            fast_combine_via_commonality([m1, m2])

    def test_oversized_frame_rejected(self):
        frame = Frame(tuple(f"x{i}" for i in range(21)))
        with pytest.raises(ValueError, match="at most"):
            fast_combine_via_commonality([MassFunction.vacuous(frame)] * 2)

    def test_conflict_clamped_at_zero(self):
        """The inversion leaves -2^-53 on the empty set for this pair, whose
        true conflict is 0; the dense path reports 0.0, as the sparse does."""
        abc = frame_of(3)
        m1 = MassFunction(abc, {0b011: 0.8, 0b100: 0.2})
        m2 = MassFunction(abc, {0b110: 0.2, 0b101: 0.8})
        assert combine_all([m1, m2], path="sparse").conflict == 0.0
        assert fast_combine_via_commonality([m1, m2]).conflict == 0.0

    def test_conflict_never_negative(self):
        rng = np.random.default_rng(18)
        for _ in range(2000):
            frame = frame_of(int(rng.integers(2, 7)))
            ms = [random_mass(frame, rng) for _ in range(int(rng.integers(2, 6)))]
            try:
                conflict = fast_combine_via_commonality(ms).conflict
            except TotalConflictError:
                continue
            assert conflict >= 0.0

    def test_random_against_sparse(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            frame = frame_of(int(rng.integers(2, 7)))
            ms = [random_mass(frame, rng) for _ in range(int(rng.integers(2, 5)))]
            try:
                sparse = combine_all(ms, path="sparse")
            except TotalConflictError:
                continue
            dense = fast_combine_via_commonality(ms)
            assert max_mass_diff(sparse.combined, dense.combined) <= 1e-9
            assert abs(sparse.conflict - dense.conflict) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(mass_function_lists(count=3, max_n=6))
def test_commonality_path_property(ms):
    try:
        sparse = combine_all(ms, path="sparse")
    except TotalConflictError:
        assume(False)
    dense = fast_combine_via_commonality(ms)
    assert max_mass_diff(sparse.combined, dense.combined) <= 1e-9


@settings(max_examples=100)
@given(mass_function_lists(count=2, max_n=5))
def test_auto_path_agrees_with_sparse(ms):
    try:
        sparse = combine_all(ms, path="sparse")
    except TotalConflictError:
        assume(False)
    auto = combine_all(ms, path="auto")
    assert max_mass_diff(sparse.combined, auto.combined) <= 1e-9


def _submasks(mask):
    """Every non-empty subset of mask."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _core_operand(frame, rng, kind):
    """One operand whose focal sets lie inside a random core: the whole frame
    a third of the time, otherwise a random non-empty subset of it."""
    full = frame.full_mask
    core = full if rng.random() < 1 / 3 else int(rng.integers(1, full + 1))
    bits = [1 << i for i in range(frame.n) if core >> i & 1]
    if kind == "consonant":
        order = rng.permutation(bits).tolist()
        chain = np.cumsum(order).tolist()
        cut = sorted(set(rng.integers(0, len(chain), size=3).tolist()) | {len(chain) - 1})
        foci = [chain[i] for i in cut]
    elif kind == "all-subsets":
        foci = list(_submasks(core))
    elif kind == "conflict":
        small = [mask for mask in _submasks(core) if mask.bit_count() <= 2][:64]
        foci = rng.choice(small, size=min(int(rng.integers(1, 4)), len(small)), replace=False)
    else:
        subsets = list(_submasks(core))[:512]
        foci = [*rng.choice(subsets, size=min(int(rng.integers(1, 6)), len(subsets))), core]
    foci = sorted(set(int(f) for f in foci))
    weights = 10.0 ** -rng.uniform(0.0, 8.0 if kind == "conflict" else 1.0, size=len(foci))
    weights /= weights.sum()
    return MassFunction(frame, dict(zip(foci, weights.tolist())))


def _outcome(combine, ms):
    """Everything a caller can see of a combination: its items in order and
    the repr of its conflict, or the conflict of the TotalConflictError."""
    try:
        result = combine(ms)
    except TotalConflictError as exc:
        return "total", repr(exc.conflict)
    return list(result.combined.items()), repr(result.conflict)


def _core_operand_lists(seed, per_n):
    """per_n lists of 2-5 operands for each n = 1-12, half of one kind each."""
    rng = np.random.default_rng(seed)
    kinds = ["consonant", "restricted", "all-subsets", "conflict"]
    for n in range(1, 13):
        frame = frame_of(n)
        for _ in range(per_n):
            count = int(rng.integers(2, 6))
            if rng.random() < 0.5:
                picked = rng.choice(kinds, size=count).tolist()
            else:
                picked = [kinds[int(rng.integers(0, len(kinds)))]] * count
            yield [_core_operand(frame, rng, kind) for kind in picked]


def _common_core(ms):
    """Intersection of the operands' unions of focal sets, from the foci."""
    core = ms[0].frame.full_mask
    for m in ms:
        core &= functools.reduce(operator.or_, (mask for mask, _ in m.items()))
    return core


class TestCommonCore:
    """The dense path on the common core gives the whole-lattice path's bits."""

    def test_matches_full_lattice_bit_for_bit(self):
        totals = cores = whole = 0
        for ms in _core_operand_lists(seed=14, per_n=40):
            expected = _outcome(full_lattice_combine, ms)
            assert _outcome(fast_combine_via_commonality, ms) == expected
            core = _common_core(ms)
            totals += expected[0] == "total"
            cores += core == 0
            whole += core == ms[0].frame.full_mask
        # the sweep reaches total conflict, empty cores and whole-frame cores
        assert min(totals, cores, whole) >= 20

    def test_integer_core_equals_commonality_rule(self):
        """The AND of the operands' int cores is the old rule's core: the
        singletons x with Q_i({x}) > 0 for every operand."""
        for seed, per_n in ((14, 40), (5, 10)):
            for ms in _core_operand_lists(seed=seed, per_n=per_n):
                singletons = 1 << np.arange(ms[0].frame.n)
                positive = np.minimum.reduce(
                    [m.commonality_vector()[singletons] for m in ms]) > 0.0
                old = functools.reduce(operator.or_, singletons[positive].tolist(), 0)
                assert functools.reduce(operator.and_, (m.core() for m in ms)) == old

    def test_result_intervals_near_exact_fold(self):
        """Within 2 * k * eps of the exact fold, with Bel the whole-frame
        walk's bit for bit; foci of up to 4096 subsets, hence the lattice
        oracle."""
        smaller = 0
        for ms in _core_operand_lists(seed=14, per_n=40):
            try:
                m = fast_combine_via_commonality(ms).combined
            except TotalConflictError:
                continue
            exact, _ = exact_lattice_combine(ms)
            bound = Fraction(2 * len(ms) * EPS)
            intervals = m.singleton_intervals()
            for got, (bel, pl) in zip(intervals, exact_singleton_intervals(exact, m.frame.n)):
                assert abs(Fraction(got.lower) - bel) <= bound, ms
                assert abs(Fraction(got.upper) - pl) <= bound, ms
            walked = singleton_intervals_reference(m)
            assert [i.lower for i in intervals] == [i.lower for i in walked]
            smaller += m.core() != m.frame.full_mask
        assert smaller >= 20

    def test_heavy_conflict_folds_match_full_lattice(self):
        for ms in heavy_conflict_folds(seed=23, count=300):
            assert _outcome(fast_combine_via_commonality, ms) == _outcome(full_lattice_combine, ms)

    def test_empty_core_is_total_conflict(self):
        frame = frame_of(4)
        m1 = MassFunction(frame, {0b0001: 0.5, 0b0011: 0.5})
        m2 = MassFunction(frame, {0b0100: 0.25, 0b1100: 0.75})
        with pytest.raises(TotalConflictError) as err:
            fast_combine_via_commonality([m1, m2])
        q1, q2 = m1.commonality_vector(), m2.commonality_vector()
        assert repr(err.value.conflict) == repr(float(1.0 * q1[0] * q2[0]))
        assert _outcome(full_lattice_combine, [m1, m2]) == ("total", repr(err.value.conflict))

    def test_inverts_on_the_core_only(self, monkeypatch):
        sizes = []
        transform = lattice.superset_diff

        def spy(arr, n):
            assert n > 0 and len(arr) == 1 << n
            sizes.append(n)
            transform(arr, n)

        monkeypatch.setattr(lattice, "superset_diff", spy)
        for ms in _core_operand_lists(seed=5, per_n=10):
            core = _common_core(ms)
            sizes.clear()
            _outcome(fast_combine_via_commonality, ms)
            assert sizes == ([core.bit_count()] if core else [])


def _combine_or_none(ms, path):
    try:
        return combine_all(ms, path=path)
    except TotalConflictError:
        return None


class TestHeavyConflict:
    """Both paths divide by the surviving mass they recover and share one
    total-conflict rule, so they agree on masses and on which inputs raise."""

    def test_near_total_pair_renormalises_on_both_paths(self):
        x = 1.0 - 1e-8
        m1 = MassFunction.from_labels(AB, {("a",): x, ("b",): 1.0 - x})
        m2 = MassFunction.from_labels(AB, {("b",): x, ("a",): 1.0 - x})
        sparse = combine_all([m1, m2], path="sparse")
        dense = combine_all([m1, m2], path="commonality")
        for result in (sparse, dense):
            assert result.combined.mass(AB.bit("a")) == pytest.approx(0.5, abs=1e-9)
            assert result.combined.mass(AB.bit("b")) == pytest.approx(0.5, abs=1e-9)
        assert max_mass_diff(sparse.combined, dense.combined) <= 1e-9
        assert abs(sparse.conflict - dense.conflict) <= 1e-9

    def test_running_product_decides_total_conflict(self):
        # every step keeps at least 1e-6 of its mass, but the running product
        # prod(1 - k_step) first falls to 1e-12 or below at operand 5
        frame = frame_of(4)
        a = MassFunction.from_labels(frame, {("a",): 0.999999, frame.labels: 1e-6})
        b = MassFunction.from_labels(frame, {("b",): 0.999999, frame.labels: 1e-6})
        ms = [a, b] * 4
        with pytest.raises(TotalConflictError) as err:
            combine_all(ms, path="sparse")
        assert err.value.step == 5
        with pytest.raises(TotalConflictError):
            combine_all(ms, path="commonality")

    def test_seeded_sweep_paths_agree(self):
        raised = 0
        for ms in heavy_conflict_folds(seed=0, count=3000):
            sparse = _combine_or_none(ms, "sparse")
            dense = _combine_or_none(ms, "commonality")
            assert (sparse is None) == (dense is None), ms
            if sparse is None:
                raised += 1
                continue
            assert max_mass_diff(sparse.combined, dense.combined) <= 1e-9, ms
            assert abs(sparse.conflict - dense.conflict) <= 1e-9, ms
        assert 0 < raised < 3000  # the sweep exercises both verdicts


# Against the exact rational fold, each path's masses, conflict and singleton
# intervals are within 2 * k * EPS, k the operand count. Over 28 000 folds
# (heavy_conflict_folds seeds 0-7 and random_mass lists, n <= 8, <= 6 foci)
# the worst error seen was k * EPS: one operand whose float masses miss 1 by
# an ulp, in its plausibility.
EPS = 2.0**-52
PATHS = ("sparse", "commonality")


def assert_near_exact(ms, path):
    """Either the path and the exact fold both see total conflict (exact
    surviving mass at most 1e-12), or the result is within the bound."""
    exact, conflict = exact_combine(ms)
    try:
        result = combine_all(ms, path=path)
    except TotalConflictError:
        assert 1 - conflict <= Fraction(1e-12), (path, ms)
        return
    assert 1 - conflict > Fraction(1e-12), (path, ms)
    bound = Fraction(2 * len(ms) * EPS)
    got = dict(result.combined.items())
    for mask in got.keys() | exact.keys():
        assert abs(Fraction(got.get(mask, 0.0)) - exact.get(mask, 0)) <= bound, (path, ms)
    assert abs(Fraction(result.conflict) - conflict) <= bound, (path, ms)
    expected = exact_singleton_intervals(exact, ms[0].frame.n)
    for interval, (bel, pl) in zip(result.combined.singleton_intervals(), expected):
        assert abs(Fraction(interval.lower) - bel) <= bound, (path, ms)
        assert abs(Fraction(interval.upper) - pl) <= bound, (path, ms)


@settings(max_examples=150, deadline=None)
@given(
    ms=st.integers(1, 8).flatmap(lambda k: mass_function_lists(k, min_n=1, max_n=8, max_foci=6)),
    path=st.sampled_from(PATHS),
)
def test_paths_near_exact_fold(ms, path):
    assert_near_exact(ms, path)


@pytest.mark.parametrize("path", PATHS)
def test_heavy_conflict_folds_near_exact_fold(path):
    for ms in heavy_conflict_folds(seed=31, count=400):
        assert_near_exact(ms, path)


@pytest.mark.parametrize("path", PATHS)
def test_twelve_operand_folds_near_exact_fold(path):
    """Long folds: the Pl each step hands on compounds one rounding per step."""
    rng = np.random.default_rng(37)
    for ms in heavy_conflict_folds(seed=41, count=60):
        frame = ms[0].frame
        assert_near_exact([random_mass(frame, rng) for _ in range(12)], path)
        assert_near_exact((ms * 12)[:12], path)


def test_exact_lattice_oracle_equals_exact_fold():
    rng = np.random.default_rng(43)
    lists = [*heavy_conflict_folds(seed=47, count=100)]
    for _ in range(100):
        frame = frame_of(int(rng.integers(1, 7)))
        lists.append([random_mass(frame, rng) for _ in range(int(rng.integers(1, 5)))])
    for ms in lists:
        assert exact_lattice_combine(ms) == exact_combine(ms)


@pytest.mark.parametrize("path", PATHS)
def test_outcomes_outside_the_core_read_zero(path):
    frame = frame_of(5)
    m1 = MassFunction(frame, {0b00011: 0.5, 0b00111: 0.5})
    m2 = MassFunction(frame, {0b00001: 0.25, 0b10011: 0.75})
    combined = combine_all([m1, m2], path=path).combined
    assert combined.core() == 0b00011
    intervals = combined.singleton_intervals()
    for i in (2, 3, 4):
        assert combined.singleton_plausibilities()[i] == 0.0
        assert repr(intervals[i]) == repr(BeliefInterval(0.0, 0.0))
    assert all(interval.upper > 0.0 for interval in intervals[:2])


class _FociSpy(dict):
    """A focal dict that counts every walk over its keys, values or items."""

    walks = 0

    def __iter__(self):
        _FociSpy.walks += 1
        return super().__iter__()

    def keys(self):
        _FociSpy.walks += 1
        return super().keys()

    def values(self):
        _FociSpy.walks += 1
        return super().values()

    def items(self):
        _FociSpy.walks += 1
        return super().items()


@pytest.mark.parametrize("path", PATHS)
def test_result_intervals_never_walk_the_foci(path):
    rng = np.random.default_rng(53)
    for _ in range(50):
        frame = frame_of(int(rng.integers(1, 9)))
        ms = [random_mass(frame, rng) for _ in range(int(rng.integers(2, 5)))]
        try:
            combined = combine_all(ms, path=path).combined
        except TotalConflictError:
            continue
        combined._focal = _FociSpy(combined._focal)
        _FociSpy.walks = 0
        intervals = combined.singleton_intervals()
        assert _FociSpy.walks == 0
        assert len(intervals) == frame.n


def test_support_reinforcement():
    # two simple supports on the same focus A reinforce: 1 - (1-s1)(1-s2)
    frame = frame_of(4)
    for s1, s2 in [(0.6, 0.5), (0.3, 0.9), (0.99, 0.01)]:
        m1 = simple(frame, ["a", "b"], s1)
        m2 = simple(frame, ["a", "b"], s2)
        result = dempster_combine(m1, m2)
        assert result.conflict == 0.0
        assert result.combined.mass(frame.mask_of(["a", "b"])) == pytest.approx(
            1.0 - (1.0 - s1) * (1.0 - s2), abs=1e-12
        )


def test_lattice_transforms_invert():
    rng = np.random.default_rng(3)
    for n in range(1, 8):
        arr = rng.random(1 << n)
        copy = arr.copy()
        lattice.superset_sum(copy, n)
        lattice.superset_diff(copy, n)
        assert np.allclose(copy, arr, atol=1e-12)


def _axis_slices(n, axis):
    lo = tuple(0 if i == axis else slice(None) for i in range(n))
    hi = tuple(1 if i == axis else slice(None) for i in range(n))
    return lo, hi


def _reference_transform(name, arr, n):
    """The 2x...x2 axis-by-axis walk that fixed the round-off of every report."""
    view = arr.reshape([2] * n)
    for axis in range(n):
        lo, hi = _axis_slices(n, axis)
        if name == "subset_sum":
            view[hi] += view[lo]
        elif name == "superset_sum":
            view[lo] += view[hi]
        else:
            view[lo] -= view[hi]


@pytest.mark.parametrize("name", ["subset_sum", "superset_sum", "superset_diff"])
def test_lattice_transforms_bit_exact_against_reference(name):
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        arr = rng.random(1 << n)
        expected = arr.copy()
        _reference_transform(name, expected, n)
        getattr(lattice, name)(arr, n)
        assert np.array_equal(arr, expected), (name, n)


@pytest.mark.parametrize("core", [0, 0b1, 0b1011010, 0b1111, 0b100000000000001])
def test_core_subsets_lists_every_subset_in_ascending_order(core):
    masks = lattice.core_subsets(core)
    assert masks.dtype == np.intp
    assert masks.tolist() == [mask for mask in range(core + 1) if mask & ~core == 0]
    bits = [1 << i for i in range(core.bit_length()) if core >> i & 1]
    assert [masks[1 << k] for k in range(len(bits))] == bits


def test_commonality_vectors_computed_once_per_operand(monkeypatch):
    calls = []
    transform = lattice.superset_sum

    def spy(arr, n):
        calls.append(n)
        transform(arr, n)

    monkeypatch.setattr(lattice, "superset_sum", spy)
    frame = frame_of(5)
    rng = np.random.default_rng(5)
    ms = [random_mass(frame, rng, max_foci=8) for _ in range(3)]
    first = fast_combine_via_commonality(ms)
    cached = [m.commonality_vector() for m in ms]
    snapshots = [q.copy() for q in cached]
    second = fast_combine_via_commonality(ms)
    assert len(calls) == 3
    assert first.combined == second.combined
    assert first.conflict == second.conflict
    for m, q, snapshot in zip(ms, cached, snapshots):
        assert m.commonality_vector() is q
        assert not q.flags.writeable
        assert np.array_equal(q, snapshot)


def test_subset_sum_scores_members():
    values = np.zeros(8)
    values[0b001] = 0.5
    values[0b010] = 0.3
    values[0b100] = 0.2
    lattice.subset_sum(values, 3)
    assert values[0b011] == pytest.approx(0.8)
    assert values[0b111] == pytest.approx(1.0)
