"""Shared fixtures: tiny frames, brute-force oracles, and hypothesis strategies.

The oracles deliberately re-derive everything by full powerset enumeration or
plain pairwise products so they stay independent of the sparse code paths
they check.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from evidential import lattice
from evidential.belief import BeliefInterval, Frame, MassFunction, clip_interval, is_vacuous
from evidential.combine import (
    CombinationResult,
    combine_all,
    dempster_combine,
    fast_combine_via_commonality,
)
from evidential.correlate import CorrelationMatrix
from evidential.errors import DataFormatError, NoEvidenceError, TotalConflictError
from evidential.evaluate import DiagnosisResult, observed_set
from evidential.extract import (
    _M3_PARAMS,
    M3_DEFAULT_VARIANT,
    BpaSet,
    FrequencyEntry,
    FrequencyTable,
    _proportions,
    build_frequency_table,
    check_method,
    extract_bpas,
)
from evidential.records import CaseRecord, EvidenceItemId, ReferenceIntervals, discretize
from evidential.synth import SynthConfig, generate_cases

LABELS = tuple("abcdefghijkl")


def frame_of(n: int) -> Frame:
    return Frame(LABELS[:n])


# --- mass-function invariants ------------------------------------------------

def assert_valid_mass(m: MassFunction) -> None:
    """Re-check what construction promises: masks on the frame, positive
    masses, none on the empty set, total within 1e-9 of 1."""
    for mask, value in m.items():
        m.frame.check_mask(mask)
        assert mask != 0, "empty set carries mass"
        assert value > 0.0, f"non-positive mass {value} on mask {mask:#x}"
    total = math.fsum(v for _, v in m.items())
    assert abs(total - 1.0) <= 1e-9, f"masses sum to {total}"


def is_consonant(m: MassFunction) -> bool:
    """True when the focal elements form a chain under set inclusion."""
    foci = sorted((mask for mask, _ in m.items()), key=int.bit_count)
    return all(a & b == a for a, b in zip(foci, foci[1:]))


# --- brute-force oracles ------------------------------------------------------

def bel_oracle(m: MassFunction, subset: int) -> float:
    """Belief by enumerating every subset of the frame."""
    n = m.frame.n
    return math.fsum(
        m.mass(s) for s in range(1, 1 << n) if s & ~subset == 0
    )


def pl_oracle(m: MassFunction, subset: int) -> float:
    n = m.frame.n
    return math.fsum(m.mass(s) for s in range(1, 1 << n) if s & subset)


def singleton_intervals_reference(m: MassFunction) -> tuple[BeliefInterval, ...]:
    """MassFunction.singleton_intervals as it was before it walked only the
    core: every focus adds its mass to each outcome of the whole frame that
    it lacks, and Pl({x}) is 1 minus the fsum of what x collected."""
    n = m.frame.n
    full = m.frame.full_mask
    without: list[list[float]] = [[] for _ in range(n)]
    for mask, value in m.items():
        rest = full & ~mask
        while rest:
            low = rest & -rest
            without[low.bit_length() - 1].append(value)
            rest ^= low
    return tuple(
        clip_interval(1.0 if n == 1 else m.mass(1 << i), 1.0 - math.fsum(without[i]))
        for i in range(n)
    )


def q_oracle(m: MassFunction, subset: int) -> float:
    n = m.frame.n
    return math.fsum(m.mass(s) for s in range(1, 1 << n) if s & subset == subset)


def combine_oracle(m1: MassFunction, m2: MassFunction) -> tuple[dict[int, float], float]:
    """Plain product-and-intersect combination; returns (masses, conflict)."""
    products: dict[int, float] = {}
    for a, va in m1.items():
        for b, vb in m2.items():
            products[a & b] = products.get(a & b, 0.0) + va * vb
    conflict = products.pop(0, 0.0)
    scale = 1.0 - conflict
    if scale <= 1e-12:
        return {}, conflict
    return {mask: v / scale for mask, v in products.items()}, conflict


def exact_combine(ms: list[MassFunction]) -> tuple[dict[int, Fraction], Fraction]:
    """Dempster's rule folded left to right in exact rational arithmetic.

    Every float is a dyadic rational, so nothing here rounds. Each operand is
    first scaled to total exactly 1, and each step divides its non-empty
    products by their sum. Returns (masses, conflict): the combined masses by
    mask and the true total conflict 1 - prod(1 - k_step). masses is empty
    when some step keeps no mass at all."""
    def normalised(masses):
        total = sum(masses.values())
        return {mask: value / total for mask, value in masses.items()}

    acc = normalised({mask: Fraction(v) for mask, v in ms[0].items()})
    kept = Fraction(1)
    for m in ms[1:]:
        operand = normalised({mask: Fraction(v) for mask, v in m.items()})
        products: dict[int, Fraction] = {}
        for a, va in acc.items():
            for b, vb in operand.items():
                products[a & b] = products.get(a & b, 0) + va * vb
        kept *= 1 - products.pop(0, 0)
        if not products:
            return {}, Fraction(1)
        acc = normalised(products)
    return acc, 1 - kept


def exact_lattice_combine(ms: list[MassFunction]) -> tuple[dict[int, Fraction], Fraction]:
    """exact_combine's (masses, conflict) by way of the subset lattice, for
    folds too large to multiply out pair by pair in rationals.

    Every float is an integer multiple of 2^-1074, so each operand's masses
    scale to exact integers. Their superset sums are the commonalities, the
    pointwise product is the unnormalised fold's commonality, and the inverse
    transform recovers its masses, all in integers. Dividing by the non-empty
    total once at the end equals normalising each operand and each step, since
    every normalisation is a constant factor. Costs O(k * n * 2^n) integer
    operations whatever the focal counts."""
    n = ms[0].frame.n
    size = 1 << n

    def transform(values, step):
        for i in range(n):
            bit = 1 << i
            for mask in range(size):
                if not mask & bit:
                    values[mask] = step(values[mask], values[mask | bit])

    product = [1] * size
    for m in ms:
        q = [0] * size
        for mask, value in m.items():
            q[mask] = int(Fraction(value) * 2**1074)
        transform(q, operator.add)
        product = [a * b for a, b in zip(product, q)]
    total = product[0]  # the product of the operands' scaled totals
    transform(product, operator.sub)
    surviving = total - product[0]
    if not surviving:
        return {}, Fraction(1)
    masses = {mask: Fraction(v, surviving) for mask, v in enumerate(product) if mask and v}
    return masses, Fraction(product[0], total)


def exact_singleton_intervals(masses: dict[int, Fraction], n: int) -> list[tuple[Fraction, Fraction]]:
    """(Bel, Pl) of every singleton of an n-outcome frame, exactly."""
    return [
        (Fraction(1) if n == 1 else masses.get(1 << i, Fraction(0)),
         sum((v for mask, v in masses.items() if mask >> i & 1), Fraction(0)))
        for i in range(n)
    ]


def full_lattice_combine(ms: list[MassFunction]) -> CombinationResult:
    """The dense path as it was before it was restricted to the common core:
    multiply every operand's commonality vector over the whole 2^n lattice,
    invert it, clamp the conflict at 0, and renormalise through the
    validating constructor."""
    if len(ms) == 1:
        return CombinationResult(ms[0], 0.0)
    n = ms[0].frame.n
    product = np.ones(1 << n)
    for m in ms:
        product *= m.commonality_vector()
    lattice.superset_diff(product, n)
    conflict = max(float(product[0]), 0.0)
    floor = 1e-15 * (1.0 - conflict)
    raw = {int(mask): float(product[mask]) for mask in np.nonzero(product > floor)[0] if mask}
    surviving = math.fsum(raw.values())
    if min(1.0 - conflict, surviving) <= 1e-12:
        raise TotalConflictError("all product mass fell on the empty set", conflict=conflict)
    combined = MassFunction(ms[0].frame, {mask: value / surviving for mask, value in raw.items()})
    return CombinationResult(combined, conflict)


def fold_reference(ms: list[MassFunction], path: str = "auto") -> CombinationResult:
    """combine_all without its memo: the left-to-right fold of pure
    dempster_combine steps, multiplying the running product of 1 - k_step in
    the same order, or the commonality product where path asks for it, or
    where "auto" finds the product of focal counts above n * 2^n. Raises
    TotalConflictError, with the step, where combine_all does."""
    frame = ms[0].frame
    if path == "auto":
        dense = (frame.n <= lattice.DENSE_MAX_OUTCOMES
                 and math.prod(len(m) for m in ms) > frame.n << frame.n)
        path = "commonality" if dense else "sparse"
    if path == "commonality":
        return fast_combine_via_commonality(ms)
    acc, kept = ms[0], 1.0
    for step, m in enumerate(ms[1:], start=1):
        try:
            result = dempster_combine(acc, m)
        except TotalConflictError:
            kept = 0.0
        else:
            acc = result.combined
            kept *= 1.0 - result.conflict
        if kept <= 1e-12:
            raise TotalConflictError(
                f"total conflict while folding operand {step}", conflict=1.0 - kept, step=step
            )
    return CombinationResult(acc, 1.0 - kept)


def memo_entries(m: MassFunction):
    """Every (key, value) of combine_all's fold memo on m and on each step
    result below it: an int key is a step node (right, result, 1 - k_step),
    whose result's own memo is walked in turn; a tuple key is a whole fold."""
    chain = [m]
    while chain:
        for key, value in chain.pop()._combinations.items():
            if isinstance(key, int):
                chain.append(value[1])
            yield key, value


def method3_reference(frame: Frame, freq, variant: str = M3_DEFAULT_VARIANT) -> MassFunction:
    """extract.method3 as it was before its normalisation was vectorised:
    one Python pass over the 2^n - 1 subset indices per step, with the
    cardinality of each mask from int.bit_count."""
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
    for i, v in enumerate(values):
        raw[1 << i] = v
    lattice.subset_sum(raw, n)
    raw[size - 1] = theta_score
    total = math.fsum(raw[1:])
    if total <= 0.0:
        raise ValueError("every subset scored zero; nothing to normalize")
    masses: dict[int, float] = {}
    if norm == "global":
        for mask in range(1, size):
            if raw[mask] > 0.0:
                masses[mask] = raw[mask] / total
    else:
        strata: list[list[float]] = [[] for _ in range(n + 1)]
        for mask in range(1, size):
            strata[mask.bit_count()].append(raw[mask])
        stratum_total = [math.fsum(vals) for vals in strata]
        active = sum(1 for t in stratum_total if t > 0.0)
        for mask in range(1, size):
            if raw[mask] > 0.0:
                masses[mask] = raw[mask] / (stratum_total[mask.bit_count()] * active)
    return MassFunction(frame, masses)


def diagnose_case_reference(
    case: CaseRecord, bpa: BpaSet, intervals: ReferenceIntervals, drop_params=()
) -> DiagnosisResult:
    """evaluate.diagnose_case as it was before the evidence index: build each
    item id, look it up in the entries, test every match for vacuity, and
    compute the observed focus afresh."""
    dropped = set(drop_params)
    reference = intervals.bounds
    found = []
    for param in sorted(case.values):
        bounds = reference.get(param)
        if bounds is None or param in dropped:
            continue
        item = EvidenceItemId(param, discretize(case.values[param], bounds))
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
        intervals=combined.singleton_intervals(),
        evidence_used=tuple(item for item, _ in informative),
    )


def parse_case_table_reference(path) -> tuple[list[str], list[CaseRecord]]:
    """formats.parse_case_table as it was before its one-comprehension rows:
    every cell stripped and converted on its own, every record built through
    the converting CaseRecord constructor."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "case_id" or header[1] != "outcome":
            raise DataFormatError(f"{path}: header must start with case_id,outcome")
        params = header[2:]
        if len(set(params)) != len(params):
            raise DataFormatError(f"{path}: duplicate parameter column")
        for param in params:
            if param != param.strip() or param.splitlines() != [param] or param.startswith("#"):
                raise DataFormatError(f"{path}: parameter name {param!r} must be non-empty, "
                                      "unpadded, on one line and not start with #")
        cases: list[CaseRecord] = []
        given: dict[str, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            case_id, outcome = row[0], row[1]
            if not case_id or not outcome:
                raise DataFormatError(f"{path}:{lineno}: case_id and outcome must be non-empty")
            values: dict[str, float] = {}
            for param, cell in zip(params, row[2:]):
                cell = cell.strip()
                if not cell:
                    continue
                try:
                    values[param] = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}:{lineno}: non-numeric value {cell!r} for {param}"
                    ) from None
            if case_id in given:
                k = given[case_id]
                while f"{case_id}#{k}" in given:
                    k += 1
                given[case_id] = k + 1
                warnings.warn(f"{path}: duplicate case_id {case_id!r}, keeping as {case_id}#{k}")
                case_id = f"{case_id}#{k}"
            given[case_id] = 2
            cases.append(CaseRecord(case_id, outcome, values))
    return params, cases


def frequency_table_reference(cases, intervals: ReferenceIntervals, frame: Frame) -> FrequencyTable:
    """extract.build_frequency_table as a row loop: one region lookup and one
    count per measured value, failing on the first offender in case order."""
    counts: dict[EvidenceItemId, list[int]] = {}
    for case in cases:
        outcome_idx = frame.index(case.outcome)
        for param, value in case.values.items():
            item = EvidenceItemId(param, intervals.region(param, value))
            counts.setdefault(item, [0] * frame.n)[outcome_idx] += 1
    return FrequencyTable(
        frame, {item: FrequencyEntry(tuple(row)) for item, row in sorted(counts.items())}
    )


def pearson_matrix_reference(cases, params, min_pairs: int) -> CorrelationMatrix:
    """correlate.pearson_matrix as it was before its columns were shared
    with the frequency table: the finiteness check as a row loop, and each
    column built case by case."""
    cases, params = list(cases), tuple(params)
    if not params:
        raise ValueError("no parameters to correlate")
    for case in cases:
        for p in params:
            if not math.isfinite(case.values.get(p, 0.0)):
                raise ValueError(f"case {case.case_id}: non-finite value {case.values[p]} for {p}")
    columns = {
        p: np.array([case.values.get(p, math.nan) for case in cases], dtype=float)
        for p in params
    }
    coefficients: dict[tuple[str, str], float] = {}
    for i, a in enumerate(params):
        for b in params[i + 1:]:
            xa, xb = columns[a], columns[b]
            shared = ~np.isnan(xa) & ~np.isnan(xb)
            if int(shared.sum()) < min_pairs:
                continue
            x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1]) for v in (xa[shared], xb[shared]))
            sx, sy = float(x.std()), float(y.std())
            if sx == 0.0 or sy == 0.0:
                continue
            r = float(((x - x.mean()) * (y - y.mean())).mean()) / (sx * sy)
            coefficients[(a, b) if a < b else (b, a)] = max(-1.0, min(1.0, r))
    return CorrelationMatrix(params, coefficients)


def pearson_reference(x: list[float], y: list[float]) -> float | None:
    """Pearson r by the plain moment formula on the unscaled columns, clipped
    to [-1, 1]; None when either column is constant."""
    x, y = np.array(x), np.array(y)
    sx, sy = float(x.std()), float(y.std())
    if sx == 0.0 or sy == 0.0:
        return None
    r = float(((x - x.mean()) * (y - y.mean())).mean()) / (sx * sy)
    return max(-1.0, min(1.0, r))


def max_mass_diff(m1: MassFunction, m2: MassFunction) -> float:
    masks = dict(m1.items()).keys() | dict(m2.items()).keys()
    return max(abs(m1.mass(mask) - m2.mass(mask)) for mask in masks)


def random_mass(frame: Frame, rng: np.random.Generator, max_foci: int = 6) -> MassFunction:
    full = frame.full_mask
    count = int(rng.integers(1, min(max_foci, full) + 1))
    foci = rng.choice(full, size=count, replace=False) + 1
    weights = rng.random(count) + 0.05
    weights = weights / weights.sum()
    return MassFunction(frame, {int(f): float(w) for f, w in zip(foci, weights)})


def conflicting_mass(frame: Frame, rng: np.random.Generator) -> MassFunction:
    """One to three foci of one or two outcomes, weights spread over 8 decades.

    Operands like these rarely share a focus, so folding a few of them throws
    away nearly all of the product mass.
    """
    small = [mask for mask in range(1, frame.full_mask + 1) if mask.bit_count() <= 2]
    count = min(int(rng.integers(1, 4)), len(small))
    foci = rng.choice(small, size=count, replace=False)
    weights = 10.0 ** -rng.uniform(0.0, 8.0, size=count)
    weights /= weights.sum()
    return MassFunction(frame, {int(f): float(w) for f, w in zip(foci, weights)})


def heavy_conflict_folds(seed: int, count: int):
    """count folds of 2-8 conflicting_mass operands on frames of 2-6 outcomes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        frame = frame_of(int(rng.integers(2, 7)))
        yield [conflicting_mass(frame, rng) for _ in range(int(rng.integers(2, 9)))]


def random_freq(n: int, rng: np.random.Generator, zero_prob: float = 0.3) -> list[float]:
    """Random frequency vector, often with exact zeros and exact ties."""
    counts = rng.integers(0, 10, size=n)
    if rng.random() < zero_prob:
        counts[rng.integers(0, n)] = 0
    if counts.sum() == 0:
        counts[int(rng.integers(0, n))] = 1
    total = counts.sum()
    return [int(c) / int(total) for c in counts]


def synthetic_2b(outcomes: int = 6, params: int = 6, cases: int = 300, test: int = 150):
    """A method-2b BPA set document, its held-out cases and their intervals.

    Each BpaSet.from_dict(doc) gives a set with mass functions of its own, so
    tests can compare a fresh set with one that has already diagnosed cases.
    Every case of the default size folds on the sparse path.
    """
    records, intervals = generate_cases(SynthConfig(outcomes, params, cases, seed=3))
    train, held_out = records[:-test], records[-test:]
    frame = Frame(tuple(sorted({c.outcome for c in train})))
    bpa = extract_bpas(build_frequency_table(train, intervals, frame), "2b")
    return bpa.to_dict(), held_out, intervals


# --- hypothesis strategies ------------------------------------------------------

def masses_on(frame: Frame, max_foci: int = 5) -> st.SearchStrategy[MassFunction]:
    full = frame.full_mask

    @st.composite
    def build(draw):
        count = draw(st.integers(1, min(max_foci, full)))
        foci = draw(
            st.lists(st.integers(1, full), min_size=count, max_size=count, unique=True)
        )
        weights = draw(
            st.lists(
                st.floats(0.01, 1.0, allow_nan=False),
                min_size=count,
                max_size=count,
            )
        )
        total = math.fsum(weights)
        return MassFunction(frame, {f: w / total for f, w in zip(foci, weights)})

    return build()


@st.composite
def mass_functions(draw, min_n: int = 2, max_n: int = 6, max_foci: int = 5):
    n = draw(st.integers(min_n, max_n))
    return draw(masses_on(frame_of(n), max_foci))


@st.composite
def mass_function_lists(draw, count: int, min_n: int = 2, max_n: int = 6, max_foci: int = 5):
    n = draw(st.integers(min_n, max_n))
    frame = frame_of(n)
    return [draw(masses_on(frame, max_foci)) for _ in range(count)]


@st.composite
def frequency_vectors(draw, min_n: int = 2, max_n: int = 8):
    """Count-based vectors so ties and zeros occur with exact equality."""
    n = draw(st.integers(min_n, max_n))
    counts = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    if sum(counts) == 0:
        counts[draw(st.integers(0, n - 1))] = 1
    total = sum(counts)
    return n, [c / total for c in counts]
