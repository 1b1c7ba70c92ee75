"""Combining independent evidence with Dempster's rule.

Two equivalent paths are provided. The sparse path intersects focal pairs
directly and is right whenever focal sets stay small. The dense path
multiplies the operands' commonality vectors pointwise and inverts the
product back to masses. Every focal set of a combination lies inside the
common core C, the intersection of the operands' cores (a core is the union
of an operand's focal sets, which MassFunction.core caches as an int mask),
so the dense path works on the 2^c subsets of C alone, where c = |C|. Each
mass function caches its commonality vector, so an operand costs one
O(n * 2^n) transform over its lifetime; each combination then costs O(2^c)
per operand plus one O(c * 2^c) inversion, regardless of focal count. That
wins once operands carry many foci (dense all-subsets assignments in
particular) or recur across many cases.

Both paths share one rule (Shafer 1976, ch. 3), applied by _renormalised.
The conflict k is the product mass that falls on the empty set. The surviving
mass is the fsum of the unnormalised non-empty masses, and every combination
divides by it rather than by 1 - k, which cancels under heavy conflict. A
combination is total conflict, and raises TotalConflictError, when 1 - k or
the surviving mass is at most 1e-12. The sparse fold also applies that
threshold to its running product prod(1 - k_step), so a fold whose steps
each keep a little, but whose product keeps less, is total conflict on both
paths, as it is for the dense path's aggregate.

Commonalities multiply under Dempster's rule, so each combination also hands
its result the singleton plausibilities Pl({x}) = Q({x}) at O(n) cost: the
unnormalised Q({x}) (Pl1(x) * Pl2(x) on the sparse path, the commonality
product at the core's singletons on the dense path, 0.0 outside the common
core), divided by the same surviving mass as the masses. A result's singleton
intervals then read m({x}) and Pl({x}) without walking its foci; against the
exact rational fold of k operands each bound is within 2 * k * eps.

dempster_combine is a pure function. combine_all's sparse fold memoizes in
the dict each mass function is made with: each step as a node on its left
operand (the step's combined mass function and its 1 - k), and each whole
fold as its CombinationResult on its first operand. A fold's operands come
from one finite BPA set, so cases that share a prefix of matched evidence
share the nodes of that prefix (each distinct prefix is combined once while
the set's mass functions live), and a case that repeats an earlier case's
evidence costs one dict lookup. The dense path keeps no such cache.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import lattice
from .belief import Frame, Mask, MassFunction
from .errors import FrameMismatchError, TotalConflictError

_MIN_SURVIVING_MASS = 1e-12  # surviving mass at or below this is total conflict
_DENSE_NOISE_FLOOR = 1e-15   # Mobius round-off cutoff, relative to 1 - k


@dataclass(frozen=True)
class CombinationResult:
    """Combined mass function plus the conflict mass discarded on the way."""

    combined: MassFunction
    conflict: float


def _shared_frame(ms: Sequence[MassFunction]) -> Frame:
    frame = ms[0].frame
    for m in ms[1:]:
        if m.frame is not frame and m.frame != frame:
            raise FrameMismatchError("mass functions live on different frames")
    return frame


def _renormalised(
    frame: Frame, raw: dict[Mask, float], conflict: float, commonalities: Iterable[float]
) -> CombinationResult:
    """Apply the total-conflict rule and rescale the unnormalised masses raw.

    Divides by the fsum of raw, the surviving mass this combination actually
    recovered, and raises TotalConflictError when 1 - conflict or that sum is
    at most _MIN_SURVIVING_MASS. The quotients, less any that underflow to 0,
    sum to 1 by construction, so the result skips the validating constructor.
    commonalities holds the unnormalised Q({x}) of each outcome in frame
    order, exactly 0.0 outside the common core; divided by the same surviving
    mass, it becomes the result's singleton plausibilities.
    """
    surviving = math.fsum(raw.values())
    if min(1.0 - conflict, surviving) <= _MIN_SURVIVING_MASS:
        raise TotalConflictError("all product mass fell on the empty set", conflict=conflict)
    combined = MassFunction._normalised(
        frame,
        {mask: q for mask, value in raw.items() if (q := value / surviving)},
        tuple([q / surviving for q in commonalities]),
    )
    return CombinationResult(combined, conflict)


def dempster_combine(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Combine two mass functions, discarding conflict and renormalizing.

    The conflict k is the fsum of the products whose focal intersections are
    empty; each surviving mass is divided by the fsum of all surviving
    products. Raises TotalConflictError when 1 - k or that sum is at most
    1e-12 (the module's one total-conflict rule). Neither operand is
    changed. The result's Pl({x}) is Pl1(x) * Pl2(x) over the same sum.

    fsum is correctly rounded, so neither the order of the products in a
    bucket nor skipping it for a bucket of one product changes a bit.
    """
    frame = _shared_frame((m1, m2))
    buckets: dict[Mask, list[float]] = {}
    for b, vb in m2.items():
        for a, va in m1.items():
            buckets.setdefault(a & b, []).append(va * vb)
    conflict = math.fsum(buckets.pop(0, ()))
    return _renormalised(
        frame,
        {mask: vals[0] if len(vals) == 1 else math.fsum(vals) for mask, vals in buckets.items()},
        conflict,
        map(operator.mul, m1.singleton_plausibilities(), m2.singleton_plausibilities()),
    )


def combine_all(ms: Sequence[MassFunction], path: str = "auto") -> CombinationResult:
    """Fold a list of mass functions into one, left to right.

    path picks the implementation: "sparse" folds pairwise, "commonality"
    goes through the dense lattice product, and "auto" switches to the dense
    path once the product of focal counts outgrows n * 2^n. The reported
    conflict is the total product mass lost across the whole fold,
    1 - prod(1 - k_step); the per-step conflicts are not additive.

    Both paths raise TotalConflictError on the same inputs. The sparse fold
    raises, with the failing step, when a step is total conflict or when its
    running product prod(1 - k_step) falls to 1e-12 or below, which is where
    the dense path finds its aggregate surviving mass gone.

    The sparse fold memoizes in its operands' memo dicts. Each step is a
    node on its left operand, under id(m): (m, the step's combined mass
    function, 1 - k_step); holding m keeps its id from being reused. The
    fold multiplies the nodes' 1 - k_step in step order, cached or not, and
    builds its one CombinationResult at the end, which it keeps on its first
    operand under (path, ids of the operands). That entry holds no operand:
    the chain of nodes hanging off the first operand holds every operand
    its key names. A repeated fold is one lookup, made before the frames are
    compared or a path is picked. The "commonality" path never touches the
    memo, "auto" and "sparse" calls are keyed apart, and a fold that "auto"
    resolves dense stores nothing. Nodes enter by setdefault, so threads
    racing on one step share one node. No result refers back to an operand,
    so the memo is freed with the fold's first operand. Total conflict is
    not kept.
    """
    if path == "commonality":
        return fast_combine_via_commonality(ms)
    if path not in ("auto", "sparse"):
        raise ValueError(f"unknown combination path {path!r}")
    ms = list(ms)
    if not ms:
        raise ValueError("need at least one mass function")
    first = ms[0]
    if len(ms) == 1:  # "auto" never finds one operand dense
        return CombinationResult(first, 0.0)
    folds = first._combinations
    key = (path, *map(id, ms))
    hit = folds.get(key)
    if hit is not None:
        return hit
    frame = _shared_frame(ms)
    if path == "auto" and _prefer_dense(ms, frame):
        return fast_combine_via_commonality(ms)
    acc = first
    kept = 1.0
    for step, m in enumerate(ms[1:], start=1):
        steps = acc._combinations
        node = steps.get(id(m))
        if node is None:
            try:
                pair = dempster_combine(acc, m)
            except TotalConflictError:
                kept = 0.0
            else:  # stored only once the step has succeeded
                node = steps.setdefault(id(m), (m, pair.combined, 1.0 - pair.conflict))
        if node is not None:
            kept *= node[2]
            acc = node[1]
        if kept <= _MIN_SURVIVING_MASS:
            raise TotalConflictError(
                f"total conflict while folding operand {step}", conflict=1.0 - kept, step=step
            )
    result = folds[key] = CombinationResult(acc, 1.0 - kept)
    return result


def _prefer_dense(ms: Sequence[MassFunction], frame: Frame) -> bool:
    if frame.n > lattice.DENSE_MAX_OUTCOMES:
        return False
    budget = frame.n << frame.n
    product = 1
    for m in ms:
        product *= len(m)
        if product > budget:
            return True
    return False


def fast_combine_via_commonality(ms: Sequence[MassFunction]) -> CombinationResult:
    """Combine by multiplying commonality vectors over the common core's lattice.

    Equivalent to the pairwise fold: the unnormalized combination's
    commonality is the pointwise product of the operands' commonalities, and
    a Mobius inversion recovers its masses. The empty-set entry of the
    inverted product is exactly the aggregate conflict k. Recovered masses at
    or below 1e-15 * (1 - k) are inversion round-off and are dropped; the
    floor scales with the surviving mass, whose size bounds that round-off,
    so heavy conflict keeps genuine small masses. The rest are divided by
    their fsum, and the result is total conflict when 1 - k or that sum is at
    most 1e-12: the same rule as the sparse fold.

    Only the subsets of the common core C are multiplied and inverted; C is
    the AND of the operands' cached int cores (MassFunction.core), which is
    the set of outcomes x with Q_i({x}) > 0 for every operand, since masses
    are positive and the commonality transform only adds them. Q_i(B) is
    exactly +0.0 for every B that is not a subset of C, so each step of a
    whole-frame inversion that reaches a subset of C from outside it
    subtracts +0.0, and the result is bit for bit the whole-frame one. An
    empty core is total conflict with k = prod Q_i(empty set).

    Cost: one O(n * 2^n) transform per distinct operand over its lifetime
    (MassFunction.commonality_vector caches it), plus O(2^c) per operand
    and one O(c * 2^c) inversion per call, where c = |C|.

    The conflict is clamped at 0: the inversion's round-off can leave the
    empty-set entry a few ulps below 0 where the true conflict is 0.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("need at least one mass function")
    frame = _shared_frame(ms)
    if len(ms) == 1:
        return CombinationResult(ms[0], 0.0)
    # Fetched before the product is allocated, so an oversized frame is
    # refused by commonality_vector's size check without touching memory.
    commonalities = [m.commonality_vector() for m in ms]
    core = frame.full_mask
    for m in ms:
        core &= m.core()
    core_bits = [1 << i for i in range(frame.n) if core >> i & 1]
    c = len(core_bits)
    # masks[j] is the frame mask of the j-th subset of the core; None when the
    # core is the whole frame and the index is the mask itself.
    masks = None if c == frame.n else _core_subsets(core_bits)
    product = np.ones(1 << c)
    for q in commonalities:
        product *= q if masks is None else q[masks]
    # Q({x}) of the unnormalised combination, read before the inversion
    # overwrites it: entry 1 << k is the singleton of core_bits[k]
    pl = [0.0] * frame.n
    for k, bit in enumerate(core_bits):
        pl[bit.bit_length() - 1] = product.item(1 << k)
    if c:
        lattice.superset_diff(product, c)
    conflict = max(float(product[0]), 0.0)  # inversion round-off can dip below 0
    floor = _DENSE_NOISE_FLOOR * (1.0 - conflict)
    kept = np.flatnonzero(product[1:] > floor) + 1  # index 0 is the empty set
    keys = kept if masks is None else masks[kept]
    return _renormalised(frame, dict(zip(keys.tolist(), product[kept].tolist())), conflict, pl)


def _core_subsets(core_bits: list[int]) -> np.ndarray:
    """Frame masks of all subsets of a core, given its bits in ascending order.

    Entry j deposits the bits of j onto the core's bits, so the masks ascend
    with j and bit k of j stands for core_bits[k].
    """
    masks = np.zeros(1 << len(core_bits), dtype=np.intp)
    for k, bit in enumerate(core_bits):
        masks[1 << k: 2 << k] = masks[: 1 << k] | bit
    return masks
