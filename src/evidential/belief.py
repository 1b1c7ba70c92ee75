"""Frames of discernment, bitmask subsets, and sparse mass functions.

Subsets of a frame are plain integers: bit i set means outcome i is in the
subset, with bit positions fixed by the frame's label order. Keeping masks as
ints keeps the set algebra at machine-word cost, and every focal element
downstream shares the encoding. Masks are only meaningful relative to their
frame; the frame validates them on use.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import lattice
from .errors import (
    EmptySetMassError,
    FrameMismatchError,
    NonPositiveMassError,
    NotNormalizedError,
)

Mask = int

MAX_FRAME_SIZE = 30
MASS_SUM_TOL = 1e-9
# Totals this close to 1 are kept verbatim: rescaling would only shuffle the
# last ulp and would destroy byte-stable serialization of literal masses.
_RESCALE_TOL = 1e-12
VACUOUS_TOL = 1e-9


@dataclass(frozen=True)
class Frame:
    """Ordered set of mutually exclusive outcome labels.

    Label order fixes the bit layout of every mask, so two frames with the
    same labels in a different order are different frames.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("a frame needs at least one outcome label")
        if len(labels) > MAX_FRAME_SIZE:
            raise ValueError(
                f"frame size {len(labels)} exceeds the {MAX_FRAME_SIZE}-outcome cap"
            )
        seen = set()
        for label in labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"outcome labels must be non-empty strings, got {label!r}")
            if label in seen:
                raise ValueError(f"duplicate outcome label {label!r}")
            seen.add(label)

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def full_mask(self) -> Mask:
        return (1 << self.n) - 1

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown outcome label {label!r}") from None

    def bit(self, label: str) -> Mask:
        """Mask of the singleton subset {label}."""
        return 1 << self.index(label)

    def mask_of(self, labels: Iterable[str]) -> Mask:
        index = self._index
        mask = 0
        try:
            for label in labels:
                mask |= 1 << index[label]
        except KeyError:
            raise ValueError(f"unknown outcome label {label!r}") from None
        return mask

    def labels_of(self, mask: Mask) -> tuple[str, ...]:
        """Labels of a mask's members, in frame order."""
        mask = self.check_mask(mask)
        return tuple(label for i, label in enumerate(self.labels) if mask >> i & 1)

    def check_mask(self, mask: Mask) -> Mask:
        """Validate that mask addresses a subset of this frame; returns it as int."""
        try:
            mask = operator.index(mask)
        except TypeError:
            raise FrameMismatchError(f"mask {mask!r} is not a subset encoding") from None
        if not 0 <= mask <= self.full_mask:
            raise FrameMismatchError(
                f"mask {mask:#x} does not address a subset of a {self.n}-outcome frame"
            )
        return mask


class BeliefInterval(NamedTuple):
    """Lower (belief) and upper (plausibility) probability of one subset.

    A plain pair with no checks of its own: the program builds it through
    clip_interval, and formats.report_from_dict checks a pair read from a file.
    """

    lower: float
    upper: float


_new_interval = tuple.__new__
# The interval of every outcome that lies in no focus: Bel = Pl = 0 exactly.
_NO_SUPPORT = BeliefInterval(0.0, 0.0)


def clip_interval(lower: float, upper: float) -> BeliefInterval:
    """The interval between two computed bounds, with numeric spill clipped so
    that 0 <= lower <= upper <= 1 holds exactly: lower into [0, 1], then upper
    into [lower, 1]. A NaN bound passes through unchanged.

    Each comparison keeps its left operand unless the right one is strictly
    beyond it, as min and max do, so NaN and -0.0 come out as they would from
    min(max(lower, 0.0), 1.0) and min(max(upper, lower), 1.0). The pair is
    built by tuple.__new__, skipping the NamedTuple's Python-level __new__.
    """
    lower = 0.0 if lower < 0.0 else 1.0 if lower > 1.0 else lower
    upper = lower if lower > upper else upper
    return _new_interval(BeliefInterval, (lower, 1.0 if upper > 1.0 else upper))


class MassFunction:
    """Sparse basic probability assignment over a frame.

    Positive masses on non-empty subsets, total 1. Construction drops zero
    entries, rejects negative masses and any mass on the empty set, and
    accepts totals within 1e-9 of 1, rescaling once when the drift exceeds
    1e-12. Instances are immutable after construction and safe to share
    across threads.

    Derived values are cached on the instance on first use: the core (the
    union of the focal sets, as a mask), the commonality vector, the
    singleton plausibilities (a combination result gets them from the
    combination instead), the singleton belief intervals, the observed focus
    with its labels and mass, and combine.combine_all's sparse fold memo:
    the fold step of this instance, as the left operand, with each right
    operand it has met, and each whole fold that began with this instance.
    A thread that races another on a first use stores an equal value.
    """

    __slots__ = (
        "frame", "_focal", "_core", "_q", "_pl", "_intervals", "_observed", "_combinations"
    )

    def __init__(self, frame: Frame, masses: Mapping[Mask, float]):
        focal: dict[Mask, float] = {}
        for mask, value in masses.items():
            mask = frame.check_mask(mask)
            value = float(value)
            if value < 0.0:
                raise NonPositiveMassError(f"negative mass {value} on mask {mask:#x}")
            if value == 0.0:
                continue
            if mask == 0:
                raise EmptySetMassError(f"mass {value} assigned to the empty set")
            focal[mask] = value
        total = math.fsum(focal.values())
        if not abs(total - 1.0) <= MASS_SUM_TOL:  # so that a NaN total fails too
            raise NotNormalizedError(total)
        if abs(total - 1.0) > _RESCALE_TOL:
            focal = {mask: value / total for mask, value in focal.items()}
        self._adopt(frame, focal)

    @classmethod
    def _normalised(
        cls, frame: Frame, masses: dict[Mask, float], plausibilities: tuple[float, ...]
    ) -> "MassFunction":
        """Trusted constructor for masses that are normalised by construction.

        masses maps int masks on frame to positive floats, none on the empty
        set, with an fsum within 1e-12 of 1: what __init__ would keep
        verbatim. plausibilities holds Pl({x}) for each outcome in frame
        order, exactly 0.0 for an outcome that lies in no focus, and becomes
        the instance's singleton_plausibilities(). Nothing is checked, and
        the dict is adopted, not copied, so the caller must not keep it.
        """
        self = cls.__new__(cls)
        self._adopt(frame, masses, plausibilities)
        return self

    def _adopt(
        self, frame: Frame, focal: dict[Mask, float], pl: tuple[float, ...] | None = None
    ) -> None:
        self.frame = frame
        self._focal = focal
        self._core: Mask | None = None
        self._q: np.ndarray | None = None
        self._pl = pl
        self._intervals: tuple[BeliefInterval, ...] | None = None
        self._observed: tuple[Mask, tuple[str, ...], float] | None = None
        # id(right) -> (right, step's MassFunction, 1 - k_step) for each fold
        # step from here, and (path, *ids) -> CombinationResult for each whole
        # fold begun here; see combine.combine_all
        self._combinations: dict = {}

    def on_frame(self, frame: Frame) -> "MassFunction":
        """This mass function on frame, a Frame equal to its own.

        self when frame is its own object; otherwise a new instance with the
        same masses, so that a combination with frame's other mass functions
        finds one frame object instead of comparing labels. Raises
        FrameMismatchError when frame differs.
        """
        if frame is self.frame:
            return self
        if frame != self.frame:
            raise FrameMismatchError("mass function lives on a different frame")
        return self._normalised(frame, dict(self._focal), self.singleton_plausibilities())

    @classmethod
    def vacuous(cls, frame: Frame) -> "MassFunction":
        """Total ignorance: all mass on the whole frame."""
        return cls(frame, {frame.full_mask: 1.0})

    @classmethod
    def from_labels(cls, frame: Frame, masses: Mapping[Iterable[str], float]) -> "MassFunction":
        """Build from subsets given as label iterables."""
        return cls(frame, {frame.mask_of(subset): value for subset, value in masses.items()})

    def items(self):
        return self._focal.items()

    def __len__(self) -> int:
        return len(self._focal)

    def __contains__(self, mask: Mask) -> bool:
        return mask in self._focal

    def __eq__(self, other) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self.frame == other.frame and self._focal == other._focal

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        parts = ", ".join(
            "{%s}: %g" % ("|".join(self.frame.labels_of(mask)), value)
            for mask, value in sorted(self._focal.items(), key=_focal_order)
        )
        return f"MassFunction({parts})"

    def mass(self, mask: Mask) -> float:
        mask = self.frame.check_mask(mask)
        return self._focal.get(mask, 0.0)

    def belief(self, mask: Mask) -> float:
        """Total mass of all focal elements contained in mask."""
        mask = self.frame.check_mask(mask)
        if mask == 0:
            return 0.0
        if mask == self.frame.full_mask:
            return 1.0
        return math.fsum(v for f, v in self._focal.items() if f & ~mask == 0)

    def interval(self, mask: Mask) -> BeliefInterval:
        """Belief and plausibility of mask; plausibility is 1 - belief of its complement."""
        return clip_interval(self.belief(mask), 1.0 - self.belief(self.frame.full_mask & ~mask))

    def core(self) -> Mask:
        """Union of the focal sets, as a mask (cached).

        Every outcome outside the core has Bel({x}) = Pl({x}) = 0, and every
        focal set of a combination lies inside the intersection of its
        operands' cores.
        """
        core = self._core
        if core is None:
            core = 0
            for mask in self._focal:
                core |= mask
            self._core = core
        return core

    def singleton_plausibilities(self) -> tuple[float, ...]:
        """Pl({x}) of every singleton, in frame order (cached).

        Pl({x}) is the commonality Q({x}): the mass of the foci that contain
        x. A constructed instance fills the tuple on first use with the
        correctly rounded fsum of those masses. A combination result is
        handed its tuple by the combination (see combine._renormalised):
        commonalities multiply under Dempster's rule, so the result's Pl is
        the product of its operands' Pl divided by the surviving mass, within
        2 * k * eps of the exact fold of k operands. Either way an outcome
        that lies in no focus reads exactly 0.0.
        """
        pl = self._pl
        if pl is None:
            containing: list[list[float]] = [[] for _ in range(self.frame.n)]
            for mask, value in self._focal.items():
                while mask:
                    low = mask & -mask
                    containing[low.bit_length() - 1].append(value)
                    mask ^= low
            pl = self._pl = tuple(map(math.fsum, containing))
        return pl

    def singleton_intervals(self) -> tuple[BeliefInterval, ...]:
        """Belief interval of every singleton, in frame order (cached).

        [Bel({x}), Pl({x})] is [m({x}), singleton_plausibilities()[x]],
        through clip_interval; on a one-outcome frame Bel of the whole frame
        is 1. No focus is walked. An outcome whose Pl is 0.0, which is every
        outcome outside the core, gets the one shared interval (0.0, 0.0):
        exact, since no focus contains it. For a constructed instance Pl is
        the correctly rounded sum of its masses; for a combination result of
        k operands each bound is within 2 * k * eps of the exact fold.
        """
        intervals = self._intervals
        if intervals is None:
            n = self.frame.n
            focal = self._focal
            intervals = self._intervals = tuple([
                clip_interval(1.0 if n == 1 else focal.get(1 << i, 0.0), pl) if pl else _NO_SUPPORT
                for i, pl in enumerate(self.singleton_plausibilities())
            ])
        return intervals

    def observed(self) -> tuple[Mask, tuple[str, ...], float]:
        """The focus the evidence points at: (mask, labels, mass) (cached).

        Highest mass wins; ties fall to higher belief, then fewer outcomes,
        then the smaller mask, so the choice is deterministic.
        """
        observed = self._observed
        if observed is None:
            best = max(self._focal.values())
            candidates = [mask for mask, value in self._focal.items() if value == best]
            mask = candidates[0] if len(candidates) == 1 else min(
                candidates, key=lambda mask: (-self.belief(mask), mask.bit_count(), mask)
            )
            observed = self._observed = (mask, self.frame.labels_of(mask), best)
        return observed

    def commonality_vector(self) -> np.ndarray:
        """Commonality of every subset, indexed by mask (cached, read-only).

        Filled on first use by one superset-sum transform of the mass vector
        gathered at the 2^k subsets of the core (k outcomes), then scattered
        back into the 2^n vector, whose other entries stay 0.0, and kept for
        the instance's lifetime: O(k * 2^k) once, 8 * 2^n bytes. Every focus
        is a subset of the core, so the vector is bit for bit the
        whole-lattice transform (see lattice). Two threads racing on the
        first call both store equal arrays, so sharing an instance stays
        safe. Raises ValueError, before allocating anything, for frames past
        lattice.DENSE_MAX_OUTCOMES.
        """
        q = self._q
        if q is None:
            n = self.frame.n
            if n > lattice.DENSE_MAX_OUTCOMES:
                raise ValueError(
                    f"dense commonality vectors support at most "
                    f"{lattice.DENSE_MAX_OUTCOMES} outcomes, got {n}"
                )
            focal = self._focal
            q = np.zeros(1 << n)
            q[np.fromiter(focal, np.intp, len(focal))] = np.fromiter(
                focal.values(), np.float64, len(focal)
            )
            core = self.core()
            masks = lattice.core_subsets(core)
            on_core = q[masks]
            lattice.superset_sum(on_core, core.bit_count())
            q[masks] = on_core
            q.setflags(write=False)
            self._q = q
        return q

    def to_dict(self) -> dict:
        """JSON document with subsets as label lists, portable across reorderings."""
        return {
            "frame": list(self.frame.labels),
            "focal": [
                {"subset": list(self.frame.labels_of(mask)), "mass": value}
                for mask, value in sorted(self._focal.items(), key=_focal_order)
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict, frame: Frame | None = None) -> "MassFunction":
        """Rebuild from a to_dict document.

        When a frame is supplied its label set must match the document's;
        its order wins, so masks adapt to a reordered frame.
        """
        doc_labels = doc["frame"]
        if frame is None:
            frame = Frame(tuple(doc_labels))
        elif set(frame.labels) != set(doc_labels):
            raise FrameMismatchError("document frame labels do not match the supplied frame")
        masses: dict[Mask, float] = {}
        for entry in doc["focal"]:
            mask = frame.mask_of(entry["subset"])
            masses[mask] = masses.get(mask, 0.0) + float(entry["mass"])
        return cls(frame, masses)


def is_vacuous(m: MassFunction) -> bool:
    """True when the only focus is the whole frame, with mass 1 within 1e-9."""
    if len(m) != 1:
        return False
    return abs(m.mass(m.frame.full_mask) - 1.0) <= VACUOUS_TOL


def _focal_order(item):
    mask, _ = item
    return (mask.bit_count(), mask)
