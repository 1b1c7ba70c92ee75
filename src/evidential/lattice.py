"""In-place zeta and Mobius transforms over the subset lattice.

All three run in O(n * 2^n) on a dense vector indexed by subset mask. For
bit i, the view arr.reshape(-1, 2, 1 << i) splits every index into
(higher bits, bit i, lower bits), so [:, 0, :] is the half of the lattice
without bit i and [:, 1, :] the half with it, and each bit is one
vectorized update of one half by the other. The vector must be
C-contiguous so that the reshape is a view and the update lands in place.

Bits are processed from the highest down to bit 0. Any order gives the
same transform in exact arithmetic, but the float round-off depends on it,
and with it the bytes of every written report. High bit first is the order
of walking a 2x...x2 view axis by axis (C-order axis 0 is bit n-1), which
is how reports have always been computed; tests/test_combine.py pins it
bit for bit.

superset_sum and superset_diff of a vector that is exactly +0.0 off the
subsets of a core C can run on C's 2^c subsets alone (core_subsets lists
their masks). In the whole-lattice walk a pass over a bit outside C changes
each subset of C by +0.0 and leaves every other entry +0.0, and C's own bits
keep their high-to-low order, so the result is bit for bit the whole-lattice
one. subset_sum has no such shortcut: it carries mass out of C's subsets.
"""

from __future__ import annotations

import numpy as np

DENSE_MAX_OUTCOMES = 20  # 2^20 lattice points; past this a dense vector thrashes memory


def subset_sum(arr: np.ndarray, n: int) -> None:
    """arr[A] <- sum of arr[B] over all B subset of A."""
    for bit in reversed(range(n)):
        view = arr.reshape(-1, 2, 1 << bit)
        view[:, 1, :] += view[:, 0, :]


def superset_sum(arr: np.ndarray, n: int) -> None:
    """arr[A] <- sum of arr[B] over all B superset of A (masses to commonalities)."""
    for bit in reversed(range(n)):
        view = arr.reshape(-1, 2, 1 << bit)
        view[:, 0, :] += view[:, 1, :]


def superset_diff(arr: np.ndarray, n: int) -> None:
    """Inverse of superset_sum (commonalities back to masses)."""
    for bit in reversed(range(n)):
        view = arr.reshape(-1, 2, 1 << bit)
        view[:, 0, :] -= view[:, 1, :]


def core_subsets(core: int) -> np.ndarray:
    """Masks of all subsets of core, in ascending order.

    Entry j deposits the bits of j onto the core's bits, lowest first, so
    bit k of j stands for the core's k-th lowest bit and the masks ascend
    with j: an array indexed by j is the core's own lattice, with its bits in
    the frame's order.
    """
    masks = np.zeros(1 << core.bit_count(), dtype=np.intp)
    size = 1
    while core:
        bit = core & -core
        masks[size: 2 * size] = masks[:size] | bit
        core ^= bit
        size *= 2
    return masks
