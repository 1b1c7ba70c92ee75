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
