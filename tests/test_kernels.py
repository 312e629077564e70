import itertools
from collections import Counter

import numpy as np
import pytest

from balex import _kernels


def _random_rows(n, d, m_k, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.integers(0, 1 << m_k, size=(1 << n, 1 << d)).astype(np.int64)


def _brute_numerator(rows, r_size):
    counts = Counter(int(z) for row in rows for z in row)
    edges = sum(len(row) for row in rows)
    return sum(abs(counts.get(z, 0) * r_size - edges) for z in range(r_size))


@pytest.mark.parametrize("n,d,m_k,k", [(3, 2, 2, 1), (4, 3, 3, 2), (4, 3, 2, 3)])
def test_sweep_matches_brute_force(n, d, m_k, k):
    rows = _random_rows(n, d, m_k, seed=n * 100 + d * 10 + k)
    worst, best = _kernels.worst_subset_deviation(rows, 1 << k, 1 << m_k)
    scores = [
        (_brute_numerator(rows[list(combo)], 1 << m_k), combo)
        for combo in itertools.combinations(range(1 << n), 1 << k)
    ]
    top = max(score for score, _ in scores)
    first = next(combo for score, combo in scores if score == top)
    assert worst == top
    assert tuple(best) == first


def test_deviation_numerator_known_values():
    # point mass: 4 edges on node 0 of 4 -> sum |c*R - E| = |16-4| + 3*4 = 24
    rows = np.zeros((2, 2), dtype=np.int64)
    assert _kernels.deviation_numerator(rows, 4) == 24
    # perfectly uniform
    rows = np.array([[0, 1], [2, 3]], dtype=np.int64)
    assert _kernels.deviation_numerator(rows, 4) == 0
