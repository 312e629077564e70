"""The benchmark's references against brute force on small cases, and against balex.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import balex  # noqa: E402
import references as ref  # noqa: E402
from balex.graphs import serialize  # noqa: E402


def worst_deviation_brute(rows: np.ndarray, K: int, R: int) -> Fraction:
    """Every left set of size K, half the L1 distance to uniform."""
    N, D = rows.shape
    worst = Fraction(0)
    for B in combinations(range(N), K):
        counts = np.bincount(rows[list(B)].ravel(), minlength=R)
        dist = sum(abs(Fraction(int(c), K * D) - Fraction(1, R)) for c in counts) / 2
        worst = max(worst, dist)
    return worst


def small_rows(seed: int, n: int, d: int, m: int, bits: int) -> np.ndarray:
    return ref.prefix_rows(ref.philox_table(n, d, m, seed), n, d, m, bits)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_worst_deviation_matches_brute_force(seed, k):
    rows = small_rows(seed, 3, 2, 3, k)
    assert ref.worst_deviation(rows, 1 << k, 1 << k) == worst_deviation_brute(rows, 1 << k, 1 << k)


@pytest.mark.parametrize("K", [1, 3, 5])
def test_worst_deviation_other_sizes(K):
    rows = small_rows(11, 3, 1, 3, 2)
    assert ref.worst_deviation(rows, K, 4) == worst_deviation_brute(rows, K, 4)


def test_worst_deviation_matches_exact_verifier():
    """Ten (graph, k) pairs, every k of seed 7's attempt 0 among them."""
    cases = [(ref.attempt_key(7, 0), k) for k in range(1, 5)]
    cases += [(ref.attempt_key(7, 4), k) for k in (2, 3)]
    cases += [(3, 1), (3, 3), (12, 2), (12, 4)]
    for key, k in cases:
        table = ref.philox_table(4, 3, 4, key)
        graph = balex.sample_table(4, 3, 4, key)
        want = balex.verify_extractor_exact(graph, k, Fraction(1, 4)).worst_deviation
        assert ref.worst_deviation(ref.prefix_rows(table, 4, 3, 4, k), 1 << k, 1 << k) == want


def test_min_degree_and_table_bytes():
    for key in (1, 2, 3):
        table = ref.philox_table(4, 3, 4, key)
        graph = balex.sample_table(4, 3, 4, key)
        assert ref.bgex_table_bytes(4, 3, 4, table) == serialize(graph)
        rows = ref.prefix_rows(table, 4, 3, 4, 3)
        brute = [sum(1 for v in rows.ravel() if v == z) for z in range(8)]
        assert ref.min_right_degree(rows, 8) == min(c for c in brute if c)
        assert ref.min_right_degree(rows, 8) == balex.verify_min_degree(graph, 3, 1).min_degree
    table = ref.philox_table(3, 2, 11, 5)           # 2-byte entries
    assert ref.bgex_table_bytes(3, 2, 11, table) == serialize(balex.sample_table(3, 2, 11, 5))


@pytest.mark.parametrize("Delta", [1, 3, 8])
def test_table_blocks_match_brute_force_and_amplify(Delta):
    n, d, m, t = 4, 3, 4, 3
    table = ref.philox_table(n, d, m, 9)
    blocks = ref.TableBlocks(table, n, d, m, t)
    pref = [int(v) >> (m - t) for v in table]
    for p in range(1 << t):
        distinct = sorted({e >> d for e, v in enumerate(pref) if v == p})
        got, short = blocks.block(p, Delta)
        assert got == [distinct[j % len(distinct)] for j in range(Delta)]
        assert short == (len(distinct) < Delta)
    graph = balex.sample_table(n, d, m, 9)
    params = balex.BalanceParams(Fraction(1, 4), Delta, t)
    for x in range(1 << n):
        alist = balex.amplify(graph, params, x)
        elements, labels, padded = blocks.amplified(x, Delta)
        assert (list(alist.elements), list(alist.segment_labels), list(alist.padded_labels)) == (
            elements, labels, padded)


@pytest.mark.parametrize("seed", range(4))
def test_congestion_matches_definitions(seed):
    n, d, m = 6, 4, 6
    table = ref.philox_table(n, d, m, seed)
    rng = np.random.default_rng(seed)
    eps = Fraction(1, 4)
    for size in (4, 9, 16):
        members = sorted(int(v) for v in rng.choice(1 << n, size, replace=False))
        got = ref.congestion(table, n, d, m, members, eps)
        s = size.bit_length() - 1
        rows = ref.prefix_rows(table, n, d, m, s)
        counts = {}
        for x in members:
            for v in rows[x]:
                counts[int(v)] = counts.get(int(v), 0) + 1
        threshold = Fraction(size * (1 << d), 1 << s) / eps
        heavy = {z for z, c in counts.items() if c > threshold}
        bad = {x for x in members
               if Fraction(sum(int(v) in heavy for v in rows[x]), 1 << d) ** 2 >= eps}
        assert (got["s"], got["threshold"], got["heavy"], got["bad"]) == (s, threshold, heavy, bad)
        assert got["bound_ok"] == (Fraction(len(bad), size) ** 2 <= 4 * eps)
        report = balex.congestion_report(balex.sample_table(n, d, m, seed), members, eps, n)
        assert (set(report.heavy_set), set(report.bad_set), report.bound_ok) == (
            heavy, bad, got["bound_ok"])


def test_moduli_are_the_least_irreducible():
    def divides(q, p):
        while p.bit_length() >= q.bit_length():
            p ^= q << (p.bit_length() - q.bit_length())
        return p == 0

    def irreducible(p):
        s = p.bit_length() - 1
        return not any(divides(q, p) for deg in range(1, s // 2 + 1)
                       for q in range(1 << deg, 1 << (deg + 1)))

    for s, modulus in ref.MODULI.items():
        assert irreducible(modulus)
        assert not any(irreducible(c) for c in range(1 << s, modulus))


@pytest.mark.parametrize("n,d,m,s", [(12, 2, 9, 4), (32, 3, 28, 8), (20, 1, 16, 16)])
def test_counter_evaluator_matches_ext_eval(n, d, m, s):
    graph = balex.linear_graph(n, d, balex.SeedExpansion("counter", s, m, seed=77))
    ours = ref.CounterGraph(n, d, m, s, 77)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << d))
        assert ours.ext(x, y) == graph.ext_eval(x, y)
    assert ref.bgex_linear_bytes(n, d, m, s, 77) == serialize(graph)


def test_linear_segments_match_brute_force_and_amplify():
    n, d, m, s, t, Delta = 8, 2, 6, 4, 5, 4
    graph = balex.linear_graph(n, d, balex.SeedExpansion("counter", s, m, seed=5))
    ours = ref.CounterGraph(n, d, m, s, 5)
    m_t = t - (n - m)
    for y in range(1 << d):
        columns = ours.columns(y, m_t)
        free = ref.free_bits(columns)
        for z in range(1 << m_t):
            preimages = [x for x in range(1 << n) if ours.ext(x, y) >> (m - m_t) == z]
            assert len(preimages) in (0, 1 << len(free))
            patterns = sorted(sum(((x >> fb) & 1) << i for i, fb in enumerate(free)) for x in preimages)
            assert patterns == list(range(len(preimages)))
    params = balex.BalanceParams(Fraction(1, 4), Delta, t)
    for x in (0, 3, 77, 255):
        alist = balex.amplify(graph, params, x)
        for y in range(1 << d):
            columns = ours.columns(y, m_t)
            z = ours.ext(x, y) >> (m - m_t)
            seg = alist.elements[y * Delta:(y + 1) * Delta]
            for j, e in enumerate(seg):
                ref.check_linear_element(columns, ref.free_bits(columns), z, e, j, Delta)
            if len(set(seg)) > 1:
                swapped = (seg[1], seg[0]) + tuple(seg[2:])
                with pytest.raises(ref.CheckError):
                    for j, e in enumerate(swapped):
                        ref.check_linear_element(columns, ref.free_bits(columns), z, e, j, Delta)


@pytest.mark.parametrize("n,eps,kappa", [(64, Fraction(1, 4), 0.015625), (32, Fraction(1, 4), 0.02),
                                         (32, Fraction(1, 2), 0.01), (16, Fraction(1, 8), 0.05)])
def test_derived_linear_matches_formulas(n, eps, kappa):
    d, m = balex.derive_dims(n, eps, 1, kappa)
    Delta, t = balex.derive_amplification(n, eps, d, 1)
    assert ref.derived_linear(n, eps, kappa) == {"d": d, "m": m, "Delta": Delta, "t": t}


def test_small_brute_force_helpers_agree_on_every_table():
    """Every 1-bit-output table with two left nodes and two labels."""
    for values in product(range(2), repeat=4):
        rows = np.array(values, dtype=np.int64).reshape(2, 2)
        for K in (1, 2):
            assert ref.worst_deviation(rows, K, 2) == worst_deviation_brute(rows, K, 2)
