"""Table-backend lists, elements and rows against one scan per right node.

The oracle (``block_oracle``) imports nothing from balex; expected prefixes
come from ``ext_eval`` in Python ints, except at n=16 where there are 2^24.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import balex
from balex.graphs import BalanceParams, ExtractorGraph
from block_oracle import amplified, block

EPS = Fraction(1, 4)


def prefixes(g, t):
    """Truncated image of every edge at prefix parameter t, indexed (x << d) | y."""
    shift = g.m - g.prefix_view(t).m_k
    return np.array(
        [g.ext_eval(x, y) >> shift for x in range(1 << g.n) for y in range(g.degree)],
        dtype=np.uint64,
    )


def check_lists(g, t, Delta, x, pref):
    params = BalanceParams(EPS, Delta, t)
    alist = balex.amplify(g, params, x)
    elements, labels, padded = amplified(pref, g.d, x, Delta)
    assert list(alist.elements) == elements
    assert list(alist.segment_labels) == labels
    assert list(alist.padded_labels) == padded
    assert [balex.list_element(g, params, x, i) for i in range(len(alist))] == elements
    return padded


def test_blocks_exhaustive_at_n4():
    # every x, d in {0,1,2}, a in {2, 0, -2}, every valid t, Delta 1..5
    n = 4
    rng = np.random.default_rng(4)
    seen = set()
    for d, m in itertools.product((0, 1, 2), (2, 4, 6)):
        table = rng.integers(0, 1 << m, size=1 << (n + d), dtype=np.uint8)
        g = ExtractorGraph(n, d, m, table=table)
        for t in range(max(1, g.a + 1), n + 1):
            pref = prefixes(g, t)
            wide = g.prefix_view(t).m_k > n + d
            for Delta, x in itertools.product(range(1, 6), range(1 << n)):
                padded = check_lists(g, t, Delta, x, pref)
                seen.add((wide, bool(padded)))
    # both the marked pass and the wide-side compare ran, padded and not
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_blocks_sampled_at_n16():
    n, d, t, Delta = 16, 8, 12, 6
    g = balex.sample_table(n, d, n, seed=3)
    params = BalanceParams(EPS, Delta, t)
    pref = g.table >> np.uint16(n - t)
    rng = np.random.default_rng(16)
    for x in rng.integers(0, 1 << n, size=3).tolist():
        alist = balex.amplify(g, params, x)
        assert list(alist.segment_labels) == [int(pref[(x << d) | y]) for y in range(1 << d)]
        for y in rng.choice(1 << d, size=12, replace=False).tolist():
            z = alist.segment_labels[y]
            assert (list(alist.block(y)), y in alist.padded_labels) == block(pref, d, z, Delta)
        i = int(rng.integers(0, len(alist)))
        assert balex.list_element(g, params, x, i) == alist.elements[i]


def test_blocks_wide_right_side():
    # m_k = 40 > n + d = 6 at t = 4: the wide-side compare, several labels per list
    g = balex.sample_table(4, 2, 40, seed=8)
    pref = prefixes(g, 4)
    assert g.prefix_view(4).m_k > g.n + g.d
    for Delta, x in itertools.product((1, 2, 3), range(16)):
        check_lists(g, 4, Delta, x, pref)


@pytest.mark.parametrize("t", [1, 2])
def test_m64_table_past_int64(wide_table_graph, t):
    # entries >= 2^63 stay unsigned through rows, lists and elements
    g = wide_table_graph
    view = g.prefix_view(t)
    shift = g.m - view.m_k
    expect = [[g.ext_eval(x, y) >> shift for y in range(g.degree)] for x in range(1 << g.n)]
    assert max(max(row) for row in expect) >= 2**62
    assert view.prefixed_rows().tolist() == expect
    assert view.member_rows([3, 1]).tolist() == [expect[3], expect[1]]
    pref = prefixes(g, t)
    for Delta, x in itertools.product((1, 2, 3), range(1 << g.n)):
        check_lists(g, t, Delta, x, pref)
