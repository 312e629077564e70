import itertools
import json
import random
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balex
from balex.errors import BalexError, CapacityError, FormatError, ParameterError
from balex.exact import le_scaled_sqrt
from balex.graphs import BalanceParams, ExtractorGraph, PrefixView
from balex.listamp import (
    bad_bound_ok,
    light_threshold,
    survival_ok,
)


def brute_b_degrees(view, B):
    counts = Counter()
    for x in B:
        for z in view.neighbors(x):
            counts[z] += 1
    return counts


# --- thresholds --------------------------------------------------------------


def test_light_threshold_formula():
    assert light_threshold(Fraction(1, 16), 8, 4, 256) == 2
    assert light_threshold(Fraction(1), 32, 8, 32) == 8
    assert light_threshold(Fraction(1, 3), 5, 4, 8) == Fraction(15, 2)


def test_light_threshold_positivity():
    with pytest.raises(ParameterError):
        light_threshold(Fraction(0), 8, 4, 256)
    with pytest.raises(ParameterError):
        light_threshold(Fraction(1, 2), 0, 4, 256)


def test_threshold_bound_chain_holds():
    # with B < 2^{S+1}, R = 2^{S-a}, Delta = 2 * delta^-3 * D * 2^a:
    # threshold <= delta * Delta, for 100 random parameter tuples
    rng = np.random.Generator(np.random.Philox(key=31))
    found = 0
    while found < 100:
        j = int(rng.integers(1, 4))          # delta = 1/2^j
        s_param = int(rng.integers(1, 10))
        a = int(rng.integers(0, s_param + 1))
        d = int(rng.integers(0, 6))
        eps = Fraction(1, 1 << (2 * j))
        b_size = int(rng.integers(1 << s_param, 1 << (s_param + 1)))
        r_size = 1 << (s_param - a)
        degree = 1 << d
        delta_blocks = 2 * (1 << (3 * j)) * degree * (1 << a)
        threshold = light_threshold(eps, b_size, degree, r_size)
        assert le_scaled_sqrt(threshold, delta_blocks, eps)
        found += 1


def test_exact_delta_predicates():
    # eps = 1/4: delta = 1/2 exactly
    assert bad_bound_ok(4, 4, Fraction(1, 4))
    assert not bad_bound_ok(5, 4, Fraction(1, 4))
    assert survival_ok(Fraction(1, 2), Fraction(1, 16))
    assert not survival_ok(Fraction(0), Fraction(1, 16))
    # irrational delta: 2*sqrt(1/2) = 1.414..; 5/4 <= 1.414 but 3/2 > 1.414
    assert le_scaled_sqrt(Fraction(5, 4), 2, Fraction(1, 2))
    assert not le_scaled_sqrt(Fraction(3, 2), 2, Fraction(1, 2))


# --- heavy classification -------------------------------------------------------


def test_classify_heavy_empty_b(table_graph):
    assert balex.classify_heavy(table_graph.prefix_view(2), set(), Fraction(1, 4)) == frozenset()


def test_classify_heavy_constant_graph(constant_table_graph):
    view = constant_table_graph.prefix_view(2)
    B = {1, 2, 3}
    # all 12 edges land on node 0; threshold = 4*3*4/4 = 12 with eps=1/4... pick eps
    heavy = balex.classify_heavy(view, B, Fraction(1, 2))
    # threshold = 2*3*4/4 = 6 < 12
    assert heavy == frozenset({0})


def test_classify_heavy_matches_brute_force(table_graph):
    rng = np.random.Generator(np.random.Philox(key=41))
    view = table_graph.prefix_view(2)
    eps = Fraction(1, 4)
    for _ in range(25):
        B = set(int(v) for v in rng.choice(16, size=4, replace=False))
        threshold = light_threshold(eps, len(B), 8, 4)
        brute = {z for z, c in brute_b_degrees(view, B).items() if c > threshold}
        assert balex.classify_heavy(view, B, eps) == frozenset(brute)


def test_heavy_count_bound_always(table_graph, sharp_graph):
    for graph, eps in ((table_graph, Fraction(1, 4)), (sharp_graph, Fraction(1, 16))):
        view = graph.prefix_view(2)
        for B in itertools.combinations(range(16), 4):
            heavy = balex.classify_heavy(view, B, eps)
            assert Fraction(len(heavy)) <= eps * view.r_size


# --- bad sets ----------------------------------------------------------------------


def test_bad_set_empty_b(table_graph):
    assert balex.bad_set(table_graph.prefix_view(2), set(), Fraction(1, 4)) == frozenset()


def test_bad_set_constant_graph_everything_bad(constant_table_graph):
    view = constant_table_graph.prefix_view(2)
    B = {1, 2, 3}
    assert balex.bad_set(view, B, Fraction(1, 2)) == frozenset(B)


def test_claim_nine_bound_nonvacuous_exhaustive(sharp_graph):
    # graph passes exact verification at k=2 with eps=1/16, so at most a
    # 2*sqrt(eps) = 1/2 fraction of every size-4 B may be bad: exact, no slack
    eps = Fraction(1, 16)
    view = sharp_graph.prefix_view(2)
    worst = 0
    for B in itertools.combinations(range(16), 4):
        bad = balex.bad_set(view, B, eps)
        assert bad_bound_ok(len(bad), 4, eps), f"B={B} bad={sorted(bad)}"
        worst = max(worst, len(bad))
    assert worst <= 2  # 2*sqrt(1/16)*4


def test_congestion_report_pipeline(sharp_graph):
    B = set(range(4, 12))  # size 8 -> s = 3
    report = balex.congestion_report(sharp_graph, B, Fraction(1, 16), t=4)
    assert report.s == 3
    assert report.b_size == 8
    assert report.threshold == light_threshold(Fraction(1, 16), 8, 512, 8)
    doc = report.to_dict()
    assert doc["s"] == 3 and isinstance(doc["pass"], bool)
    assert doc["bad_fraction"] == str(report.bad_fraction)


def test_congestion_report_guards():
    g = balex.sample_table(4, 3, 4, seed=3)
    with pytest.raises(ParameterError):
        balex.congestion_report(g, set(), Fraction(1, 4), t=3)
    with pytest.raises(ParameterError):
        balex.congestion_report(g, set(range(16)), Fraction(1, 4), t=3)  # s=4 > t
    with pytest.raises(ParameterError):
        balex.congestion_report(g, {1}, Fraction(1, 4), t=3)  # s=0 -> no view


def test_congestion_refuses_right_sides_past_budget(wide_table_graph):
    # |B| = 2 gives s = 1, and a = -62 leaves 63 right bits to tally
    with pytest.raises(CapacityError, match="right side of 2\\^63 nodes"):
        balex.congestion_report(wide_table_graph, {0, 1}, Fraction(1, 4), t=2)
    view = wide_table_graph.prefix_view(1)
    for call in (balex.classify_heavy, balex.bad_set):
        with pytest.raises(CapacityError):
            call(view, {0, 1}, Fraction(1, 4))


def test_nonpositive_epsilon_refused_before_member_rows(monkeypatch):
    g = balex.sample_table(4, 3, 4, seed=3)
    B = set(range(8))

    def no_rows(self, members):
        raise AssertionError("member rows built before epsilon was checked")

    monkeypatch.setattr(PrefixView, "member_rows", no_rows)
    calls = (
        lambda: balex.classify_heavy(g.prefix_view(3), B, Fraction(0)),
        lambda: balex.bad_set(g.prefix_view(3), B, Fraction(-1, 4)),
        lambda: balex.congestion_report(g, B, Fraction(0), t=3),
    )
    for call in calls:
        with pytest.raises(ParameterError, match="epsilon must be positive"):
            call()


def test_congestion_on_linear_backend(linear_graph_12):
    # a = 4 so the view at s = floor(log2 |B|) needs |B| >= 2^5
    B = set(range(100, 164))  # size 64 -> s = 6
    report = balex.congestion_report(linear_graph_12, B, Fraction(1, 4), t=10)
    assert report.s == 6
    assert report.right_bits == 2
    assert Fraction(len(report.heavy_set)) <= Fraction(1, 4) * (1 << 2)
    assert report.bad_set <= frozenset(B)


def _n64_counter_graph():
    expansion = balex.SeedExpansion("counter", s=16, m=64, seed=5)
    return balex.linear_graph(n=64, d=1, expansion=expansion)


def _kernel_coset_b(g):
    # 2^63 XOR every subset of four vectors that both labels' top 4 rows
    # send to 0: sixteen members past 2^63 sharing one image per label
    rows = g.family.matrix(0).rows[:4] + g.family.matrix(1).rows[:4]
    kernel = balex.solve_affine(balex.Gf2Matrix(rows, 64), 0).basis
    low = tuple(v for v in kernel if not v >> 63)[:4]
    return set(balex.AffineSpace(64, 2**63, low))


@pytest.mark.parametrize("kind", ["consecutive", "kernel-coset"])
def test_congestion_linear_n64_members_past_int64(kind):
    # members >= 2^63 stay Python ints; recount everything from view.neighbors
    g = _n64_counter_graph()
    B = set(range(2**63, 2**63 + 16)) if kind == "consecutive" else _kernel_coset_b(g)
    assert len(B) == 16 and min(B) >= 2**63
    epsilon = Fraction(1, 4)  # sqrt(eps) = 1/2 exactly
    view = g.prefix_view(4)
    counts = brute_b_degrees(view, B)
    threshold = Fraction(len(B) * g.degree, view.r_size) / epsilon
    heavy = {z for z, c in counts.items() if c > threshold}
    bad = {x for x in B if 2 * sum(z in heavy for z in view.neighbors(x)) >= g.degree}
    if kind == "kernel-coset":
        assert heavy and bad == B
    report = balex.congestion_report(g, B, epsilon, t=4)
    assert (report.s, report.right_bits) == (4, 4)
    assert report.heavy_set == heavy and report.bad_set == bad
    assert balex.classify_heavy(view, B, epsilon) == heavy
    assert balex.bad_set(view, B, epsilon) == bad
    edges = len(B) * g.degree
    distance = sum(abs(Fraction(counts[z], edges) - Fraction(1, view.r_size))
                   for z in range(view.r_size)) / 2
    assert balex.stat_distance(view, B) == distance


# --- integer congestion against a per-member Fraction oracle -------------------------

# the boundary pair brackets sqrt(eps) = 1/4 by 10^-30; the first has a 31-digit numerator
ORACLE_EPSILONS = [
    Fraction(1, 4), Fraction(1, 2), Fraction(3, 7), Fraction(1, 16),
    Fraction(1, 16) + Fraction(1, 10**30), Fraction(1, 16) - Fraction(1, 10**30),
    Fraction(10**30, 10**31 + 1), Fraction(1, 10**25), Fraction(7, 3),
]


def fraction_congestion(view, B, epsilon):
    """Heavy and bad sets recounted from view.neighbors, one Fraction test per node or member."""
    neighbors = {x: view.neighbors(x) for x in B}
    counts = Counter(z for row in neighbors.values() for z in row)
    threshold = Fraction(len(B) * view.graph.degree, view.r_size) / epsilon
    heavy = {z for z, c in counts.items() if Fraction(c) > threshold}
    bad = {x for x, row in neighbors.items()
           if Fraction(sum(z in heavy for z in row), view.graph.degree) ** 2 >= epsilon}
    return heavy, bad


def concentrated_b(view, size, rng):
    """The size left nodes with the most edges into one right node."""
    into_z = (view.prefixed_rows() == rng.randrange(view.r_size)).sum(axis=1)
    return set(np.argsort(-into_z, kind="stable")[:size].tolist())


@pytest.mark.parametrize("n, d, m, skew", [
    (4, 3, 4, 1), (4, 9, 4, 1), (8, 4, 8, 1), (10, 3, 6, 1), (6, 4, 6, 2), (8, 3, 8, 3),
])
def test_congestion_matches_fraction_oracle(n, d, m, skew):
    # skew > 1 ANDs that many uniform draws per entry, so small right labels
    # are common and the heavy and bad sets are not empty
    draws = np.random.default_rng(n * 100 + d).integers(0, 1 << m, size=(skew, 1 << (n + d)))
    g = ExtractorGraph(n, d, m, table=np.bitwise_and.reduce(draws).astype(np.uint16))
    rng = random.Random(n * 100 + d)
    nonempty = Counter()
    for trial in range(10):
        view = g.prefix_view(rng.randint(g.a + 1, n))
        size = rng.randint(1, 1 << n)
        if trial % 2:
            B = set(rng.sample(range(1 << n), size))
        else:
            B = concentrated_b(view, size, rng)
        s = len(B).bit_length() - 1
        for eps in ORACLE_EPSILONS:
            heavy, bad = fraction_congestion(view, B, eps)
            assert balex.classify_heavy(view, B, eps) == heavy
            assert balex.bad_set(view, B, eps) == bad
            nonempty.update(heavy=bool(heavy), bad=bool(bad))
            if s > g.a:
                report = balex.congestion_report(g, B, eps, t=n)
                assert (report.heavy_set, report.bad_set) == fraction_congestion(
                    g.prefix_view(s), B, eps)
    assert skew == 1 or (nonempty["heavy"] and nonempty["bad"])


@pytest.mark.parametrize("epsilon", ORACLE_EPSILONS)
def test_congestion_matches_fraction_oracle_linear_n64(epsilon):
    g = _n64_counter_graph()
    view = g.prefix_view(4)
    rng = random.Random(9)
    for B in (set(range(2**63, 2**63 + 16)), _kernel_coset_b(g),
              {2**63 | rng.getrandbits(63) for _ in range(40)}):
        heavy, bad = fraction_congestion(view, B, epsilon)
        assert balex.classify_heavy(view, B, epsilon) == heavy
        assert balex.bad_set(view, B, epsilon) == bad


# --- amplification -----------------------------------------------------------------


def test_amplify_size_formula(table_graph):
    params = BalanceParams(epsilon=Fraction(1, 2), Delta=4, t=3)
    alist = balex.amplify(table_graph, params, x=5)
    assert len(alist) == 8 * 4
    assert len(alist.segment_labels) == 8
    assert alist.block(0) == alist.elements[:4]


def test_amplify_blocks_are_neighbors_of_segment_labels(table_graph):
    params = BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=3)
    view = table_graph.prefix_view(3)
    alist = balex.amplify(table_graph, params, x=9)
    for y, p in enumerate(alist.segment_labels):
        assert view.ext_eval(9, y) == p
        for e in alist.block(y):
            assert p in view.neighbors(e)


def test_amplify_self_membership_when_among_first_delta(table_graph):
    params = BalanceParams(epsilon=Fraction(1, 2), Delta=16, t=3)
    alist = balex.amplify(table_graph, params, x=5)
    # Delta = 2^n: every neighbor list is exhausted (possibly padded), so x
    # itself must appear in each of its own segments
    for y, p in enumerate(alist.segment_labels):
        assert 5 in alist.block(y)


def test_amplify_linear_elements_satisfy_edge_equations(linear_graph_12):
    params = BalanceParams(epsilon=Fraction(1, 4), Delta=64, t=10)
    view = linear_graph_12.prefix_view(10)
    alist = balex.amplify(linear_graph_12, params, x=0x5A3)
    assert len(alist) == 16 * 64
    assert not alist.padded
    for y, p in enumerate(alist.segment_labels):
        for e in alist.block(y):
            assert view.ext_eval(e, y) == p


@pytest.mark.parametrize("t, Delta", [(64, 2), (60, 16)])
def test_amplify_linear_n64_inputs_past_int64(tmp_path, t, Delta):
    # n = m = 64: inputs and right labels both reach past 2^63
    from balex.lineargraph import save_pair_table

    n, d = 64, 1
    rng = random.Random(7)
    rows = [[(rng.getrandbits(16), rng.getrandbits(16)) for _ in range(n)] for _ in range(2)]
    path = tmp_path / "pairs.json"
    save_pair_table(path, s=16, m=n, pairs=rows)
    expansion = balex.SeedExpansion("external", s=16, m=n, table_path=str(path))
    g = balex.linear_graph(n=n, d=d, expansion=expansion)
    params = BalanceParams(epsilon=Fraction(1, 4), Delta=Delta, t=t)
    view = g.prefix_view(t)
    x = 2**63 + 1
    labels = view.neighbors(x)
    assert labels == [g.ext_eval(x, y) >> (n - view.m_k) for y in range(2)]
    alist = balex.amplify(g, params, x)
    assert alist.segment_labels == tuple(labels) and len(alist) == 2 * Delta
    for y, p in enumerate(labels):
        for e in alist.block(y):
            assert view.ext_eval(e, y) == p
    for i in range(len(alist)):
        assert balex.list_element(g, params, x, i) == alist.elements[i]


def test_amplify_padding_flag_and_totality():
    # right node 0 has a single distinct neighbor (x=0), so Delta=2 pads
    table = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.uint8)
    g = ExtractorGraph(2, 1, 2, table=table)
    params = BalanceParams(epsilon=Fraction(1, 4), Delta=2, t=2)
    alist = balex.amplify(g, params, x=0)
    assert len(alist) == 4
    assert alist.padded and alist.padded_labels == (0, 1)
    assert alist.block(0) == (0, 0)


def test_amplify_padding_on_linear_backend(identity_linear_graph):
    # every (z, y) pair has exactly one solution, so Delta=2 pads every block
    params = BalanceParams(epsilon=Fraction(1, 4), Delta=2, t=4)
    alist = balex.amplify(identity_linear_graph, params, x=9)
    assert alist.padded and len(alist.padded_labels) == 4
    for y in range(4):
        assert alist.block(y) == (9, 9)
    assert balex.list_element(identity_linear_graph, params, 9, 3) == 9


def test_amplify_with_negative_a():
    # m > n: right labels longer than left ones, a = -2
    g = balex.sample_table(3, 2, 5, seed=19)
    assert g.a == -2
    params = BalanceParams(epsilon=Fraction(1, 4), Delta=1, t=3)
    view = g.prefix_view(3)
    alist = balex.amplify(g, params, x=6)
    assert len(alist) == 4
    for y, p in enumerate(alist.segment_labels):
        assert view.ext_eval(6, y) == p
        assert p in view.neighbors(alist.block(y)[0])


def test_amplify_multiplicity_repeats_blocks(constant_table_graph):
    params = BalanceParams(epsilon=Fraction(1, 2), Delta=3, t=2)
    alist = balex.amplify(constant_table_graph, params, x=0)
    # all 4 edges hit right node 0, so its block appears 4 times
    assert alist.segment_labels == (0, 0, 0, 0)
    assert alist.block(0) == alist.block(1) == alist.block(2) == alist.block(3)


def test_list_element_agrees_with_amplify_table(table_graph):
    params = BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=3)
    for x in (0, 5, 15):
        alist = balex.amplify(table_graph, params, x)
        for i in range(len(alist)):
            assert balex.list_element(table_graph, params, x, i) == alist.elements[i]


def test_list_element_agrees_with_amplify_linear(linear_graph_12):
    params = BalanceParams(epsilon=Fraction(1, 4), Delta=64, t=10)
    x = 0xABC
    alist = balex.amplify(linear_graph_12, params, x)
    for i in range(0, len(alist), 7):
        assert balex.list_element(linear_graph_12, params, x, i) == alist.elements[i]


def test_list_element_bounds_and_determinism(table_graph):
    params = BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=3)
    with pytest.raises(IndexError):
        balex.list_element(table_graph, params, 0, 16)
    with pytest.raises(IndexError):
        balex.list_element(table_graph, params, 0, -1)
    assert balex.list_element(table_graph, params, 3, 7) == balex.list_element(
        table_graph, params, 3, 7
    )


def test_list_size_identity_matches_closed_form():
    # Delta * D == 2 * (1/delta)^3 * D^2 * 2^a when Delta is canonical
    for j, d, a in [(1, 3, 0), (2, 2, 1), (1, 4, 2)]:
        delta = Fraction(1, 1 << j)
        degree = 1 << d
        delta_blocks = 2 * delta ** -3 * degree * (1 << a)
        assert delta_blocks == int(delta_blocks)
        assert int(delta_blocks) * degree == 2 * (1 / delta) ** 3 * degree**2 * (1 << a)


# --- survival ---------------------------------------------------------------------


def test_survival_fraction_edges():
    alist = balex.AmplifiedList(
        x=0, n=4, degree=2, Delta=2, t=3,
        elements=(1, 2, 3, 4), segment_labels=(0, 1), padded_labels=(),
    )
    assert balex.survival_fraction(alist, set()) == 1
    assert balex.survival_fraction(alist, {1, 2, 3, 4}) == 0
    assert balex.survival_fraction(alist, {1, 9}) == Fraction(3, 4)


def test_survival_sweep_on_verified_graph(table_graph):
    # on an exact-verified graph, sweeping adversarial B: every x outside
    # the bad set keeps survival >= 1 - 2*sqrt(eps)
    eps = Fraction(1, 2)
    for k in range(1, 5):
        assert balex.verify_extractor_exact(table_graph, k, eps).passed
    params = BalanceParams(epsilon=eps, Delta=2, t=3)
    view = table_graph.prefix_view(2)
    checked = 0
    for B in itertools.combinations(range(16), 4):
        bad = balex.bad_set(view, B, eps)
        for x in set(B) - bad:
            alist = balex.amplify(table_graph, params, x)
            assert len(alist) == 16
            assert survival_ok(balex.survival_fraction(alist, B), eps)
            checked += 1
        if checked > 400:
            break
    assert checked > 0


# --- list files ---------------------------------------------------------------------


def test_list_file_round_trip(tmp_path, table_graph):
    params = BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=3)
    alist = balex.amplify(table_graph, params, x=11)
    path = tmp_path / "list.txt"
    digest = balex.graph_digest(table_graph)
    balex.listamp.save_list(alist, path, digest)
    header, elements = balex.listamp.load_list(path)
    assert header["graph_digest"] == digest
    assert header["x"] == "b"
    assert elements == list(alist.elements)


@pytest.mark.parametrize("content", [
    b"[1]\n0\n",                   # header not an object
    b'{"n": "8"}\n0\n',             # n not an integer
    b'{"n": 8}\n0\n\xff\xfe\n',      # not UTF-8
    b'{"n": true}\n0\n',
    b'{"n": 65}\n0\n',              # n outside 1..64
    b'{"degree": 8}\n0\n',          # no n
    b"{not json\n",
    b"",
])
def test_load_list_refuses_malformed_header(tmp_path, content):
    path = tmp_path / "list.txt"
    path.write_bytes(content)
    with pytest.raises(FormatError):
        balex.listamp.load_list(path)


def _list_file_bytes():
    """Mostly a valid header with hex elements, each part sometimes garbage; or raw bytes."""
    value = st.one_of(
        st.integers(-2, 70), st.integers(), st.text(max_size=3), st.none(), st.booleans(),
        st.floats(allow_nan=False), st.lists(st.integers(0, 3), max_size=2),
    )
    valid = st.fixed_dictionaries({"n": st.integers(1, 10), "degree": st.integers(1, 8)})
    header = st.one_of(
        valid, valid, st.fixed_dictionaries({"n": value}), value,
    ).map(json.dumps).map(str.encode)
    hex_line = st.integers(0, 1023).map(lambda v: f"{v:x}".encode())
    line = st.one_of(hex_line, hex_line, st.binary(max_size=4))
    structured = st.tuples(header, st.lists(line, max_size=4)).map(
        lambda t: b"\n".join([t[0], *t[1]]))
    return st.one_of(structured, structured, st.binary(max_size=60))


@settings(max_examples=100)
@given(data=_list_file_bytes())
def test_load_list_bytes_give_list_or_balex_error(data):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "list.txt"
        path.write_bytes(data)
        try:
            header, elements = balex.listamp.load_list(path)
        except BalexError:
            return
    assert isinstance(header, dict) and 1 <= header["n"] <= 64
    assert all(0 <= e < 1 << header["n"] for e in elements)
