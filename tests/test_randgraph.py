import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import balex
from balex import randgraph
from balex.errors import CapacityError, ParameterError
from balex.randgraph import (
    AttemptRecord,
    BalancedSearchError,
    _comb_exceeds,
    attempt_seed,
    newman_shepp_bound,
)


def exhaustive_max_over_right_sets(view, B):
    """Independent oracle: maximize |E(B,A)|/(|B| D) - |A|/|R| over all A."""
    members = sorted(set(B))
    rows = [view.neighbors(x) for x in members]
    edges = len(members) * view.graph.degree
    best = Fraction(0)
    for bits in range(1 << view.r_size):
        a_nodes = {z for z in range(view.r_size) if (bits >> z) & 1}
        hits = sum(1 for row in rows for z in row if z in a_nodes)
        value = abs(Fraction(hits, edges) - Fraction(len(a_nodes), view.r_size))
        best = max(best, value)
    return best


# --- sampling ----------------------------------------------------------------


def test_sample_table_deterministic():
    a = balex.sample_table(4, 3, 4, seed=9)
    b = balex.sample_table(4, 3, 4, seed=9)
    assert balex.serialize(a) == balex.serialize(b)
    c = balex.sample_table(4, 3, 4, seed=10)
    assert balex.serialize(c) != balex.serialize(a)


def test_sample_table_golden_digest():
    # pins the generator derivation and the file format together; a change
    # in either breaks stored-graph reproducibility and must be deliberate
    g = balex.sample_table(4, 3, 4, seed=7)
    assert balex.graph_digest(g) == (
        "sha256:5599e78ab1cbba9a8a323aff825bee25b3c7b3f0efd2b6a2eab8d4ae42299f5c"
    )
    assert g.ext_eval(11, 3) == 15


def test_sample_table_mean_right_degree_is_exact():
    g = balex.sample_table(4, 3, 4, seed=1)
    counts = g.prefix_view(4).degree_counts()
    assert counts.sum() == 1 << 7
    assert counts.mean() == (1 << 7) / (1 << 4)


def test_sample_table_coarse_uniformity():
    # harness sanity bound, not a theorem: max bucket <= 4x mean over 16 buckets
    g = balex.sample_table(4, 3, 4, seed=2)
    counts = g.prefix_view(4).degree_counts()
    assert counts.max() <= 4 * counts.mean()


def test_sample_table_capacity():
    with pytest.raises(CapacityError):
        balex.sample_table(20, 10, 8, seed=0)


# --- statistical distance ------------------------------------------------------


def test_stat_distance_constant_graph_point_mass(constant_table_graph):
    view = constant_table_graph.prefix_view(1)
    assert view.m_k == 1
    assert balex.stat_distance(view, range(16)) == Fraction(1, 2)


def test_stat_distance_identity_full_left_set(identity_table_graph):
    view = identity_table_graph.prefix_view(4)
    assert balex.stat_distance(view, range(16)) == 0


def test_stat_distance_empty_b_rejected(table_graph):
    with pytest.raises(ParameterError):
        balex.stat_distance(table_graph.prefix_view(2), [])


def test_stat_distance_equals_exhaustive_maximization(table_graph):
    rng = np.random.Generator(np.random.Philox(key=8))
    for k in (1, 2, 3):
        view = table_graph.prefix_view(k)
        for _ in range(10):
            size = int(rng.integers(1, 8))
            B = set(int(v) for v in rng.choice(16, size=size, replace=False))
            assert balex.stat_distance(view, B) == exhaustive_max_over_right_sets(view, B)


def test_stat_distance_linear_backend(identity_linear_graph):
    view = identity_linear_graph.prefix_view(4)
    assert balex.stat_distance(view, range(16)) == 0
    assert balex.stat_distance(view, [3]) == Fraction(15, 16)


# --- exact verification ----------------------------------------------------------


def test_verify_exact_full_k_reduces_to_single_stat(table_graph):
    rep = balex.verify_extractor_exact(table_graph, 4, Fraction(1, 2))
    direct = balex.stat_distance(table_graph.prefix_view(4), range(16))
    assert rep.worst_deviation == direct


def test_verify_exact_identity_at_full_prefix(identity_table_graph):
    rep = balex.verify_extractor_exact(identity_table_graph, 4, Fraction(0))
    assert rep.passed
    assert rep.worst_deviation == 0


def test_verify_exact_agrees_with_pairwise_enumeration(table_graph):
    # oracle: enumerate every (B, A) pair directly
    eps = Fraction(1, 4)
    k = 2
    view = table_graph.prefix_view(k)
    worst = Fraction(0)
    for B in itertools.combinations(range(16), 4):
        worst = max(worst, exhaustive_max_over_right_sets(view, B))
    rep = balex.verify_extractor_exact(table_graph, k, eps)
    assert rep.worst_deviation == worst
    assert rep.passed == (worst <= eps)


def test_verify_exact_witness_recomputes_to_worst(constant_table_graph):
    rep = balex.verify_extractor_exact(constant_table_graph, 2, Fraction(1, 10))
    assert not rep.passed
    assert rep.witness_B is not None and rep.witness_A is not None
    view = constant_table_graph.prefix_view(2)
    assert balex.stat_distance(view, rep.witness_B) == rep.worst_deviation
    assert rep.witness_A == (0,)  # the single over-weighted node


def test_verify_exact_passing_report_has_no_witness(table_graph):
    rep = balex.verify_extractor_exact(table_graph, 1, Fraction(1, 2))
    assert rep.passed
    assert rep.witness_B is None and rep.witness_A is None


def test_verify_exact_budget():
    g = balex.sample_table(5, 2, 5, seed=0)
    with pytest.raises(CapacityError):
        balex.verify_extractor_exact(g, 3, Fraction(1, 2), max_subsets=1000)
    # the budget is exact: the early stop agrees with the full binomial
    for n in range(12):
        for k in range(n + 1):
            c = math.comb(n, k)
            assert not _comb_exceeds(n, k, c) and _comb_exceeds(n, k, c - 1)
    # C(16, 8) = 12870 subsets
    g = balex.sample_table(4, 2, 4, seed=0)
    with pytest.raises(CapacityError):
        balex.verify_extractor_exact(g, 3, Fraction(1, 2), max_subsets=12869)
    balex.verify_extractor_exact(g, 3, Fraction(1, 2), max_subsets=12870)
    # C(2^20, 2^12) has over 4300 digits, past Python's int-to-str limit
    g = balex.sample_table(20, 1, 20, seed=0)
    with pytest.raises(CapacityError):
        balex.verify_extractor_exact(g, 12, Fraction(1, 4))


def test_exact_size_subsets_suffice_by_convexity(table_graph):
    # distance of any larger B is dominated by its size-2^k subsets
    k = 2
    view = table_graph.prefix_view(k)
    rng = np.random.Generator(np.random.Philox(key=21))
    for _ in range(10):
        size = int(rng.integers(5, 10))
        B = sorted(int(v) for v in rng.choice(16, size=size, replace=False))
        big = balex.stat_distance(view, B)
        best_small = max(
            balex.stat_distance(view, sub) for sub in itertools.combinations(B, 4)
        )
        assert big <= best_small


def test_exact_verifier_bounds_every_superset_size():
    # the verified worst over size-2^k sets really bounds all |B| >= 2^k:
    # full enumeration of every larger B at n=3
    g = balex.sample_table(3, 2, 3, seed=6)
    k = 2
    view = g.prefix_view(k)
    rep = balex.verify_extractor_exact(g, k, Fraction(1))
    true_worst = Fraction(0)
    for size in range(1 << k, (1 << 3) + 1):
        for B in itertools.combinations(range(8), size):
            true_worst = max(true_worst, balex.stat_distance(view, B))
    assert true_worst == rep.worst_deviation


# --- sampled verification ---------------------------------------------------------


def test_sampled_full_k_single_trial_equals_exact(table_graph):
    exact = balex.verify_extractor_exact(table_graph, 4, Fraction(1, 2))
    sampled = balex.verify_extractor_sampled(table_graph, 4, Fraction(1, 2), trials=1, seed=0)
    assert sampled.worst_deviation == exact.worst_deviation


def test_sampled_identity_full_prefix(identity_table_graph):
    rep = balex.verify_extractor_sampled(identity_table_graph, 4, Fraction(0), trials=5, seed=3)
    assert rep.passed
    assert rep.worst_deviation == 0


def test_sampled_never_exceeds_exact(table_graph):
    for k in (1, 2):
        exact = balex.verify_extractor_exact(table_graph, k, Fraction(1))
        sampled = balex.verify_extractor_sampled(table_graph, k, Fraction(1), trials=20, seed=4)
        assert sampled.worst_deviation <= exact.worst_deviation


def test_sampled_deterministic(table_graph):
    a = balex.verify_extractor_sampled(table_graph, 2, Fraction(1, 2), trials=10, seed=11)
    b = balex.verify_extractor_sampled(table_graph, 2, Fraction(1, 2), trials=10, seed=11)
    assert a.worst_deviation == b.worst_deviation


def test_sampled_on_linear_backend(linear_graph_12):
    # a = 4, so prefixes exist for k >= 5; sampled matches the same B exactly
    rep = balex.verify_extractor_sampled(linear_graph_12, 6, Fraction(1, 2), trials=3, seed=2)
    assert rep.kind == "extractor-sampled"
    assert 0 <= rep.worst_deviation <= 1
    exact_b = balex.stat_distance(linear_graph_12.prefix_view(12), range(1 << 12))
    full = balex.verify_extractor_sampled(linear_graph_12, 12, Fraction(1), trials=1, seed=0)
    assert full.worst_deviation == exact_b


def test_exact_refuses_right_sides_past_budget(wide_table_graph):
    # C(4, 2) subsets fit any budget, but a = -62 leaves 63 right bits to tally
    with pytest.raises(CapacityError, match="right side of 2\\^63 nodes"):
        balex.verify_extractor_exact(wide_table_graph, 1, Fraction(1, 2))


def test_sampled_refuses_left_sides_past_62_bits(monkeypatch):
    expansion = balex.SeedExpansion("counter", s=16, m=63, seed=1)
    g = balex.linear_graph(n=63, d=1, expansion=expansion)

    def no_draw(seed):
        raise AssertionError("drew left nodes before refusing n=63")

    monkeypatch.setattr(randgraph, "table_rng", no_draw)
    with pytest.raises(CapacityError):
        balex.verify_extractor_sampled(g, 2, Fraction(1, 4), trials=2, seed=0)


def test_sampled_draw_unchanged_at_62_bits():
    # the largest left side the sampled check accepts keeps its rng.choice stream
    expansion = balex.SeedExpansion("counter", s=16, m=62, seed=1)
    g = balex.linear_graph(n=62, d=1, expansion=expansion)
    rep = balex.verify_extractor_sampled(g, 2, Fraction(0), trials=1, seed=3)
    drawn = sorted(int(x) for x in randgraph.table_rng(3).choice(1 << 62, size=4, replace=False))
    assert rep.worst_deviation == balex.stat_distance(g.prefix_view(2), drawn)
    assert rep.passed or list(rep.witness_B) == drawn


# --- degree verification ------------------------------------------------------------


def test_verify_min_degree_constant(constant_table_graph):
    rep = balex.verify_min_degree(constant_table_graph, 2, 64)
    assert rep.passed and rep.min_degree == 64
    assert rep.degree_histogram[64] == 1
    assert rep.degree_histogram[0] == 3


def test_verify_min_degree_identity(identity_table_graph):
    assert balex.verify_min_degree(identity_table_graph, 4, 4).passed
    assert not balex.verify_min_degree(identity_table_graph, 4, 5).passed


def test_verify_min_degree_histogram_matches_brute_force(table_graph):
    view = table_graph.prefix_view(2)
    brute = {z: 0 for z in range(4)}
    for x in range(16):
        for y in range(8):
            brute[view.ext_eval(x, y)] += 1
    rep = balex.verify_min_degree(table_graph, 2, 2)
    histogram = {}
    for z in range(4):
        histogram[brute[z]] = histogram.get(brute[z], 0) + 1
    assert rep.degree_histogram == histogram


# --- search -----------------------------------------------------------------------


def test_search_trivial_thresholds_accept_first_sample():
    result = balex.search_balanced(
        3, 2, 3, epsilon=Fraction(1), Delta=1, t=3, max_attempts=1, seed=0
    )
    assert result.attempt == 0
    assert result.seed == attempt_seed(0, 0)


def test_search_injected_identity_candidate(identity_table_graph):
    result = balex.search_balanced(
        4, 2, 4,
        epsilon=Fraction(1), Delta=4, t=4,
        max_attempts=0, seed=0,
        candidates=(identity_table_graph,),
    )
    assert result.attempt == 0
    assert result.seed is None
    assert balex.serialize(result.graph) == balex.serialize(identity_table_graph)


def test_search_refuses_budgets_that_collide_attempt_keys(monkeypatch):
    assert attempt_seed(2, 2**32) == attempt_seed(3, 0)  # the collision refused
    drawn = []

    def counted(seed, attempt):
        drawn.append(attempt)
        if len(drawn) > 8:
            raise AssertionError("attempt keys drawn ahead of the search")
        return attempt_seed(seed, attempt)

    monkeypatch.setattr(randgraph, "attempt_seed", counted)
    with pytest.raises(ParameterError, match="max_attempts"):
        balex.search_balanced(3, 2, 3, Fraction(1), 1, 3, max_attempts=2**32 + 1, seed=0)
    assert drawn == []
    # 2^32 attempts still fit the key layout; the first one is accepted
    result = balex.search_balanced(3, 2, 3, Fraction(1), 1, 3, max_attempts=2**32, seed=0)
    assert (result.attempt, result.seed, drawn) == (0, attempt_seed(0, 0), [0])


def test_search_zero_attempts_fails():
    with pytest.raises(BalancedSearchError) as err:
        balex.search_balanced(4, 3, 4, Fraction(1, 2), 2, 3, max_attempts=0, seed=0)
    assert err.value.records == []


def test_search_failure_carries_diagnostics():
    # epsilon = 0 is unattainable for a random table
    with pytest.raises(BalancedSearchError) as err:
        balex.search_balanced(3, 2, 3, Fraction(0), 1, 3, max_attempts=2, seed=5)
    assert len(err.value.records) == 2
    for record in err.value.records:
        assert set(record.worst_by_k) == {1, 2, 3}
        assert not record.passed


def test_search_result_reverifies():
    result = balex.search_balanced(
        4, 3, 4, Fraction(1, 2), Delta=2, t=3, max_attempts=50, seed=7
    )
    g = result.graph
    assert balex.verify_min_degree(g, 3, 2).passed
    for k in range(1, 5):
        assert balex.verify_extractor_exact(g, k, Fraction(1, 2)).passed
    again = balex.search_balanced(
        4, 3, 4, Fraction(1, 2), Delta=2, t=3, max_attempts=50, seed=7
    )
    assert balex.serialize(again.graph) == balex.serialize(g)
    assert again.attempt == result.attempt


# --- coupon-collector bound -----------------------------------------------------


def test_newman_shepp_values():
    assert newman_shepp_bound(16, 1) == pytest.approx(16 * math.log(16))
    assert newman_shepp_bound(16, 1) == pytest.approx(44.361, abs=5e-4)
    expected = 16 * math.log(16) + 2 * 16 * math.log(math.log(16))
    assert newman_shepp_bound(16, 3) == pytest.approx(expected)
    assert newman_shepp_bound(16, 3) == pytest.approx(77.0, abs=0.05)


def test_newman_shepp_domain():
    with pytest.raises(ParameterError):
        newman_shepp_bound(2, 4)
    with pytest.raises(ParameterError):
        newman_shepp_bound(16, 0)


# --- report serialization ---------------------------------------------------------


def test_verify_report_to_dict(table_graph):
    rep = balex.verify_extractor_exact(table_graph, 2, Fraction(1, 2))
    doc = rep.to_dict()
    assert doc["kind"] == "extractor-exact"
    assert doc["pass"] is True
    assert doc["epsilon"] == "1/2"
    assert "/" in doc["worst_deviation"] or doc["worst_deviation"] == "0"
    record = AttemptRecord(index=0, seed=3, min_degree=5, worst_by_k={1: Fraction(1, 4)})
    assert record.to_dict()["worst_by_k"] == {"1": "1/4"}


def test_stat_distance_checks_members_like_every_b_set_reader(table_graph):
    from balex.errors import ShapeError

    view = table_graph.prefix_view(2)
    with pytest.raises(ShapeError, match="member of B: 0x10 does not fit in 4 bits"):
        balex.stat_distance(view, [1, 16])
    with pytest.raises(ShapeError, match="member of B: expected int"):
        balex.stat_distance(view, [1, "2"])
    assert balex.stat_distance(view, [3, 1, 3]) == balex.stat_distance(view, [1, 3])
