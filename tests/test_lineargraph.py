import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balex
from balex.errors import BackendError, BalexError, FormatError, ParameterError
from balex.gf2 import field_make
from balex.lineargraph import (
    SeedExpansion,
    derive_amplification,
    derive_dims,
    save_pair_table,
)
from chunk_poly import rs_eval


# --- expansions -----------------------------------------------------------------


def test_counter_expansion_deterministic():
    a = SeedExpansion("counter", s=8, m=6, seed=5)
    b = SeedExpansion("counter", s=8, m=6, seed=5)
    assert a.pairs(3) == b.pairs(3)
    c = SeedExpansion("counter", s=8, m=6, seed=6)
    assert c.pairs(3) != a.pairs(3)


def test_counter_expansion_golden_values(linear_graph_12):
    # pins the keyed-hash derivation; a change breaks stored-graph portability
    assert balex.graph_digest(linear_graph_12) == (
        "sha256:10047c7c17c840ba01edb4c2918935c94c7cbde24a26b83397d3c230452b5432"
    )
    assert linear_graph_12.ext_eval(0xABC, 5) == 1


def test_counter_expansion_validation():
    with pytest.raises(ParameterError):
        SeedExpansion("counter", s=8, m=6)  # no seed
    with pytest.raises(ParameterError):
        SeedExpansion("counter", s=8, m=0, seed=1)
    with pytest.raises(ParameterError):
        SeedExpansion("bogus", s=8, m=6, seed=1)


def test_external_expansion_round_trip(tmp_path):
    path = tmp_path / "pairs.json"
    rows = [[(1, 2), (3, 4)], [(5, 6), (7, 0)]]
    save_pair_table(path, s=3, m=2, pairs=rows)
    exp = SeedExpansion("external", s=3, m=2, table_path=str(path))
    assert exp.pairs(0) == [(1, 2), (3, 4)]
    assert exp.pairs(1) == [(5, 6), (7, 0)]
    with pytest.raises(ParameterError):
        exp.pairs(2)


def test_external_expansion_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(FormatError):
        SeedExpansion("external", s=3, m=2, table_path=str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError):
        SeedExpansion("external", s=3, m=2, table_path=str(bad))
    mismatched = tmp_path / "mismatch.json"
    save_pair_table(mismatched, s=4, m=2, pairs=[[(0, 0), (0, 0)]])
    with pytest.raises(FormatError):
        SeedExpansion("external", s=3, m=2, table_path=str(mismatched))


def test_external_table_short_of_edge_labels_refused_at_build(tmp_path):
    from test_graphs import linear_file_with

    path = tmp_path / "pairs.json"
    save_pair_table(path, s=8, m=8, pairs=[[(1, i + 1) for i in range(8)]])
    exp = SeedExpansion("external", s=8, m=8, table_path=str(path))
    assert balex.linear_graph(n=12, d=0, expansion=exp).degree == 1
    with pytest.raises(ParameterError, match="covers 1 edge labels, a d=4 graph has 2"):
        balex.linear_graph(n=12, d=4, expansion=exp)
    with pytest.raises(FormatError, match="covers 1 edge labels"):
        balex.deserialize(linear_file_with(id="external", table=str(path)))


@pytest.mark.parametrize("content", [
    b"[1]",                                            # not a JSON object
    b'{"s": 3, "m": 2, "pairs": 5}',                   # pairs not a list
    b'{"s": 3, "m": 2, "pairs": []}',                  # no edge labels
    b'{"s": 3, "m": 2, "pairs": [[1]]}',               # a row that is not pairs
    b'{"s": 3, "m": 2, "pairs": [[[1, 2], [1]]]}',     # a pair of one entry
    b'{"s": 3, "m": 2, "pairs": [[[1, 2], [3, 4, 5]]]}',
    b'{"s": 3, "m": 2, "pairs": [[[1, 2]]]}',          # fewer than m pairs
    b'{"s": 3, "m": 2, "pairs": [[[1, 2], [3, 4]]]}\xff',  # not UTF-8
    b'{"s": 3, "m": 2, "pairs": [[[1, 2], [3, 8]]]}',  # mask past s bits
    b'{"s": 3, "m": 2, "pairs": [[[1, 2], [3, true]]]}',
])
def test_external_expansion_malformed_tables(tmp_path, content):
    path = tmp_path / "pairs.json"
    path.write_bytes(content)
    with pytest.raises(BalexError):
        SeedExpansion("external", s=3, m=2, table_path=str(path))


def _pair_table_bytes():
    """A valid s=3, m=2 table, one with some part garbage, or raw bytes."""
    junk = st.one_of(
        st.integers(-2, 9), st.text(max_size=2), st.none(), st.booleans(),
        st.floats(allow_nan=False), st.lists(st.integers(0, 7), max_size=3),
    )
    pair = st.lists(st.integers(0, 7), min_size=2, max_size=2)
    rows = st.lists(st.lists(pair, min_size=2, max_size=2), min_size=1, max_size=3)
    bad_rows = st.lists(st.one_of(st.lists(st.one_of(pair, junk), max_size=3), junk), max_size=3)
    valid = st.fixed_dictionaries({"s": st.just(3), "m": st.just(2), "pairs": rows})
    mutated = st.fixed_dictionaries({
        "s": st.one_of(st.just(3), junk),
        "m": st.one_of(st.just(2), junk),
        "pairs": st.one_of(rows, bad_rows, junk),
    })
    text = st.one_of(valid, mutated, mutated, junk).map(json.dumps).map(str.encode)
    return st.one_of(text, text, st.binary(max_size=40))


@settings(max_examples=100)
@given(data=_pair_table_bytes())
def test_pair_table_bytes_give_expansion_or_balex_error(data):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "pairs.json"
        path.write_bytes(data)
        try:
            exp = SeedExpansion("external", s=3, m=2, table_path=str(path))
        except BalexError:
            return
    for y in range(len(json.loads(data)["pairs"])):
        pairs = exp.pairs(y)
        assert len(pairs) == 2
        assert all(type(v) is int and 0 <= v < 8 for pair in pairs for v in pair)


# --- graph construction -----------------------------------------------------------


def test_derived_dimension_formula():
    eps = Fraction(1, 4)
    d, m = derive_dims(64, eps, c=1, kappa=0.01)
    assert d == math.ceil(0.01 * math.log2(64) ** 3 * math.log2(4) ** 2)
    assert m == 64 - d


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf, 1e308])
def test_derive_dims_rejects_kappa_without_finite_d(kappa):
    with pytest.raises(ParameterError, match="finite d"):
        derive_dims(64, Fraction(1, 4), kappa=kappa)


def test_build_linear_graph_rejects_small_m():
    exp = SeedExpansion("counter", s=16, m=8, seed=1)
    with pytest.raises(ParameterError):
        balex.build_linear_graph(64, Fraction(1, 4), exp)  # kappa=1 -> d=864


def test_build_linear_graph_checks_expansion_m():
    eps = Fraction(1, 4)
    d, m = derive_dims(64, eps, kappa=0.01)
    wrong = SeedExpansion("counter", s=16, m=m + 1, seed=1)
    with pytest.raises(ParameterError):
        balex.build_linear_graph(64, eps, wrong, kappa=0.01)
    right = SeedExpansion("counter", s=16, m=m, seed=1)
    graph = balex.build_linear_graph(64, eps, right, kappa=0.01)
    assert (graph.d, graph.m) == (d, m)


def test_derive_amplification_exact_ceiling():
    # 2 * (1/eps)^{3/2} * D^{c+1} with eps=1/4, d=3, c=1: 2*8*64 = 1024
    delta_blocks, t = derive_amplification(n=20, epsilon=Fraction(1, 4), d=3, c=1)
    assert delta_blocks == 1024
    assert t == 20 - (10 - 3)
    # irrational case rounds up: eps=1/2 -> 2*2^{1.5}*64 = 362.03...
    delta_blocks, _ = derive_amplification(n=20, epsilon=Fraction(1, 2), d=3, c=1)
    assert delta_blocks == 363


def test_zero_mask_expansion_maps_everything_to_zero(tmp_path):
    path = tmp_path / "zero.json"
    save_pair_table(path, s=4, m=4, pairs=[[(0, 0)] * 4 for _ in range(4)])
    exp = SeedExpansion("external", s=4, m=4, table_path=str(path))
    g = balex.linear_graph(n=4, d=2, expansion=exp)
    for x in range(16):
        for y in range(4):
            assert g.ext_eval(x, y) == 0


def test_linear_eval_at_zero_is_zero(linear_graph_12):
    for y in range(16):
        assert linear_graph_12.ext_eval(0, y) == 0


def test_determinism_same_descriptor_same_graph(linear_graph_12):
    descriptor = linear_graph_12.family.descriptor()
    from balex.lineargraph import family_from_descriptor

    rebuilt = balex.ExtractorGraph(
        12, 4, 8, family=family_from_descriptor(descriptor, n=12, d=4)
    )
    rng = np.random.Generator(np.random.Philox(key=1))
    for _ in range(300):
        x = int(rng.integers(0, 1 << 12))
        y = int(rng.integers(0, 16))
        assert rebuilt.ext_eval(x, y) == linear_graph_12.ext_eval(x, y)


def test_full_dump_matches_direct_inner_product_path():
    # two-path cross-check at n=16: matrix route vs per-x chunk evaluation
    expansion = SeedExpansion("counter", s=8, m=8, seed=3)
    g = balex.linear_graph(n=16, d=2, expansion=expansion)
    y = 1
    field = field_make(8)
    pairs = expansion.pairs(y)
    column = balex.dump_to_table(g).table.reshape(1 << 16, 4)[:, y]
    for x in range(1 << 16):
        direct = 0
        for point, mask in pairs:
            bit = (mask & rs_eval(field, x, 16, point)).bit_count() & 1
            direct = (direct << 1) | bit
        assert int(column[x]) == direct


# --- linearity check ---------------------------------------------------------------


def test_linearity_check_accepts_linear(linear_graph_12):
    assert balex.linearity_check(linear_graph_12, y=7)


def test_linearity_check_rejects_table_backend(table_graph):
    with pytest.raises(BackendError):
        balex.linearity_check(table_graph, y=0)


def test_dumped_table_passes_manual_linearity_identities(linear_graph_12):
    dumped = balex.dump_to_table(linear_graph_12)
    rng = np.random.Generator(np.random.Philox(key=13))
    for y in (0, 9):
        assert dumped.ext_eval(0, y) == 0
        for _ in range(100):
            x1 = int(rng.integers(0, 1 << 12))
            x2 = int(rng.integers(0, 1 << 12))
            assert dumped.ext_eval(x1 ^ x2, y) == dumped.ext_eval(x1, y) ^ dumped.ext_eval(x2, y)


def test_linearity_check_sampled_mode():
    expansion = SeedExpansion("counter", s=8, m=10, seed=44)
    g = balex.linear_graph(n=20, d=2, expansion=expansion)
    assert balex.linearity_check(g, y=2, trials=64, seed=5)


# --- indexed preimages ----------------------------------------------------------------


def test_prefix_identity_system_lists_suffixes_in_order(tmp_path):
    # A_y = [I | 0]: preimages of z are z-prefixed strings, suffix order
    n, m = 8, 4
    path = tmp_path / "prefix.json"
    rows = [[(0, 1 << (n - 1 - i)) for i in range(m)] for _ in range(2)]
    save_pair_table(path, s=n, m=m, pairs=rows)
    exp = SeedExpansion("external", s=n, m=m, table_path=str(path))
    g = balex.linear_graph(n=n, d=1, expansion=exp)
    pl = balex.left_neighbors_indexed(g, z=0b1010, y=0, Delta=8, t=8)
    assert pl is not None
    base = 0b1010 << 4
    assert list(pl) == [base + i for i in range(8)]


def test_unreachable_z_gives_nil(tmp_path):
    path = tmp_path / "zero.json"
    save_pair_table(path, s=4, m=4, pairs=[[(0, 0)] * 4 for _ in range(2)])
    exp = SeedExpansion("external", s=4, m=4, table_path=str(path))
    g = balex.linear_graph(n=4, d=1, expansion=exp)
    assert balex.left_neighbors_indexed(g, z=1, y=0, Delta=1, t=4) is None
    pl = balex.left_neighbors_indexed(g, z=0, y=0, Delta=16, t=4)
    assert pl is not None and len(set(pl)) == 16


def test_too_few_preimages_gives_nil(identity_linear_graph):
    # identity map: every z has exactly one preimage per label
    assert balex.left_neighbors_indexed(identity_linear_graph, 3, 0, Delta=2, t=4) is None
    pl = balex.left_neighbors_indexed(identity_linear_graph, 3, 0, Delta=1, t=4)
    assert pl is not None and list(pl) == [3]


def test_preimages_match_brute_force(linear_graph_12):
    g = linear_graph_12
    t = 10
    m_t = t - g.a  # 6
    delta_blocks = 1 << (g.n - m_t)  # 64: full solution space when full rank
    view = g.prefix_view(t)
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(40):
        y = int(rng.integers(0, g.degree))
        z = int(rng.integers(0, 1 << m_t))
        brute = [x for x in range(1 << g.n) if view.ext_eval(x, y) == z]
        pl = balex.left_neighbors_indexed(g, z, y, delta_blocks, t)
        if pl is None:
            assert len(brute) < delta_blocks
            continue
        got = list(pl)
        assert len(got) == delta_blocks
        assert len(set(got)) == delta_blocks
        assert set(got) <= set(brute)
        if len(brute) == delta_blocks:
            assert sorted(got) == brute


def test_preimage_list_index_bounds(linear_graph_12):
    pl = balex.left_neighbors_indexed(linear_graph_12, 0, 0, Delta=4, t=10)
    assert pl is not None
    assert pl.element(0) == pl.space.element(0)
    with pytest.raises(IndexError):
        pl.element(4)


def test_left_neighbors_requires_linear_backend(table_graph):
    with pytest.raises(BackendError):
        balex.left_neighbors_indexed(table_graph, 0, 0, Delta=1, t=3)


# --- degree guarantee -------------------------------------------------------------------


def test_delta_guarantee_exact_dimension_count():
    expansion = SeedExpansion("counter", s=8, m=12, seed=21)
    g = balex.linear_graph(n=16, d=3, expansion=expansion)
    t = 12  # m_t = t - a = 12 - 4 = 8, so n - m_t = 8
    assert balex.delta_guarantee(g, t, 256)
    assert not balex.delta_guarantee(g, t, 257)


def test_delta_guarantee_spot_checks_preimage_sizes(linear_graph_12):
    g = linear_graph_12
    t = 10
    m_t = t - g.a
    assert balex.delta_guarantee(g, t, 1 << (g.n - m_t), samples=12, seed=2)
    rng = np.random.Generator(np.random.Philox(key=23))
    view = g.prefix_view(t)
    for _ in range(12):
        y = int(rng.integers(0, g.degree))
        x = int(rng.integers(0, 1 << g.n))
        z = view.ext_eval(x, y)
        count = sum(1 for xx in range(1 << g.n) if view.ext_eval(xx, y) == z)
        trunc = g.family.matrix(y).truncate_rows(m_t)
        assert count == 1 << (g.n - trunc.rank())
        assert count >= 1 << (g.n - m_t)


def test_delta_guarantee_requires_linear_backend(table_graph):
    with pytest.raises(BackendError):
        balex.delta_guarantee(table_graph, 3, 2)


# --- descriptor embedding ----------------------------------------------------------------


def test_descriptor_embedded_in_graph_file(tmp_path, linear_graph_12):
    path = tmp_path / "lin.bgex"
    balex.save_graph(linear_graph_12, path)
    raw = path.read_bytes()
    descriptor = json.loads(raw[23:].decode("utf-8"))
    assert descriptor == {"id": "counter", "m": 8, "s": 8, "seed": 42}


def test_member_rows_past_int64_match_neighbors():
    # n = m = 64: truncated images >= 2^63 are written unsigned
    expansion = balex.SeedExpansion("counter", s=16, m=64, seed=5)
    g = balex.linear_graph(64, 1, expansion)
    view = g.prefix_view(64)
    x = 2**63 + 1
    assert view.neighbors(x) == [16426030115067378227, 10017315757147413383]
    assert view.member_rows([x, 5]).tolist() == [view.neighbors(x), view.neighbors(5)]
