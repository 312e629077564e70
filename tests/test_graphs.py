import json
import struct
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import balex
from balex.errors import (
    BalexError,
    CapacityError,
    FormatError,
    ParameterError,
    ShapeError,
)
from balex.graphs import BGEX_MAGIC, BalanceParams, ExtractorGraph, _entry_dtype


def brute_right_degrees(graph, k):
    """Independent edge scan: degree of every right node at prefix k."""
    view = graph.prefix_view(k)
    counts = Counter()
    for x in range(1 << graph.n):
        for y in range(graph.degree):
            counts[view.ext_eval(x, y)] += 1
    return counts


# --- evaluation and views -----------------------------------------------------


def test_table_lookup_by_definition():
    table = np.zeros(1 << 7, dtype=np.uint8)
    table[(0b0000 << 3) | 0b000] = 0b1011
    g = ExtractorGraph(4, 3, 4, table=table)
    assert g.ext_eval(0b0000, 0b000) == 0b1011


def test_identity_linear_backend_evaluates_to_input(identity_linear_graph):
    g = identity_linear_graph
    for x in range(16):
        for y in range(4):
            assert g.ext_eval(x, y) == x


def test_ext_eval_shape_errors(table_graph):
    with pytest.raises(ShapeError):
        table_graph.ext_eval(16, 0)
    with pytest.raises(ShapeError):
        table_graph.ext_eval(0, 8)
    with pytest.raises(ShapeError):
        table_graph.ext_eval(-1, 0)


def test_seeded_table_matches_independent_expansion():
    # oracle: a second expansion of the same seed, bypassing sample_table
    g = balex.sample_table(4, 3, 4, seed=123)
    rng = np.random.Generator(np.random.Philox(key=123))
    expected = rng.integers(0, 16, size=128, dtype=np.uint64)
    for x in range(16):
        for y in range(8):
            assert g.ext_eval(x, y) == int(expected[(x << 3) | y])


def test_prefix_view_full_k_is_identity(table_graph):
    view = table_graph.prefix_view(4)
    for x in range(16):
        for y in range(8):
            assert view.ext_eval(x, y) == table_graph.ext_eval(x, y)


def test_prefix_view_truncates_to_leading_bits():
    table = np.full(1 << 5, 0b1011, dtype=np.uint8)
    g = ExtractorGraph(4, 1, 4, table=table)  # a = 0
    assert g.prefix_view(2).ext_eval(0, 0) == 0b10
    assert g.prefix_view(3).ext_eval(0, 0) == 0b101


def test_prefix_views_are_coherent(table_graph):
    for k in range(1, 4):
        lo = table_graph.prefix_view(k)
        hi = table_graph.prefix_view(k + 1)
        for x in range(16):
            trunc = [z >> 1 for z in hi.neighbors(x)]
            assert trunc == lo.neighbors(x)


def test_prefix_view_parameter_errors(table_graph):
    with pytest.raises(ParameterError):
        table_graph.prefix_view(0)
    with pytest.raises(ParameterError):
        table_graph.prefix_view(5)


def test_prefix_view_respects_negative_a():
    # m > n: a = -2, so k - a stays >= 1 even at k = 1
    table = np.arange(1 << 5, dtype=np.uint8)
    g = ExtractorGraph(3, 2, 5, table=table)
    assert g.a == -2
    view = g.prefix_view(1)
    assert view.m_k == 3


# --- neighbors and degrees -----------------------------------------------------


def test_constant_graph_neighbors_collapse(constant_table_graph):
    view = constant_table_graph.prefix_view(2)
    assert view.neighbors(5) == [0, 0, 0, 0]


def test_identity_neighbors_distinct_per_label(identity_table_graph):
    # one right node per edge label would need an injective row; here the
    # row is constant, so check an injective-in-y table instead
    table = np.array([(x ^ y) for x in range(16) for y in range(4)], dtype=np.uint8)
    g = ExtractorGraph(4, 2, 4, table=table)
    view = g.prefix_view(4)
    for x in range(16):
        assert len(set(view.neighbors(x))) == 4


def test_neighbor_multiset_size_is_degree(table_graph):
    rng = np.random.Generator(np.random.Philox(key=5))
    for _ in range(100):
        x = int(rng.integers(0, 16))
        for k in range(1, 5):
            sizes = Counter(table_graph.prefix_view(k).neighbors(x))
            assert sum(sizes.values()) == table_graph.degree


def test_right_degree_constant_graph(constant_table_graph):
    view = constant_table_graph.prefix_view(2)
    assert view.right_degree(0) == 16 * 4
    for z in range(1, 4):
        assert view.right_degree(z) == 0


def test_right_degree_identity_full_prefix(identity_table_graph):
    view = identity_table_graph.prefix_view(4)
    for z in range(16):
        assert view.right_degree(z) == identity_table_graph.degree


def test_right_degrees_match_brute_force(table_graph):
    for k in (2, 4):
        view = table_graph.prefix_view(k)
        brute = brute_right_degrees(table_graph, k)
        for z in range(view.r_size):
            assert view.right_degree(z) == brute.get(z, 0)
        counts = view.degree_counts()
        assert counts.sum() == (1 << table_graph.n) * table_graph.degree


def test_linear_backend_degrees_match_dumped_table(linear_graph_12):
    dumped = balex.dump_to_table(linear_graph_12)
    rng = np.random.Generator(np.random.Philox(key=12))
    xs = [int(x) for x in rng.integers(0, 1 << 12, size=40)]
    members = np.array(sorted(set(xs)), dtype=np.int64)
    for k in (6, 9, 12):
        lin = linear_graph_12.prefix_view(k)
        tab = dumped.prefix_view(k)
        assert np.array_equal(lin.degree_counts(), tab.degree_counts())
        assert (
            balex.verify_min_degree(linear_graph_12, k, 1).min_degree
            == balex.verify_min_degree(dumped, k, 1).min_degree
        )
        for x in xs[:8]:
            assert lin.neighbors(x) == tab.neighbors(x)
            for y in (0, 5, 15):
                assert lin.ext_eval(x, y) == tab.ext_eval(x, y)
        assert np.array_equal(lin.prefixed_rows(), tab.prefixed_rows())
        assert np.array_equal(lin.member_rows(members), tab.member_rows(members))
    lin = linear_graph_12.prefix_view(9)
    tab = dumped.prefix_view(9)
    for z in (0, 1, 17, 31):
        assert lin.right_degree(z) == tab.right_degree(z)


def test_min_nonzero_right_degree_examples(
    constant_table_graph, identity_table_graph, table_graph
):
    assert balex.verify_min_degree(constant_table_graph, 2, 1).min_degree == 64
    assert balex.verify_min_degree(identity_table_graph, 4, 1).min_degree == 4
    brute = brute_right_degrees(table_graph, 4)
    assert balex.verify_min_degree(table_graph, 4, 1).min_degree == min(brute.values())


def test_degree_counts_capacity_error():
    expansion = balex.SeedExpansion("counter", s=30, m=30, seed=1)
    g = balex.linear_graph(n=30, d=1, expansion=expansion)
    with pytest.raises(CapacityError):
        g.prefix_view(30).degree_counts()


def test_total_edge_mass_every_k(table_graph):
    total = (1 << table_graph.n) * table_graph.degree
    for k in range(1, 5):
        assert int(table_graph.prefix_view(k).degree_counts().sum()) == total


# --- serialization --------------------------------------------------------------


def test_serialize_round_trip_table(table_graph):
    data = balex.serialize(table_graph)
    g2 = balex.deserialize(data)
    for x in range(16):
        for y in range(8):
            assert g2.ext_eval(x, y) == table_graph.ext_eval(x, y)
    assert balex.serialize(g2) == data


def test_serialize_round_trip_linear(linear_graph_12):
    data = balex.serialize(linear_graph_12)
    g2 = balex.deserialize(data)
    assert g2.backend_kind == "linear"
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(200):
        x = int(rng.integers(0, 1 << 12))
        y = int(rng.integers(0, 16))
        assert g2.ext_eval(x, y) == linear_graph_12.ext_eval(x, y)


def test_serialized_size_formula(table_graph):
    data = balex.serialize(table_graph)
    assert data[:4] == BGEX_MAGIC
    assert len(data) == 19 + (1 << 7) * 1  # ceil(4/8) = 1 byte per entry


@pytest.mark.parametrize("m", [1, 8, 9, 14, 17, 24, 33, 57, 64])
def test_table_codec_every_entry_width(m):
    # each entry is ceil(m/8) little-endian bytes, whatever the table's dtype
    n, d, width = 3, 2, (m + 7) // 8
    rng = np.random.Generator(np.random.Philox(key=m))
    drawn = rng.integers(0, 1 << m, size=(1 << (n + d)) - 2, dtype=np.uint64)
    values = [0, (1 << m) - 1] + [int(v) for v in drawn]
    g = ExtractorGraph(n, d, m, table=np.array(values, dtype=_entry_dtype(m)))
    data = balex.serialize(g)
    payload = data[19:]
    assert len(payload) == len(values) * width
    for i, v in enumerate(values):
        assert int.from_bytes(payload[i * width:(i + 1) * width], "little") == v
    g2 = balex.deserialize(data)
    assert g2.table.dtype == _entry_dtype(m)
    assert [int(v) for v in g2.table] == values
    assert balex.serialize(g2) == data
    wide = ExtractorGraph(n, d, m, table=np.array(values, dtype=np.uint64))
    assert balex.serialize(wide) == data


def test_table_rejects_signed_non_integer_and_wide_entries():
    tables = [
        np.array([-1, 3, 5, 7, 1, 2, 3, 4], dtype=np.int64),
        np.array([1, 3, 5, 7, 1, 2, 3, 4], dtype=np.int8),
        np.arange(8, dtype=np.float64),
        np.ones(8, dtype=bool),
        np.array([16, 3, 5, 7, 1, 2, 3, 4], dtype=np.uint8),
    ]
    for table in tables:
        with pytest.raises(FormatError, match="unsigned integers of at most m=4 bits"):
            ExtractorGraph(2, 1, 4, table=table)


def test_payload_byte_flip_changes_exactly_one_output(table_graph):
    data = bytearray(balex.serialize(table_graph))
    flip = 19 + 37
    data[flip] ^= 0x0B
    g2 = balex.deserialize(bytes(data))
    diffs = [
        (x, y)
        for x in range(16)
        for y in range(8)
        if g2.ext_eval(x, y) != table_graph.ext_eval(x, y)
    ]
    assert len(diffs) == 1
    assert diffs[0] == (37 >> 3, 37 & 0b111)


def test_deserialize_rejects_bad_inputs(table_graph):
    data = balex.serialize(table_graph)
    with pytest.raises(FormatError):
        balex.deserialize(b"NOPE" + data[4:])
    with pytest.raises(FormatError):
        balex.deserialize(data[:-1])
    bad_version = bytearray(data)
    bad_version[4] = 9
    with pytest.raises(FormatError):
        balex.deserialize(bytes(bad_version))
    with pytest.raises(FormatError):
        balex.deserialize(data + b"\x00")


def table_header_with_m(graph, m):
    data = bytearray(balex.serialize(graph))
    struct.pack_into("<I", data, 14, m)
    return bytes(data)


def linear_file_with(header=(12, 4, 8), **fields):
    descriptor = {"id": "counter", "s": 8, "m": header[2], "seed": 5}
    descriptor.update(fields)
    body = json.dumps(descriptor).encode("utf-8")
    head = BGEX_MAGIC + struct.pack("<HIII", 1, *header)
    return head + bytes([1]) + struct.pack("<I", len(body)) + body


BAD_DESCRIPTORS = {
    "seed-str": {"seed": "5"},
    "seed-float": {"seed": 5.0},
    "seed-bool": {"seed": True},
    "s-str": {"s": "8"},
    "m-str": {"m": "8"},
    "table-int": {"id": "external", "table": 0},
    "unknown-id": {"id": "bogus", "s": 4, "m": 4},
}


def test_deserialize_rejects_table_widths_outside_1_to_64(table_graph):
    for m in (0, 65, 72):
        with pytest.raises(FormatError, match="outside 1..64"):
            balex.deserialize(table_header_with_m(table_graph, m))


# (n, d, m) headers of linear files whose widths fall outside 1..64
BAD_LINEAR_HEADERS = [(10**6, 4, 10**6), (65, 4, 8), (0, 4, 8), (12, 4, 65), (12, 4, 0)]


def test_deserialize_rejects_linear_widths_outside_1_to_64():
    assert balex.deserialize(linear_file_with(header=(64, 1, 64))).m == 64
    for header in BAD_LINEAR_HEADERS:
        with pytest.raises(FormatError, match="outside 1..64"):
            balex.deserialize(linear_file_with(header=header))
    with pytest.raises(FormatError, match="header says m=9"):
        balex.deserialize(linear_file_with(header=(12, 4, 9), m=8))


@pytest.mark.parametrize("fields", BAD_DESCRIPTORS.values(), ids=BAD_DESCRIPTORS.keys())
def test_deserialize_rejects_mistyped_descriptor_fields(fields):
    assert balex.deserialize(linear_file_with()).n == 12
    with pytest.raises(FormatError, match="must be a JSON"):
        balex.deserialize(linear_file_with(**fields))


@pytest.fixture(scope="module")
def pair_table(tmp_path_factory):
    """An external-expansion table for the s=8, m=8 descriptors of ``linear_file_with``."""
    from balex.lineargraph import save_pair_table

    path = tmp_path_factory.mktemp("descriptor") / "pairs.json"
    save_pair_table(path, 8, 8, [[(y, i + 1) for i in range(8)] for y in range(16)])
    return str(path)


def _descriptors(table):
    """A valid counter or external descriptor, one with fields dropped or garbled, or junk."""
    junk = st.one_of(
        st.integers(-2, 70), st.integers(), st.text(max_size=3), st.none(), st.booleans(),
        st.floats(allow_nan=False), st.lists(st.integers(0, 3), max_size=2),
    )
    counter = st.fixed_dictionaries({
        "id": st.just("counter"), "s": st.integers(1, 16), "m": st.just(8),
        "seed": st.integers(0, 2**64 - 1),
    })
    external = st.fixed_dictionaries(
        {"id": st.just("external"), "s": st.just(8), "m": st.just(8), "table": st.just(table)})
    mutated = st.fixed_dictionaries({}, optional={
        "id": st.one_of(st.sampled_from(["counter", "external"]), junk),
        "s": st.one_of(st.integers(0, 40), junk),
        "m": st.one_of(st.just(8), junk),
        "seed": st.one_of(st.integers(-1, 2**65), junk),
        "table": st.one_of(st.just(table), st.just(table + ".missing"), junk),
    })
    return st.one_of(counter, external, mutated, mutated, junk)


@settings(max_examples=100)
@given(data=st.data())
def test_linear_descriptor_json_gives_graph_or_balex_error(pair_table, data):
    body = json.dumps(data.draw(_descriptors(pair_table))).encode("utf-8")
    blob = BGEX_MAGIC + struct.pack("<HIII", 1, 12, 4, 8) + bytes([1])
    try:
        graph = balex.deserialize(blob + struct.pack("<I", len(body)) + body)
    except BalexError:
        return
    assert (graph.n, graph.d, graph.m) == (12, 4, 8)
    assert 0 <= graph.ext_eval(0xABC, 15) < 1 << 8


def _overwrite(data, edits, header, cut, tail):
    """``data`` with bytes overwritten, (n, d, m) header fields replaced, cut (unless
    ``cut`` is None) and extended."""
    buf = bytearray(data)
    for pos, byte in edits:
        buf[pos % len(buf)] = byte
    for field, value in header:
        struct.pack_into("<I", buf, 6 + 4 * field, value)
    return bytes(buf[:cut]) + tail


def _bgex_bytes(valid_files):
    """Arbitrary bytes, or a valid table or linear file with its header or body garbled."""
    garbled = st.builds(
        _overwrite,
        st.sampled_from(valid_files),
        st.lists(st.tuples(st.integers(0, 200), st.integers(0, 255)), max_size=3),
        st.lists(st.tuples(st.integers(0, 2), st.one_of(st.integers(0, 70),
                                                        st.integers(0, 2**32 - 1))), max_size=2),
        st.one_of(st.none(), st.integers(0, 300)),
        st.one_of(st.just(b""), st.binary(max_size=8)),
    )
    headers = st.builds(
        lambda head, tag, body: BGEX_MAGIC + struct.pack("<HIII", 1, *head) + bytes([tag]) + body,
        st.tuples(*[st.integers(0, 70)] * 3), st.integers(0, 2), st.binary(max_size=40))
    return st.one_of(st.binary(max_size=40), headers, garbled, garbled)


@settings(max_examples=150)
@given(data=st.data())
def test_bgex_bytes_give_graph_or_balex_error(table_graph, data):
    valid = [balex.serialize(table_graph), linear_file_with(), linear_file_with(header=(64, 1, 64))]
    blob = data.draw(_bgex_bytes(valid))
    try:
        graph = balex.deserialize(blob)
    except BalexError:
        return
    assert isinstance(graph, ExtractorGraph)
    assert 0 <= graph.ext_eval(0, 0) < 1 << graph.m


def test_save_load_graph(tmp_path, table_graph):
    path = tmp_path / "g.bgex"
    balex.save_graph(table_graph, path)
    g2 = balex.load_graph(path)
    assert balex.serialize(g2) == balex.serialize(table_graph)
    assert balex.graph_digest(g2) == balex.graph_digest(table_graph)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip_random_graphs(data):
    n = data.draw(st.integers(1, 4), label="n")
    d = data.draw(st.integers(0, 3), label="d")
    m = data.draw(st.integers(1, 12), label="m")
    entries = data.draw(
        st.lists(
            st.integers(0, (1 << m) - 1),
            min_size=1 << (n + d),
            max_size=1 << (n + d),
        ),
        label="table",
    )
    g = ExtractorGraph(n, d, m, table=np.array(entries, dtype=np.uint16))
    g2 = balex.deserialize(balex.serialize(g))
    assert (g2.n, g2.d, g2.m) == (n, d, m)
    for x in range(1 << n):
        for y in range(1 << d):
            assert g2.ext_eval(x, y) == g.ext_eval(x, y)


# --- balance parameters ----------------------------------------------------------


def test_balance_params_validation():
    with pytest.raises(ParameterError):
        BalanceParams(epsilon=Fraction(0), Delta=2, t=3)
    with pytest.raises(ParameterError):
        BalanceParams(epsilon=Fraction(1), Delta=2, t=3)
    with pytest.raises(ParameterError):
        BalanceParams(epsilon=Fraction(1, 2), Delta=0, t=3)
    with pytest.raises(ParameterError):
        BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=0)


def test_balance_params_exact_and_symbolic_delta():
    square = BalanceParams(epsilon=Fraction(1, 16), Delta=4, t=3)
    assert square.delta_exact == Fraction(1, 4)
    rough = BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=3)
    assert rough.delta_exact is None
    assert rough.to_dict()["delta"] == "sqrt(1/2)"


def test_balance_params_graph_compatibility(table_graph):
    BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=3).check_with_graph(table_graph)
    with pytest.raises(ParameterError):
        BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=5).check_with_graph(table_graph)
    assert BalanceParams(epsilon=Fraction(1, 2), Delta=2, t=3).list_size(8) == 16
