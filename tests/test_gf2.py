import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balex.errors import ParameterError
from balex.gf2 import (
    LEX_LEAST_IRREDUCIBLE,
    Field2s,
    Gf2Matrix,
    field_make,
    least_irreducible,
    row_assemble,
    solve_affine,
)
from chunk_poly import rs_coefficients, rs_eval


# --- fields ---------------------------------------------------------------


def test_degree_one_field_is_gf2():
    f = field_make(1)
    assert f.modulus == 0b10  # the polynomial "x"
    assert f.mul(1, 1) == 1
    assert f.mul(0, 1) == 0
    assert f.add(1, 1) == 0


def test_gf4_defining_relation():
    f = field_make(2)
    assert f.modulus == 0b111
    # alpha * alpha = alpha + 1
    assert f.mul(0b10, 0b10) == 0b11


@pytest.mark.parametrize("s", list(range(1, 13)) + [16, 32])
def test_published_moduli_are_least_irreducible(s):
    assert least_irreducible(s) == LEX_LEAST_IRREDUCIBLE[s]


def test_reducible_modulus_rejected():
    with pytest.raises(ParameterError):
        Field2s(4, 0b10001)  # x^4 + 1 = (x + 1)^4
    with pytest.raises(ParameterError):
        Field2s(3, 0b1111)  # x^3 + x^2 + x + 1 = (x + 1)(x^2 + 1)


def test_field_degree_bounds():
    with pytest.raises(ParameterError):
        field_make(0)
    with pytest.raises(ParameterError):
        field_make(33)


@settings(max_examples=200)
@given(
    a=st.integers(0, 255),
    b=st.integers(0, 255),
    c=st.integers(0, 255),
)
def test_gf256_ring_axioms(a, b, c):
    f = field_make(8)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    assert f.mul(a, 1) == a


@pytest.mark.parametrize("s", [1, 2, 3, 4, 8])
def test_every_nonzero_element_has_inverse(s):
    f = field_make(s)
    for a in range(1, 1 << s):
        assert any(f.mul(a, b) == 1 for b in range(1, 1 << s))


# --- chunk-polynomial evaluation (the Horner reference in tests/) ----------


def test_rs_eval_zero_polynomial():
    f = field_make(4)
    for v in range(16):
        assert rs_eval(f, 0, 12, v) == 0


def test_rs_eval_at_zero_returns_constant_chunk():
    f = field_make(4)
    x = 0b1011_0110_1100
    assert rs_eval(f, x, 12, 0) == 0b1100


def test_rs_coefficients_little_endian_chunks():
    assert rs_coefficients(0b1101, 4, 2) == [0b01, 0b11]
    assert rs_coefficients(0b10110, 5, 2) == [0b10, 0b01, 0b1]


def _field_pow(f, v, e):
    out = 1
    for _ in range(e):
        out = f.mul(out, v)
    return out


def _rs_eval_term_sum(f, x, n, v):
    # independent oracle: expand sum_j c_j * v^j term by term
    out = 0
    for j, c in enumerate(rs_coefficients(x, n, f.s)):
        if c:
            out ^= f.mul(c, _field_pow(f, v, j))
    return out


@pytest.mark.parametrize("s,n", [(2, 4), (4, 12), (8, 12), (5, 17)])
def test_rs_eval_matches_term_sum_oracle(s, n):
    f = field_make(s)
    rng = random.Random(1234)
    for _ in range(200):
        x = rng.randrange(1 << n)
        v = rng.randrange(1 << s)
        assert rs_eval(f, x, n, v) == _rs_eval_term_sum(f, x, n, v)


@settings(max_examples=150)
@given(
    x1=st.integers(0, (1 << 12) - 1),
    x2=st.integers(0, (1 << 12) - 1),
    v=st.integers(0, 15),
)
def test_rs_eval_additive(x1, x2, v):
    f = field_make(4)
    assert rs_eval(f, x1 ^ x2, 12, v) == rs_eval(f, x1, 12, v) ^ rs_eval(f, x2, 12, v)


# --- evaluation matrices ----------------------------------------------------


def eval_matrix(f, n, v):
    # row_assemble with unit masks: row i reads the alpha^(s-1-i) coordinate,
    # so mat_vec returns the evaluation at v as a field element
    return row_assemble(f, n, [(v, 1 << (f.s - 1 - i)) for i in range(f.s)], f.s)


def test_eval_matrix_at_zero_selects_constant_chunk():
    f = field_make(4)
    mat = eval_matrix(f, 12, 0)
    for x in (0, 0b1011_0110_1100, 0xFFF):
        assert mat.mat_vec(x) == x & 0xF


def test_eval_matrix_columns_are_unit_evaluations():
    f = field_make(4)
    n = 10
    rng = random.Random(5)
    for _ in range(20):
        v = rng.randrange(16)
        mat = eval_matrix(f, n, v)
        for j in range(n):
            unit = 1 << (n - 1 - j)
            assert mat.mat_vec(unit) == rs_eval(f, unit, n, v)


def test_eval_matrix_agrees_with_rs_eval():
    f = field_make(8)
    n = 20
    rng = random.Random(99)
    for _ in range(50):
        v = rng.randrange(256)
        mat = eval_matrix(f, n, v)
        for _ in range(20):
            x = rng.randrange(1 << n)
            assert mat.mat_vec(x) == rs_eval(f, x, n, v)


# --- row assembly -----------------------------------------------------------


def test_row_assemble_constant_points_fixed_bits():
    # point 0 selects the constant chunk; mask bit b reads chunk bit b
    f = field_make(4)
    n = 8
    mat = row_assemble(f, n, [(0, 1)] * 3, 3)
    for row in mat.rows:
        assert row == 1  # reads integer bit 0 of x
    assert mat.mat_vec(0b0000_0001) == 0b111
    assert mat.mat_vec(0b0000_0010) == 0


def test_row_assemble_zero_masks_zero_matrix():
    f = field_make(4)
    mat = row_assemble(f, 8, [(3, 0), (7, 0)], 2)
    assert mat.rows == (0, 0)
    for x in range(256):
        assert mat.mat_vec(x) == 0


def test_row_assemble_single_row_inner_product_oracle():
    f = field_make(4)
    n = 12
    rng = random.Random(7)
    for _ in range(30):
        g = rng.randrange(16)
        h = rng.randrange(16)
        mat = row_assemble(f, n, [(g, h)], 1)
        for _ in range(30):
            x = rng.randrange(1 << n)
            expected = (h & rs_eval(f, x, n, g)).bit_count() & 1
            assert mat.mat_vec(x) == expected


def test_row_assemble_linearity():
    f = field_make(4)
    n = 10
    rng = random.Random(11)
    pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(6)]
    mat = row_assemble(f, n, pairs, 6)
    for _ in range(100):
        x1 = rng.randrange(1 << n)
        x2 = rng.randrange(1 << n)
        assert mat.mat_vec(x1 ^ x2) == mat.mat_vec(x1) ^ mat.mat_vec(x2)


@pytest.mark.parametrize(
    "s,n",
    [(1, 1), (1, 7), (1, 64), (2, 5), (3, 64), (4, 10), (5, 17), (8, 12),
     (16, 64), (24, 70), (31, 40), (32, 33), (32, 64)],
)
def test_row_assemble_matches_term_sum_oracle_bitwise(s, n):
    # every mask bit b and input bit p: row b holds bit b of the term-sum
    # evaluation of the unit vector 1 << p; points include 0 and 1
    f = field_make(s)
    rng = random.Random(s * 100 + n)
    for v in sorted({0, 1, rng.randrange(1 << s), rng.randrange(1 << s)}):
        mat = row_assemble(f, n, [(v, 1 << b) for b in range(s)], s)
        for p in range(n):
            image = _rs_eval_term_sum(f, 1 << p, n, v)
            for b in range(s):
                assert (mat.rows[b] >> p) & 1 == (image >> b) & 1, (v, p, b)
        mask = rng.randrange(1 << s)
        row = row_assemble(f, n, [(v, mask)], 1).rows[0]
        for p in range(n):
            image = _rs_eval_term_sum(f, 1 << p, n, v)
            assert (row >> p) & 1 == (mask & image).bit_count() & 1


def test_row_assemble_pair_count_mismatch():
    f = field_make(4)
    with pytest.raises(ParameterError):
        row_assemble(f, 8, [(0, 1)], 2)


# --- affine solving ----------------------------------------------------------


def test_solve_affine_identity_unique_solution():
    mat = Gf2Matrix((0b100, 0b010, 0b001), 3)
    space = solve_affine(mat, 0b101)
    assert space is not None
    assert space.particular == 0b101
    assert space.dim == 0
    assert space.element(0) == 0b101


def test_solve_affine_one_free_variable():
    mat = Gf2Matrix((0b100, 0b010), 3)
    space = solve_affine(mat, 0b10)
    assert space is not None
    assert space.dim == 1
    assert space.element(0) == 0b100
    assert space.element(1) == 0b101
    assert sorted(space) == [0b100, 0b101]


def test_solve_affine_inconsistent_returns_none():
    mat = Gf2Matrix((0b110, 0b110), 3)
    assert solve_affine(mat, 0b01) is None


def _brute_solutions(mat, z, n):
    return sorted(x for x in range(1 << n) if mat.mat_vec(x) == z)


def test_solve_affine_random_8x12_vs_brute_force():
    rng = random.Random(2024)
    n = 12
    for _ in range(10):
        rows = tuple(rng.randrange(1 << n) for _ in range(8))
        mat = Gf2Matrix(rows, n)
        z = rng.randrange(1 << 8)
        space = solve_affine(mat, z)
        brute = _brute_solutions(mat, z, n)
        if space is None:
            assert brute == []
        else:
            assert sorted(space) == brute
            assert space.size() == len(brute)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_affine_small_systems_exact(data):
    n = data.draw(st.integers(2, 8))
    r = data.draw(st.integers(1, 6))
    rows = tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(r))
    z = data.draw(st.integers(0, (1 << r) - 1))
    mat = Gf2Matrix(rows, n)
    space = solve_affine(mat, z)
    brute = _brute_solutions(mat, z, n)
    if space is None:
        assert brute == []
    else:
        assert sorted(space) == brute


def test_affine_element_indexing_and_bounds():
    mat = Gf2Matrix((0b1000000000,), 10)
    space = solve_affine(mat, 0)
    assert space is not None
    assert space.dim == 9
    seen = {space.element(i) for i in range(1 << 9)}
    assert len(seen) == 1 << 9
    for x in seen:
        assert mat.mat_vec(x) == 0
    with pytest.raises(IndexError):
        space.element(1 << 9)
    with pytest.raises(IndexError):
        space.element(-1)


def test_kernel_basis_gives_suffix_order_for_prefix_systems():
    # rows = [I | 0]: solutions of z are z-prefixed strings in increasing order
    n, m = 6, 2
    rows = tuple(1 << (n - 1 - i) for i in range(m))
    mat = Gf2Matrix(rows, n)
    space = solve_affine(mat, 0b10)
    assert space is not None
    base = 0b10 << (n - m)
    assert [space.element(i) for i in range(1 << (n - m))] == [
        base + i for i in range(1 << (n - m))
    ]


def test_matrix_rank():
    mat = Gf2Matrix((0b110, 0b011, 0b101), 3)
    assert mat.rank() == 2
