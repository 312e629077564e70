from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balex.bitstrings import check_bits, from_hex, to_bits, to_hex
from balex.errors import ParameterError, ShapeError
from balex.exact import (
    ceil_log2,
    ceil_scaled_sqrt,
    frac_sqrt,
    ge_scaled_sqrt,
    le_scaled_sqrt,
)


def test_bitstring_conventions():
    assert to_hex(0b1011, 4) == "b"
    assert to_hex(0b1011, 12) == "00b"
    assert from_hex("b", 4) == 0b1011
    assert to_bits(0b1011, 4) == "1011"
    assert to_hex(0, 0) == "0"


def test_bitstring_errors():
    with pytest.raises(ShapeError):
        check_bits(16, 4)
    with pytest.raises(ShapeError):
        check_bits(-1, 4)
    with pytest.raises(ShapeError):
        check_bits(True, 4)
    with pytest.raises(ShapeError):
        from_hex("xyz", 4)
    with pytest.raises(ShapeError):
        from_hex("ff", 4)


@settings(max_examples=100)
@given(value=st.integers(0, (1 << 20) - 1), length=st.just(20))
def test_hex_round_trip(value, length):
    assert from_hex(to_hex(value, length), length) == value


def test_frac_sqrt():
    assert frac_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert frac_sqrt(Fraction(0)) == 0
    assert frac_sqrt(Fraction(1, 2)) is None
    with pytest.raises(ParameterError):
        frac_sqrt(Fraction(-1, 4))


def test_scaled_sqrt_comparisons_at_boundaries():
    # lhs exactly equals coeff * sqrt(rad) when rad is a perfect square
    assert le_scaled_sqrt(Fraction(3, 2), 3, Fraction(1, 4))
    assert ge_scaled_sqrt(Fraction(3, 2), 3, Fraction(1, 4))
    assert not le_scaled_sqrt(Fraction(3, 2) + Fraction(1, 10**9), 3, Fraction(1, 4))
    assert not ge_scaled_sqrt(Fraction(3, 2) - Fraction(1, 10**9), 3, Fraction(1, 4))
    # negative left-hand sides
    assert le_scaled_sqrt(Fraction(-5), 1, Fraction(1, 2))
    assert not ge_scaled_sqrt(Fraction(-5), 1, Fraction(1, 2))
    with pytest.raises(ParameterError):
        le_scaled_sqrt(Fraction(1), -1, Fraction(1, 2))


@settings(max_examples=100)
@given(
    num=st.integers(1, 10**6),
    den=st.integers(1, 10**3),
    coeff=st.integers(0, 100),
)
def test_ceil_scaled_sqrt_is_exact(num, den, coeff):
    rad = Fraction(num, den)
    g = ceil_scaled_sqrt(coeff, rad)
    # g >= coeff * sqrt(rad) and g - 1 < coeff * sqrt(rad)
    assert ge_scaled_sqrt(Fraction(g), coeff, rad)
    if g > 0:
        assert not ge_scaled_sqrt(Fraction(g - 1), coeff, rad)


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(1024) == 10
    assert ceil_log2(1025) == 11
    with pytest.raises(ParameterError):
        ceil_log2(0)
