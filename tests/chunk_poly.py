"""Chunk-polynomial evaluation by Horner's rule, the reference for the
linear backend's row assembly.

An n-bit string is split little-endian into ceil(n/s) elements of GF(2^s):
chunk 0, the low s bits of the integer, is the constant term, and the top
chunk is zero-padded.  ``rs_eval`` evaluates that polynomial at a field
point one chunk at a time, independently of ``balex.gf2.row_assemble``,
which builds the same linear map column by column.
"""

from balex.bitstrings import check_bits


def rs_coefficients(x: int, n: int, s: int) -> list[int]:
    """The ceil(n/s) chunks of an n-bit string, constant term first."""
    check_bits(x, n, "rs input")
    count = max(1, -(-n // s))
    mask = (1 << s) - 1
    return [(x >> (j * s)) & mask for j in range(count)]


def rs_eval(field, x: int, n: int, v: int) -> int:
    """The chunk polynomial of x evaluated at v, by Horner's rule."""
    check_bits(v, field.s, "evaluation point")
    acc = 0
    for c in reversed(rs_coefficients(x, n, field.s)):
        acc = field.mul(acc, v) ^ c
    return acc
