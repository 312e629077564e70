"""Bit-string conventions used everywhere in the package.

A bit string of length ``L`` is stored as a non-negative int together with an
explicit length.  The first character of the written string is the most
significant bit: ``"1011"`` is the integer ``0b1011 = 11`` at length 4.  The
prefix of length ``j`` of an ``L``-bit value is therefore ``value >> (L - j)``.

Hex I/O zero-pads to ``ceil(L/4)`` digits; the length is always carried by the
surrounding context (file header, CLI flag), never by the hex text itself.
"""

from __future__ import annotations

from .errors import ShapeError


def check_bits(value: int, length: int, what: str = "value") -> int:
    if length < 0:
        raise ShapeError(f"{what}: negative length {length}")
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ShapeError(f"{what}: expected int, got {type(value).__name__}")
    if value < 0 or value >> length:
        raise ShapeError(f"{what}: {value:#x} does not fit in {length} bits")
    return value


def to_hex(value: int, length: int) -> str:
    check_bits(value, length, "to_hex")
    digits = max(1, (length + 3) // 4)
    return f"{value:0{digits}x}"


def from_hex(text: str, length: int) -> int:
    try:
        value = int(text, 16)
    except ValueError as exc:
        raise ShapeError(f"not a hex string: {text!r}") from exc
    return check_bits(value, length, f"hex value {text!r}")


def to_bits(value: int, length: int) -> str:
    """Binary rendering, mostly for error messages and debugging."""
    check_bits(value, length, "to_bits")
    return format(value, f"0{length}b") if length else ""
