"""Bit-string conventions used everywhere in the package.

A bit string of length ``L`` is stored as a non-negative int together with an
explicit length.  The first character of the written string is the most
significant bit: ``"1011"`` is the integer ``0b1011 = 11`` at length 4.  The
prefix of length ``j`` of an ``L``-bit value is therefore ``value >> (L - j)``.

Hex I/O zero-pads to ``ceil(L/4)`` digits; the length is always carried by the
surrounding context (file header, CLI flag), never by the hex text itself.

Text inputs are parsed here too, malformed ones raising ``FormatError``:
``json_object`` is the one JSON parser, and ``*_hex_file`` the B-set and list codec.
"""

from __future__ import annotations

import json

from .errors import FormatError, ShapeError


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


def json_object(text: str | bytes, what: str) -> dict:
    """Parse a JSON document that must be an object; bytes must be UTF-8."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise FormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def read_text(path, what: str) -> str:
    """The whole file as UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, NUL in path
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc


def write_hex_file(path, header: dict, values, n: int) -> None:
    """A compact, key-sorted JSON header line, then each value as n-bit hex."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        fh.writelines(to_hex(value, n) + "\n" for value in values)


def read_hex_file(path, what: str) -> tuple[dict, list[int]]:
    """Header and values of a ``write_hex_file`` file whose header ``n`` is in 1..64."""
    lines = read_text(path, what).splitlines()
    if not lines:
        raise FormatError(f"empty {what} {path}")
    header = json_object(lines[0], f"{what} header in {path}")
    n = header.get("n")
    if type(n) is not int or not 1 <= n <= 64:
        raise FormatError(f"{what} header in {path}: n must be an integer in 1..64, got {n!r}")
    return header, [from_hex(line, n) for line in lines[1:] if line]
