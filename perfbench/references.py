"""Independent references for the benchmark's output checks.

Nothing here imports balex: every value is recomputed from the README's
normative specification (BGEX layout, Philox tables, counter expansions,
chunk polynomials, canonical affine indexing) with separate code, so a check
compares two implementations rather than a program with itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from fractions import Fraction

import numpy as np

GENERATOR_ID = "philox4x64:numpy-generator-integers:v1"

# Published GF(2^s) moduli (README table) for the field degrees used here.
MODULI = {4: 0x13, 8: 0x11B, 16: 0x1002B}


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------- tables ---

def philox_table(n: int, d: int, m: int, key: int) -> np.ndarray:
    """The README's random table: Philox(key) integers in [0, 2^m), 2^(n+d) of them."""
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.integers(0, 1 << m, size=1 << (n + d), dtype=np.uint64)


def attempt_key(seed: int, attempt: int) -> int:
    return (seed << 32) | attempt


def bgex_table_bytes(n: int, d: int, m: int, table: np.ndarray) -> bytes:
    """BGEX file of a table graph: header, tag 0, little-endian ceil(m/8)-byte entries."""
    width = (m + 7) // 8
    head = b"BGEX" + struct.pack("<HIII", 1, n, d, m) + bytes([0])
    if width in (1, 2, 4, 8):
        return head + np.asarray(table).astype(f"<u{width}").tobytes()
    raw = np.asarray(table, dtype="<u8").reshape(-1, 1).view(np.uint8)[:, :width]
    return head + raw.tobytes()


def bgex_linear_bytes(n: int, d: int, m: int, s: int, seed: int) -> bytes:
    """BGEX file of a counter-expansion linear graph: header, tag 1, descriptor."""
    desc = json.dumps({"id": "counter", "m": m, "s": s, "seed": seed},
                      sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = b"BGEX" + struct.pack("<HIII", 1, n, d, m) + bytes([1])
    return head + struct.pack("<I", len(desc)) + desc


def parse_bgex_linear(data: bytes) -> tuple[int, int, int, dict]:
    expect(data[:4] == b"BGEX", "graph file lacks the BGEX magic")
    version, n, d, m = struct.unpack_from("<HIII", data, 4)
    expect(version == 1 and data[18] == 1, "graph file is not a version-1 linear graph")
    (length,) = struct.unpack_from("<I", data, 19)
    body = data[23:]
    expect(len(body) == length, "linear descriptor length field disagrees with the file")
    return n, d, m, json.loads(body.decode("utf-8"))


def sha256_tag(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def prefix_rows(table: np.ndarray, n: int, d: int, m: int, bits: int) -> np.ndarray:
    """(2^n, 2^d) right labels truncated to their first `bits` bits."""
    return (np.asarray(table, dtype=np.int64) >> (m - bits)).reshape(1 << n, 1 << d)


# ---------------------------------------------------- extractor deviation ---

def worst_deviation(rows: np.ndarray, K: int, R: int) -> Fraction:
    """Worst statistical distance over left sets of size K, by the dual form.

    For a right set A, the best B of size K takes the K largest deg_A(x); the
    worst deviation is max_A (sum of those K)*R - |A|*K*D, over K*D*R.
    """
    N, D = rows.shape
    if K == N:                          # B is everything: A = the over-full right nodes
        excess = np.bincount(rows.ravel(), minlength=R) * R - K * D
        return Fraction(int(excess[excess > 0].sum()), K * D * R)
    counts = np.zeros((N, R), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(N), D), rows.ravel()), 1)
    sets = (np.arange(1 << R, dtype=np.int64)[:, None] >> np.arange(R)) & 1
    deg = counts @ sets.T                                   # (N, 2^R)
    top = np.sort(deg, axis=0)[N - K:].sum(axis=0)
    value = R * top - sets.sum(axis=1) * K * D
    return Fraction(int(value.max()), K * D * R)


def min_right_degree(rows: np.ndarray, R: int) -> int:
    counts = np.bincount(rows.ravel(), minlength=R)
    nonzero = counts[counts > 0]
    return int(nonzero.min()) if nonzero.size else 0


# ----------------------------------------------------------- table lists ---

class TableBlocks:
    """Distinct left-neighbours of every right node of one prefix view, from one sort."""

    def __init__(self, table: np.ndarray, n: int, d: int, m: int, bits: int):
        self.d, self.shift, self.bits = d, m - bits, bits
        self.pref = np.asarray(table, dtype=np.int64) >> self.shift
        order = np.argsort(self.pref, kind="stable")        # by (prefix, x, y)
        ps, xs = self.pref[order], order >> d
        keep = np.ones(order.size, dtype=bool)
        keep[1:] = (ps[1:] != ps[:-1]) | (xs[1:] != xs[:-1])
        self.ps, self.xs = ps[keep], xs[keep]
        self.start = np.searchsorted(self.ps, np.arange(1 << bits), side="left")
        self.stop = np.searchsorted(self.ps, np.arange(1 << bits), side="right")

    def labels(self, x: int) -> list[int]:
        D = 1 << self.d
        return [int(v) for v in self.pref[x * D:(x + 1) * D]]

    def block(self, p: int, Delta: int) -> tuple[list[int], bool]:
        xs = self.xs[self.start[p]:self.stop[p]]
        expect(xs.size > 0, f"right node {p:#x} has no left neighbour")
        return [int(xs[j % xs.size]) for j in range(Delta)], xs.size < Delta

    def amplified(self, x: int, Delta: int) -> tuple[list[int], list[int], list[int]]:
        """(elements, segment labels, padded labels) of the two-step list of x."""
        elements, padded = [], []
        labels = self.labels(x)
        for y, p in enumerate(labels):
            block, short = self.block(p, Delta)
            elements += block
            if short:
                padded.append(y)
        return elements, labels, padded


# ------------------------------------------------------------ congestion ---

def congestion(table: np.ndarray, n: int, d: int, m: int, members: list[int],
               epsilon: Fraction) -> dict:
    """Heavy and bad sets of B at s = floor(log2 |B|), in integers only."""
    b = len(members)
    s = b.bit_length() - 1
    D, R = 1 << d, 1 << s
    rows = prefix_rows(table, n, d, m, s)[np.asarray(members, dtype=np.int64)]
    counts = np.bincount(rows.ravel(), minlength=R)
    en, ed = epsilon.numerator, epsilon.denominator
    # count > (b*D/R)/eps  <=>  count*R*en > b*D*ed
    is_heavy = counts * R * en > b * D * ed
    hits = is_heavy[rows].sum(axis=1)
    bad = {x for x, h in zip(members, hits.tolist()) if h * h * ed >= D * D * en}  # h/D >= sqrt(eps)
    heavy = {int(z) for z in np.nonzero(is_heavy)[0]}
    return {
        "s": s,
        "threshold": Fraction(b * D, R) / epsilon,
        "heavy": heavy,
        "bad": bad,
        "bound_ok": len(bad) ** 2 * ed <= 4 * b * b * en,   # bad <= 2 sqrt(eps) b
    }


# -------------------------------------------------------- linear graphs ---

def gf_mul(a: int, b: int, s: int, modulus: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> s:
            a ^= modulus
    return out


class CounterGraph:
    """README-level evaluator of a counter-expansion linear graph."""

    def __init__(self, n: int, d: int, m: int, s: int, seed: int):
        self.n, self.d, self.m, self.s, self.seed = n, d, m, s, seed
        self.modulus = MODULI[s]
        self._pairs: dict[int, list[tuple[int, int]]] = {}

    def pairs(self, y: int) -> list[tuple[int, int]]:
        if y not in self._pairs:
            key, low = self.seed.to_bytes(8, "little"), (1 << self.s) - 1
            out = []
            for i in range(self.m):
                dig = hashlib.blake2b(y.to_bytes(8, "little") + i.to_bytes(4, "little"),
                                      key=key, digest_size=16).digest()
                out.append((int.from_bytes(dig[:8], "little") & low,
                            int.from_bytes(dig[8:], "little") & low))
            self._pairs[y] = out
        return self._pairs[y]

    def chunk_poly(self, x: int, v: int) -> int:
        """sum_j chunk_j(x) * v^j over GF(2^s), chunk 0 = the low s bits of x."""
        s = self.s
        chunks = [(x >> (j * s)) & ((1 << s) - 1) for j in range(max(1, -(-self.n // s)))]
        acc = 0
        for c in reversed(chunks):
            acc = gf_mul(acc, v, s, self.modulus) ^ c
        return acc

    def ext(self, x: int, y: int) -> int:
        """m-bit output; bit i (row 0 the most significant) = <mask_i, poly(x) at point_i>."""
        out = 0
        for point, mask in self.pairs(y):
            out = (out << 1) | ((mask & self.chunk_poly(x, point)).bit_count() & 1)
        return out

    def columns(self, y: int, bits: int) -> list[int]:
        """Images of the unit vectors 1 << b, truncated to their first `bits` bits."""
        return [self.ext(1 << b, y) >> (self.m - bits) for b in range(self.n)]

    def prefix_rows(self, bits: int) -> np.ndarray:
        """(2^n, 2^d) truncated images of every left node, by linearity (small n only)."""
        out = np.zeros((1 << self.n, 1 << self.d), dtype=np.int64)
        for y in range(1 << self.d):
            col = np.zeros(1, dtype=np.int64)
            for img in self.columns(y, bits):
                col = np.concatenate([col, col ^ img])
            out[:, y] = col
        return out


def apply_columns(columns: list[int], x: int) -> int:
    out, b = 0, 0
    while x:
        if x & 1:
            out ^= columns[b]
        x >>= 1
        b += 1
    return out


def free_bits(columns: list[int]) -> list[int]:
    """Bit positions whose column lies in the span of the columns of higher bits.

    Eliminating from the most significant bit down makes exactly these the free
    coordinates; returned in ascending order, the order of the canonical index.
    """
    basis: dict[int, int] = {}
    free = []
    for b in range(len(columns) - 1, -1, -1):
        v = columns[b]
        while v and (v.bit_length() - 1) in basis:
            v ^= basis[v.bit_length() - 1]
        if v:
            basis[v.bit_length() - 1] = v
        else:
            free.append(b)
    return sorted(free)


def check_linear_element(columns: list[int], free: list[int], z: int, element: int,
                         j: int, Delta: int) -> bool:
    """Element j of segment z: a preimage of z whose free coordinates spell j.

    Returns whether the segment is short (fewer than Delta preimages), in which
    case the index wraps cyclically.
    """
    size = 1 << len(free)
    expect(apply_columns(columns, element) == z,
           f"element {element:#x} does not map to the segment's right node {z:#x}")
    index = sum(((element >> fb) & 1) << i for i, fb in enumerate(free))
    expect(index == j % size,
           f"element {element:#x} sits at affine index {index}, expected {j % size}")
    return size < Delta


def derived_linear(n: int, epsilon: Fraction, kappa: float, c: int = 1) -> dict:
    """README formulas: d, m = n - c*d, Delta = ceil(2 (1/eps)^{3/2} D^{c+1}), t."""
    d = max(1, math.ceil(kappa * math.log2(n) ** 3 * math.log2(1 / epsilon) ** 2))
    m = n - c * d
    target = Fraction(4 * (1 << d) ** (2 * (c + 1))) / epsilon ** 3   # Delta^2 >= target
    Delta = math.isqrt(target.numerator // target.denominator)
    while Delta * Delta < target:
        Delta += 1
    t = n - ((Delta - 1).bit_length() - c * d)
    return {"d": d, "m": m, "Delta": Delta, "t": t}
