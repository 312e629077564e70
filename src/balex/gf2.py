"""GF(2) and GF(2^s) linear algebra kernel.

Conventions
-----------
* Field elements of GF(2^s) are ints ``< 2**s`` with bit ``i`` holding the
  coefficient of ``alpha**i`` (alpha = the residue class of x modulo the
  field's irreducible polynomial).
* Matrix rows and vectors over GF(2) follow the package-wide bit-string
  convention: a row over ``c`` columns is a ``c``-bit string, column 0 (the
  first coordinate) living at the most significant bit.  ``mat_vec`` therefore
  reduces to a per-row AND + parity against the input integer.
* An n-bit string is read as a chunk polynomial over GF(2^s): chunk j, the
  integer bits ``j*s .. j*s+s-1`` (the top chunk zero-padded), is the
  coefficient of ``point**j``, so chunk 0 is the constant term and input bit
  ``j*s + b`` maps to ``alpha**b * point**j``.
* Per extension degree ``s`` the published modulus is the irreducible
  polynomial of degree ``s`` with the smallest integer encoding (bit ``i`` =
  coefficient of ``x**i``); the full table is reproduced in the README and
  re-derivable with :func:`least_irreducible`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bitstrings import check_bits
from .errors import IndexRangeError, ParameterError

MAX_FIELD_DEGREE = 32

# Smallest-encoding irreducible polynomial per degree, bit i = coeff of x^i.
LEX_LEAST_IRREDUCIBLE = {
    1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
}


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, mod: int) -> int:
    mb = mod.bit_length()
    while a.bit_length() >= mb:
        a ^= mod << (a.bit_length() - mb)
    return a


def clmul(a: int, b: int) -> int:
    """Carry-less product of two polynomials over GF(2)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


@lru_cache(maxsize=None)
def is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..deg(p)//2."""
    s = poly_degree(p)
    if s < 1:
        return False
    for deg in range(1, s // 2 + 1):
        for q in range(1 << deg, 1 << (deg + 1)):
            if poly_mod(p, q) == 0:
                return False
    return True


@lru_cache(maxsize=None)
def least_irreducible(s: int) -> int:
    """Recompute the published modulus for degree ``s`` from scratch."""
    c = 0
    while True:
        p = (1 << s) | c
        if is_irreducible(p):
            return p
        c += 1


@dataclass(frozen=True)
class Field2s:
    """GF(2^s) with a fixed irreducible modulus; add is XOR."""

    s: int
    modulus: int

    def __post_init__(self) -> None:
        if not 1 <= self.s <= MAX_FIELD_DEGREE:
            raise ParameterError(f"field degree {self.s} outside 1..{MAX_FIELD_DEGREE}")
        if poly_degree(self.modulus) != self.s:
            raise ParameterError(
                f"modulus {self.modulus:#x} does not have degree {self.s}"
            )
        if not is_irreducible(self.modulus):
            raise ParameterError(f"modulus {self.modulus:#x} is reducible")

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        check_bits(a, self.s, "field element")
        check_bits(b, self.s, "field element")
        return poly_mod(clmul(a, b), self.modulus)


def field_make(s: int) -> Field2s:
    """Field with the published smallest-encoding modulus of degree ``s``."""
    if not 1 <= s <= MAX_FIELD_DEGREE:
        raise ParameterError(f"field degree {s} outside 1..{MAX_FIELD_DEGREE}")
    return Field2s(s, LEX_LEAST_IRREDUCIBLE[s])


@dataclass(frozen=True)
class Gf2Matrix:
    """Bit-packed GF(2) matrix; ``rows[i]`` is row ``i`` as a cols-bit string."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self) -> None:
        for r in self.rows:
            check_bits(r, self.cols, "matrix row")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def mat_vec(self, x: int) -> int:
        """Product A*x; the result is an nrows-bit string, row 0 on top."""
        check_bits(x, self.cols, "vector")
        out = 0
        for row in self.rows:
            out = (out << 1) | ((row & x).bit_count() & 1)
        return out

    def truncate_rows(self, keep: int) -> "Gf2Matrix":
        if not 0 <= keep <= self.nrows:
            raise ParameterError(f"cannot keep {keep} of {self.nrows} rows")
        return Gf2Matrix(self.rows[:keep], self.cols)

    def rank(self) -> int:
        work = list(self.rows)
        rank = 0
        for bit in range(self.cols - 1, -1, -1):
            pivot = None
            for i in range(rank, len(work)):
                if (work[i] >> bit) & 1:
                    pivot = i
                    break
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            for i in range(len(work)):
                if i != rank and (work[i] >> bit) & 1:
                    work[i] ^= work[rank]
            rank += 1
        return rank


@dataclass(frozen=True)
class AffineSpace:
    """Solution set of a consistent GF(2) system, indexed canonically.

    ``basis`` is the reduced kernel basis: one vector per free coordinate,
    carrying a 1 at its own free coordinate and 0 at every other free
    coordinate, ordered by ascending integer bit position of the free
    coordinate.  Element ``i`` is the particular solution XOR the basis
    vectors selected by the bits of ``i`` (bit j of i -> basis[j]), so for a
    fully-free suffix the enumeration walks suffixes in increasing numeric
    order.
    """

    ambient: int
    particular: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def size(self) -> int:
        return 1 << self.dim

    def element(self, i: int) -> int:
        if i < 0 or i >> self.dim:
            raise IndexRangeError(f"element index {i} outside 0..2^{self.dim}-1")
        out = self.particular
        j = 0
        while i:
            if i & 1:
                out ^= self.basis[j]
            i >>= 1
            j += 1
        return out

    def __iter__(self):
        for i in range(self.size()):
            yield self.element(i)


def row_assemble(
    field: Field2s,
    n: int,
    pairs: list[tuple[int, int]],
    m: int,
) -> Gf2Matrix:
    """The m-by-n matrix whose output bit i is ``mask_i`` applied to the chunk
    polynomial of x evaluated at ``point_i``.

    ``pairs[i] = (point_i, mask_i)``.  Input bit ``j*s + b`` is bit b of
    chunk j (chunk 0 is the constant term), so its column under the
    evaluation is ``alpha^b * point_i^j`` and its bit in row i is the parity
    of ``mask_i`` AND that column (mask bit b pairing with the alpha^b
    coordinate).
    """
    if len(pairs) != m:
        raise ParameterError(f"need exactly {m} (point, mask) pairs, got {len(pairs)}")
    s, modulus = field.s, field.modulus
    rows = []
    for point, mask in pairs:
        check_bits(point, s, "row point")
        check_bits(mask, s, "row mask")
        row = 0
        power = 1  # point^j, the column of input bit j*s
        for low in range(0, n, s):
            column = power
            for bit in range(low, min(low + s, n)):
                row |= ((mask & column).bit_count() & 1) << bit
                column <<= 1
                if column >> s:
                    column ^= modulus
            power = field.mul(power, point)
        rows.append(row)
    return Gf2Matrix(tuple(rows), n)


def solve_affine(mat: Gf2Matrix, z: int) -> AffineSpace | None:
    """Solve A*x = z over GF(2); None means the system is inconsistent."""
    check_bits(z, mat.nrows, "right-hand side")
    n = mat.cols
    aug = [
        (mat.rows[i], (z >> (mat.nrows - 1 - i)) & 1)
        for i in range(mat.nrows)
    ]
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for bit in range(n - 1, -1, -1):
        pivot = None
        for i in range(rank, len(aug)):
            if (aug[i][0] >> bit) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        prow, prhs = aug[rank]
        for i in range(len(aug)):
            if i != rank and (aug[i][0] >> bit) & 1:
                aug[i] = (aug[i][0] ^ prow, aug[i][1] ^ prhs)
        pivot_of_col[bit] = rank
        rank += 1
    for row, rhs in aug[rank:]:
        if rhs:
            return None
    particular = 0
    for bit, i in pivot_of_col.items():
        if aug[i][1]:
            particular |= 1 << bit
    free_bits = [b for b in range(n) if b not in pivot_of_col]
    basis = []
    for f in free_bits:
        vec = 1 << f
        for bit, i in pivot_of_col.items():
            if (aug[i][0] >> f) & 1:
                vec |= 1 << bit
        basis.append(vec)
    return AffineSpace(n, particular, tuple(basis))

