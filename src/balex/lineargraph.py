"""Linear graph backend: every edge label acts on left nodes as a GF(2) matrix.

Bit i of the output under edge label y is the inner product of
``mask_i(y)`` with the chunk polynomial of x evaluated at ``point_i(y)``.
Chunk 0, the low s bits of x, is the constant term, so input bit ``j*s + b``
contributes the field element ``alpha^b * point_i(y)^j`` (see
``gf2.row_assemble``).  The (point, mask) pairs come from a pluggable seed
expansion:

* ``counter`` — pairs derived by keyed BLAKE2b hashing of (y, i); fully
  deterministic from a 64-bit seed.  No extractor quality is claimed for this
  scheme; it is assessed empirically with the sampled verifier.
* ``external`` — pairs loaded verbatim from a JSON table file, so a
  purpose-built expansion can be plugged in without code changes.

Exact derivation for ``counter`` (normative): for row index i (0-based) of
edge label y, ``digest = blake2b(data=y.to_bytes(8,'little') +
i.to_bytes(4,'little'), key=seed.to_bytes(8,'little'), digest_size=16)``;
``point = digest[0:8]`` and ``mask = digest[8:16]`` as little-endian
integers, each reduced to the low s bits.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, isfinite, log2

import numpy as np

from .bitstrings import check_bits, json_object, read_text
from .errors import CapacityError, FormatError, IndexRangeError, InvariantError, ParameterError
from .exact import ceil_log2, ceil_scaled_sqrt
from .gf2 import AffineSpace, Field2s, Gf2Matrix, field_make, row_assemble, solve_affine
from .graphs import _BACKEND_LINEAR, MAX_TABLE_BITS, ExtractorGraph, _entry_dtype

COUNTER_SCHEME = "counter"
EXTERNAL_SCHEME = "external"


@dataclass(frozen=True)
class SeedExpansion:
    """Deterministic map from (edge label, row index) to a (point, mask) pair."""

    scheme: str
    s: int
    m: int
    seed: int | None = None
    table_path: str | None = None

    def __post_init__(self) -> None:
        """Check every field; graph-file descriptors are checked only here."""
        if self.scheme not in (COUNTER_SCHEME, EXTERNAL_SCHEME):
            raise ParameterError(
                f"expansion scheme must be a JSON str, 'counter' or 'external', got {self.scheme!r}"
            )
        counter = self.scheme == COUNTER_SCHEME
        source = ("seed", int) if counter else ("table_path", str)
        for name, kind in (("s", int), ("m", int), source):
            value = getattr(self, name)
            if type(value) is not kind:
                raise ParameterError(
                    f"{self.scheme} expansion field {name!r} must be a JSON {kind.__name__}, "
                    f"got {value!r}"
                )
        if self.m < 1:
            raise ParameterError(f"expansion output length m={self.m} must be >= 1")
        if not counter:
            object.__setattr__(self, "_table", _load_pair_table(self.table_path, self.s, self.m))
        elif not 0 <= self.seed < 1 << 64:
            raise ParameterError("counter expansion needs a seed in [0, 2^64)")

    def pairs(self, y: int) -> list[tuple[int, int]]:
        if self.scheme == COUNTER_SCHEME:
            mask = (1 << self.s) - 1
            key = self.seed.to_bytes(8, "little")
            out = []
            for i in range(self.m):
                digest = hashlib.blake2b(
                    y.to_bytes(8, "little") + i.to_bytes(4, "little"),
                    key=key,
                    digest_size=16,
                ).digest()
                point = int.from_bytes(digest[0:8], "little") & mask
                h = int.from_bytes(digest[8:16], "little") & mask
                out.append((point, h))
            return out
        table = getattr(self, "_table")
        if y >= len(table):
            raise ParameterError(f"external table covers {len(table)} edge labels, not y={y}")
        return table[y]

    def descriptor(self) -> dict:
        out = {"id": self.scheme, "s": self.s, "m": self.m}
        if self.scheme == COUNTER_SCHEME:
            out["seed"] = self.seed
        else:
            out["table"] = self.table_path
        return out


def _load_pair_table(path: str, s: int, m: int) -> list[list[tuple[int, int]]]:
    what = f"expansion table {path}"
    doc = json_object(read_text(path, "expansion table"), what)
    if doc.get("s") != s or doc.get("m") != m:
        raise FormatError(
            f"{what} carries s={doc.get('s')} m={doc.get('m')}, "
            f"descriptor says s={s} m={m}"
        )
    rows = doc.get("pairs")
    if not isinstance(rows, list) or not rows:
        raise FormatError(f"{what}: pairs must be a non-empty list of edge labels")
    table = []
    for y, pairs in enumerate(rows):
        if not (isinstance(pairs, list) and len(pairs) == m
                and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs)):
            raise FormatError(f"{what}: edge label {y} must list {m} [point, mask] pairs")
        table.append([(check_bits(point, s, "table point"), check_bits(h, s, "table mask"))
                      for point, h in pairs])
    return table


def save_pair_table(path, s: int, m: int, pairs: list[list[tuple[int, int]]]) -> None:
    """Write an external-expansion table file."""
    doc = {"s": s, "m": m, "pairs": [[[p, h] for p, h in rows] for rows in pairs]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


class LinearFamily:
    """The linear backend: one GF(2) matrix per edge label, cached per label."""

    kind = "linear"

    def __init__(self, n: int, d: int, expansion: SeedExpansion):
        table = getattr(expansion, "_table", None)
        # fewer than 2^d rows, compared without building 2^d: a file's d may be 2^32 - 1
        if table is not None and len(table).bit_length() <= d:
            raise ParameterError(
                f"external table covers {len(table)} edge labels, a d={d} graph has 2^{d}"
            )
        self.n = n
        self.d = d
        self.expansion = expansion
        self.field: Field2s = field_make(expansion.s)
        self._cache: dict[int, Gf2Matrix] = {}

    @property
    def m(self) -> int:
        return self.expansion.m

    def matrix(self, y: int) -> Gf2Matrix:
        check_bits(y, self.d, "edge label")
        mat = self._cache.get(y)
        if mat is None:
            mat = row_assemble(self.field, self.n, self.expansion.pairs(y), self.m)
            self._cache[y] = mat
        return mat

    def descriptor(self) -> dict:
        return self.expansion.descriptor()

    def eval(self, x: int, y: int) -> int:
        return self.matrix(y).mat_vec(x)

    def preimages(self, m_k: int, y: int, z: int) -> AffineSpace | None:
        return solve_affine(self.matrix(y).truncate_rows(m_k), z)

    def rows(self, m_k: int, members=None) -> np.ndarray:
        """Images truncated to m_k bits, one row per left node (all, or the members)."""
        count = 1 << self.n if members is None else len(members)
        out = np.empty((count, 1 << self.d), dtype=np.uint64)
        for y in range(1 << self.d):
            trunc = self.matrix(y).truncate_rows(m_k)
            if members is None:
                out[:, y] = _subset_xors(_unit_images(trunc))
            else:
                out[:, y] = [trunc.mat_vec(int(x)) for x in members]
        return out

    def degree_counts(self, m_k: int) -> np.ndarray:
        """Every label's image is a subspace hit 2^(n - rank) times per member."""
        counts = np.zeros(1 << m_k, dtype=np.int64)
        for y in range(1 << self.d):
            trunc = self.matrix(y).truncate_rows(m_k)
            members = _span_members(_unit_images(trunc))
            rank = members.size.bit_length() - 1
            counts[members] += 1 << (self.n - rank)
        return counts

    def right_degree(self, m_k: int, z: int) -> int:
        total = 0
        for y in range(1 << self.d):
            space = self.preimages(m_k, y, z)
            if space is not None:
                total += space.size()
        return total

    def blocks(self, m_k: int, pairs, Delta: int) -> list[tuple[list[int], bool]]:
        """Canonical block and padded flag per (edge label, right node) pair.

        A block is the first Delta preimages of the right node under its own
        edge label in affine index order, repeated cyclically when fewer exist.
        """
        out = []
        for y, p in pairs:
            space = self.preimages(m_k, y, p)
            if space is None:
                raise InvariantError(f"right node {p:#x} unreachable although an edge lands there")
            size = space.size()
            out.append(([space.element(i % size) for i in range(Delta)], size < Delta))
        return out

    def payload(self) -> bytes:
        descriptor = json.dumps(
            self.descriptor(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return bytes([_BACKEND_LINEAR]) + struct.pack("<I", len(descriptor)) + descriptor


def _unit_images(mat: Gf2Matrix) -> list[int]:
    """Images of the unit vectors ``1 << bit``, lowest bit first."""
    return [mat.mat_vec(1 << bit) for bit in range(mat.cols)]


def _subset_xors(vectors: list[int]) -> np.ndarray:
    """XOR of every subset of the vectors; entry i XORs those picked by the bits of i."""
    out = np.zeros(1 << len(vectors), dtype=np.uint64)
    size = 1
    for v in vectors:
        out[size : 2 * size] = out[:size] ^ v
        size *= 2
    return out


def _span_members(vectors: list[int]) -> np.ndarray:
    """All members of the GF(2) span of the given vectors (size 2^rank)."""
    slots: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead not in slots:
                slots[lead] = v
                break
            v ^= slots[lead]
    return _subset_xors(list(slots.values()))


def family_from_descriptor(descriptor: dict, *, n: int, d: int) -> LinearFamily:
    """The family a graph file's descriptor names; ``SeedExpansion`` checks its fields."""
    try:
        expansion = SeedExpansion(
            descriptor.get("id"), descriptor.get("s"), descriptor.get("m"),
            seed=descriptor.get("seed"), table_path=descriptor.get("table"),
        )
        return LinearFamily(n, d, expansion)
    except ParameterError as exc:
        raise FormatError(f"linear descriptor: {exc}") from exc


def linear_graph(n: int, d: int, expansion: SeedExpansion) -> ExtractorGraph:
    """Graph with explicit dimensions; m comes from the expansion."""
    return ExtractorGraph(n, d, expansion.m, family=LinearFamily(n, d, expansion))


def derive_dims(n: int, epsilon: Fraction, c: int = 1, kappa: float = 1.0) -> tuple[int, int]:
    """Edge-label length d = ceil(kappa * log2(n)^3 * log2(1/eps)^2) and m = n - c*d."""
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    if n < 2:
        raise ParameterError("need n >= 2 to derive dimensions")
    scaled = kappa * log2(n) ** 3 * log2(1 / epsilon) ** 2
    if c < 1 or not (kappa > 0 and isfinite(scaled)):  # also rejects a NaN kappa
        raise ParameterError(
            f"need c >= 1 and kappa > 0 with a finite d, got c={c} kappa={kappa}"
        )
    d = max(1, ceil(scaled))
    return d, n - c * d


def derive_amplification(n: int, epsilon: Fraction, d: int, c: int = 1) -> tuple[int, int]:
    """Block size Delta = ceil(2 * (1/eps)^{3/2} * D^{c+1}) and its threshold t."""
    epsilon = Fraction(epsilon)
    degree = 1 << d
    delta_blocks = ceil_scaled_sqrt(2 * degree ** (c + 1), (1 / epsilon) ** 3)
    t = n - (ceil_log2(delta_blocks) - c * d)
    return delta_blocks, t


def build_linear_graph(
    n: int,
    epsilon: Fraction,
    expansion: SeedExpansion,
    c: int = 1,
    kappa: float = 1.0,
) -> ExtractorGraph:
    """Linear graph with the derived dimensions; expansion.m must equal n - c*d."""
    d, m = derive_dims(n, epsilon, c, kappa)
    if m < 1:
        raise ParameterError(
            f"derived m = n - c*d = {n} - {c}*{d} = {m} < 1; "
            "decrease kappa/c or increase n"
        )
    if expansion.m != m:
        raise ParameterError(
            f"expansion produces {expansion.m}-bit outputs but derived m is {m}"
        )
    return linear_graph(n, d, expansion)


def linearity_check(
    graph: ExtractorGraph, y: int, trials: int = 256, seed: int = 0
) -> bool:
    """Verify f_y(0) = 0 and f_y(x1 ^ x2) = f_y(x1) ^ f_y(x2).

    Exhaustive for n <= 16 (checks every x against the span of the unit
    images, which is equivalent to full additivity); sampled pairs otherwise.
    """
    family = graph.family
    if graph.ext_eval(0, y) != 0:
        return False
    n = graph.n
    if n <= 16:
        filled = _subset_xors(_unit_images(family.matrix(y)))
        for x in range(1 << n):
            if graph.ext_eval(x, y) != int(filled[x]):
                return False
        return True
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(trials):
        x1 = int(rng.integers(0, 1 << n, dtype=np.uint64))
        x2 = int(rng.integers(0, 1 << n, dtype=np.uint64))
        if graph.ext_eval(x1 ^ x2, y) != graph.ext_eval(x1, y) ^ graph.ext_eval(x2, y):
            return False
    return True


@dataclass(frozen=True)
class PreimageList:
    """Indexed view of Delta left-neighbors of z under one edge label."""

    z: int
    y: int
    space: AffineSpace
    Delta: int

    def element(self, i: int) -> int:
        if not 0 <= i < self.Delta:
            raise IndexRangeError(f"preimage index {i} outside 0..{self.Delta - 1}")
        return self.space.element(i)

    def __len__(self) -> int:
        return self.Delta

    def __iter__(self):
        for i in range(self.Delta):
            yield self.space.element(i)


def left_neighbors_indexed(
    graph: ExtractorGraph, z: int, y: int, Delta: int, t: int
) -> PreimageList | None:
    """First Delta preimages of z under edge label y in the t-prefix graph.

    Returns None when z has fewer than Delta preimages under label y
    (including the unreachable case).
    """
    family = graph.family
    if Delta < 1:
        raise ParameterError(f"Delta must be positive, got {Delta}")
    m_t = graph.prefix_view(t).m_k
    check_bits(z, m_t, "right node")
    check_bits(y, graph.d, "edge label")
    space = family.preimages(m_t, y, z)
    if space is None or space.size() < Delta:
        return None
    return PreimageList(z, y, space, Delta)


def delta_guarantee(
    graph: ExtractorGraph, t: int, Delta: int, samples: int = 16, seed: int = 0
) -> bool:
    """Whether every reachable right node of the t-prefix graph has at least
    Delta preimages under each edge label that reaches it.

    The decision is arithmetic (2^(n - m_t) >= Delta by the kernel dimension
    bound); a handful of sampled (z, y) pairs are additionally solved and
    counted as a self-check.
    """
    family = graph.family
    if Delta < 1:
        raise ParameterError(f"Delta must be positive, got {Delta}")
    view = graph.prefix_view(t)
    m_t = view.m_k
    free = graph.n - m_t
    if free < 0:
        return Delta <= 1
    if (1 << free) < Delta:
        return False
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(samples):
        y = int(rng.integers(0, graph.degree))
        x = int(rng.integers(0, 1 << graph.n, dtype=np.uint64))
        z = view.ext_eval(x, y)
        space = family.preimages(m_t, y, z)
        if space is None or space.size() < Delta:
            return False
    return True


def dump_to_table(graph: ExtractorGraph) -> ExtractorGraph:
    """Materialize a linear graph as an explicit table with identical outputs."""
    family = graph.family
    if graph.n + graph.d > MAX_TABLE_BITS:
        raise CapacityError(
            f"dump of 2^{graph.n + graph.d} entries exceeds the {MAX_TABLE_BITS}-bit budget"
        )
    table = family.rows(graph.m).ravel().astype(_entry_dtype(graph.m))
    return ExtractorGraph(graph.n, graph.d, graph.m, table=table)
